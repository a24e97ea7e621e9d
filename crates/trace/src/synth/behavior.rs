//! Branch behaviour models for the synthetic workload engine.
//!
//! Each static branch in a synthetic program carries a [`BehaviorModel`]
//! describing how its outcome is produced. The models map one-to-one onto
//! the statistical branch classes the paper's mechanisms target:
//!
//! * [`BehaviorModel::Bias`] — *completely biased* branches, the class the
//!   BST detects and the bias-free filter removes from history (§III-A).
//! * [`BehaviorModel::Loop`] — constant-trip loop branches, the target of
//!   the loop-count predictor (§IV-B2).
//! * [`BehaviorModel::CorrelatedLastOutcome`] — a branch whose direction
//!   equals the *most recent outcome* of another branch that executed far
//!   earlier; this is the deep-correlation class that motivates the whole
//!   paper (§I, §II).
//! * [`BehaviorModel::XorOfLast`] — multi-way correlation with several
//!   recent branches (classic perceptron fodder).
//! * [`BehaviorModel::LocalPattern`] — self-history periodic branches, the
//!   class on which recency-stack filtering *loses* (§VI-D, SPEC07/FP2).
//! * [`BehaviorModel::PhaseFlip`] — bias direction that flips with program
//!   phase, stressing dynamic (runtime) bias detection (§VI-D, SERV).
//! * [`BehaviorModel::PositionalProbe`] — the Figure 4 `array[p]` pattern
//!   that motivates positional history (§III-C).

use crate::rng::Xoshiro256;

/// Identifier of a static branch within a [`super::program::Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BranchId(usize);

impl BranchId {
    /// Creates an id from a raw index. Indexes are assigned densely by the
    /// program builder.
    pub fn new(index: usize) -> Self {
        Self(index)
    }

    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A branch direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Branch is taken.
    Taken,
    /// Branch falls through.
    NotTaken,
}

impl Direction {
    /// The direction as a boolean (`true` = taken).
    pub fn as_bool(self) -> bool {
        self == Direction::Taken
    }

    /// The opposite direction.
    pub fn flipped(self) -> Self {
        match self {
            Direction::Taken => Direction::NotTaken,
            Direction::NotTaken => Direction::Taken,
        }
    }
}

impl From<bool> for Direction {
    fn from(taken: bool) -> Self {
        if taken {
            Direction::Taken
        } else {
            Direction::NotTaken
        }
    }
}

/// How a static branch resolves each time it executes.
#[derive(Debug, Clone, PartialEq)]
pub enum BehaviorModel {
    /// Resolves the same direction every single execution.
    Bias(Direction),
    /// Loop back-edge: taken `trip - 1` consecutive times, then not taken
    /// once (one full loop execution per `trip` occurrences).
    Loop {
        /// Number of iterations per loop visit; must be at least 1.
        trip: u32,
    },
    /// Loop back-edge with a data-dependent trip count: each loop visit
    /// draws a fresh trip uniformly from `[trip_lo, trip_hi]`. The jitter
    /// shifts the *alignment* of everything beyond the loop in a raw
    /// history register — scrambling conventional folded-history indices
    /// — while a recency stack still sees exactly one entry for the
    /// header, unchanged.
    LoopVar {
        /// Minimum iterations per visit (at least 1).
        trip_lo: u32,
        /// Maximum iterations per visit.
        trip_hi: u32,
    },
    /// Independently random with the given taken probability.
    Bernoulli {
        /// Probability of resolving taken.
        p_taken: f64,
    },
    /// A slowly varying random branch: repeats its own previous outcome,
    /// flipping with probability `p_flip` per execution. Real programs'
    /// non-biased branches are persistent like this (a condition tends to
    /// hold for a stretch of iterations), which is what makes histories
    /// containing them re-occur — the cross-correlation property §V-B2 of
    /// the paper leans on.
    SlowBernoulli {
        /// Probability that the outcome differs from the previous one.
        p_flip: f64,
    },
    /// Equals the most recent outcome of `src` (optionally inverted),
    /// flipped with probability `noise`.
    CorrelatedLastOutcome {
        /// The source branch this branch correlates with.
        src: BranchId,
        /// Whether the correlation is inverted.
        invert: bool,
        /// Probability that the deterministic outcome is flipped.
        noise: f64,
    },
    /// XOR of the most recent outcomes of `srcs` (optionally inverted),
    /// flipped with probability `noise`.
    XorOfLast {
        /// Source branches.
        srcs: Vec<BranchId>,
        /// Whether the XOR is inverted.
        invert: bool,
        /// Probability that the deterministic outcome is flipped.
        noise: f64,
    },
    /// Cycles through a fixed local outcome pattern.
    LocalPattern {
        /// The repeating outcome sequence; must be non-empty.
        pattern: Vec<bool>,
    },
    /// Completely biased *within a phase*, direction flipping every
    /// `period` global dynamic conditional branches.
    PhaseFlip {
        /// Phase length in dynamic conditional branches; must be nonzero.
        period: u64,
        /// Direction during even phases.
        base: Direction,
    },
    /// Figure 4's `if (array[i] == 1)` probe: taken only on the iteration
    /// where `occurrence % modulus == hot` *and* the guard's last outcome
    /// was taken.
    PositionalProbe {
        /// The guarding branch (`Branch A` in Figure 4).
        guard: BranchId,
        /// Loop length (occurrences per sweep).
        modulus: u32,
        /// The single hot index within the sweep.
        hot: u32,
    },
}

impl BehaviorModel {
    /// Largest referenced source id, if any — used by program validation.
    pub fn max_src(&self) -> Option<BranchId> {
        match self {
            BehaviorModel::CorrelatedLastOutcome { src, .. } => Some(*src),
            BehaviorModel::XorOfLast { srcs, .. } => srcs.iter().copied().max(),
            BehaviorModel::PositionalProbe { guard, .. } => Some(*guard),
            _ => None,
        }
    }
}

/// Mutable evaluation state shared by all branches of a program while a
/// trace is being emitted.
#[derive(Debug, Clone)]
pub struct EvalState {
    last_outcome: Vec<bool>,
    occurrences: Vec<u64>,
    aux: Vec<u32>,
    global_conditionals: u64,
}

impl EvalState {
    /// Creates state for a program with `n_branches` static branches.
    pub fn new(n_branches: usize) -> Self {
        Self {
            last_outcome: vec![false; n_branches],
            occurrences: vec![0; n_branches],
            aux: vec![0; n_branches],
            global_conditionals: 0,
        }
    }

    /// Most recent outcome of `id` (`false` before its first execution).
    pub fn last_outcome(&self, id: BranchId) -> bool {
        self.last_outcome[id.index()]
    }

    /// How many times `id` has executed.
    pub fn occurrences(&self, id: BranchId) -> u64 {
        self.occurrences[id.index()]
    }

    /// Total dynamic conditional branches executed so far.
    pub fn global_conditionals(&self) -> u64 {
        self.global_conditionals
    }

    /// Records the outcome of an execution of `id`.
    pub fn commit(&mut self, id: BranchId, taken: bool) {
        self.last_outcome[id.index()] = taken;
        self.occurrences[id.index()] += 1;
        self.global_conditionals += 1;
    }
}

impl BehaviorModel {
    /// Computes the next outcome of a branch with this model, *without*
    /// committing it to `state` (the emitter commits after recording).
    ///
    /// # Panics
    ///
    /// Panics if a `Loop` trip count is zero or a `LocalPattern` is empty
    /// (both rejected at program-build time).
    pub fn evaluate(&self, id: BranchId, state: &mut EvalState, rng: &mut Xoshiro256) -> bool {
        match self {
            BehaviorModel::Bias(dir) => dir.as_bool(),
            BehaviorModel::Loop { trip } => {
                assert!(*trip >= 1, "loop trip must be >= 1");
                let occ = state.occurrences(id);
                (occ % u64::from(*trip)) != u64::from(*trip - 1)
            }
            BehaviorModel::LoopVar { trip_lo, trip_hi } => {
                assert!(*trip_lo >= 1 && trip_lo <= trip_hi, "bad trip range");
                if state.aux[id.index()] == 0 {
                    state.aux[id.index()] =
                        rng.range_inclusive(u64::from(*trip_lo), u64::from(*trip_hi)) as u32;
                }
                state.aux[id.index()] -= 1;
                state.aux[id.index()] > 0
            }
            BehaviorModel::Bernoulli { p_taken } => rng.chance(*p_taken),
            BehaviorModel::SlowBernoulli { p_flip } => state.last_outcome(id) ^ rng.chance(*p_flip),
            BehaviorModel::CorrelatedLastOutcome { src, invert, noise } => {
                let mut out = state.last_outcome(*src) ^ invert;
                if *noise > 0.0 && rng.chance(*noise) {
                    out = !out;
                }
                out
            }
            BehaviorModel::XorOfLast {
                srcs,
                invert,
                noise,
            } => {
                let mut out = srcs
                    .iter()
                    .fold(false, |acc, s| acc ^ state.last_outcome(*s))
                    ^ invert;
                if *noise > 0.0 && rng.chance(*noise) {
                    out = !out;
                }
                out
            }
            BehaviorModel::LocalPattern { pattern } => {
                assert!(!pattern.is_empty(), "local pattern must be non-empty");
                pattern[(state.occurrences(id) % pattern.len() as u64) as usize]
            }
            BehaviorModel::PhaseFlip { period, base } => {
                assert!(*period > 0, "phase period must be non-zero");
                let phase = state.global_conditionals() / period;
                base.as_bool() ^ (phase % 2 == 1)
            }
            BehaviorModel::PositionalProbe {
                guard,
                modulus,
                hot,
            } => {
                let iter = (state.occurrences(id) % u64::from((*modulus).max(1))) as u32;
                iter == *hot && state.last_outcome(*guard)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Xoshiro256 {
        Xoshiro256::seed_from_u64(77)
    }

    #[test]
    fn direction_conversions() {
        assert!(Direction::Taken.as_bool());
        assert!(!Direction::NotTaken.as_bool());
        assert_eq!(Direction::Taken.flipped(), Direction::NotTaken);
        assert_eq!(Direction::from(true), Direction::Taken);
        assert_eq!(Direction::from(false), Direction::NotTaken);
    }

    #[test]
    fn bias_is_constant() {
        let model = BehaviorModel::Bias(Direction::Taken);
        let mut state = EvalState::new(1);
        let mut r = rng();
        for _ in 0..100 {
            assert!(model.evaluate(BranchId::new(0), &mut state, &mut r));
        }
    }

    #[test]
    fn loop_takes_trip_minus_one_times() {
        let model = BehaviorModel::Loop { trip: 4 };
        let id = BranchId::new(0);
        let mut state = EvalState::new(1);
        let mut r = rng();
        let outcomes: Vec<bool> = (0..8)
            .map(|_| {
                let out = model.evaluate(id, &mut state, &mut r);
                state.commit(id, out);
                out
            })
            .collect();
        assert_eq!(
            outcomes,
            vec![true, true, true, false, true, true, true, false]
        );
    }

    #[test]
    fn trip_one_loop_never_taken() {
        let model = BehaviorModel::Loop { trip: 1 };
        let id = BranchId::new(0);
        let mut state = EvalState::new(1);
        let mut r = rng();
        for _ in 0..5 {
            let out = model.evaluate(id, &mut state, &mut r);
            assert!(!out);
            state.commit(id, out);
        }
    }

    #[test]
    fn bernoulli_matches_probability() {
        let model = BehaviorModel::Bernoulli { p_taken: 0.8 };
        let mut state = EvalState::new(1);
        let mut r = rng();
        let taken = (0..50_000)
            .filter(|_| model.evaluate(BranchId::new(0), &mut state, &mut r))
            .count();
        let frac = taken as f64 / 50_000.0;
        assert!((frac - 0.8).abs() < 0.02, "frac = {frac}");
    }

    #[test]
    fn slow_bernoulli_persists() {
        let model = BehaviorModel::SlowBernoulli { p_flip: 0.1 };
        let id = BranchId::new(0);
        let mut state = EvalState::new(1);
        let mut r = rng();
        let mut flips = 0;
        let mut prev = state.last_outcome(id);
        for _ in 0..20_000 {
            let out = model.evaluate(id, &mut state, &mut r);
            if out != prev {
                flips += 1;
            }
            prev = out;
            state.commit(id, out);
        }
        let rate = flips as f64 / 20_000.0;
        assert!((rate - 0.1).abs() < 0.01, "flip rate {rate}");
    }

    #[test]
    fn correlation_tracks_source() {
        let src = BranchId::new(0);
        let dst = BranchId::new(1);
        let model = BehaviorModel::CorrelatedLastOutcome {
            src,
            invert: false,
            noise: 0.0,
        };
        let mut state = EvalState::new(2);
        let mut r = rng();
        for &src_out in &[true, false, true, true, false] {
            state.commit(src, src_out);
            assert_eq!(model.evaluate(dst, &mut state, &mut r), src_out);
        }
    }

    #[test]
    fn inverted_correlation() {
        let src = BranchId::new(0);
        let model = BehaviorModel::CorrelatedLastOutcome {
            src,
            invert: true,
            noise: 0.0,
        };
        let mut state = EvalState::new(2);
        let mut r = rng();
        state.commit(src, true);
        assert!(!model.evaluate(BranchId::new(1), &mut state, &mut r));
    }

    #[test]
    fn correlation_noise_flips_sometimes() {
        let src = BranchId::new(0);
        let model = BehaviorModel::CorrelatedLastOutcome {
            src,
            invert: false,
            noise: 0.25,
        };
        let mut state = EvalState::new(2);
        state.commit(src, true);
        let mut r = rng();
        let flipped = (0..40_000)
            .filter(|_| !model.evaluate(BranchId::new(1), &mut state, &mut r))
            .count();
        let frac = flipped as f64 / 40_000.0;
        assert!((frac - 0.25).abs() < 0.02, "frac = {frac}");
    }

    #[test]
    fn xor_of_last() {
        let a = BranchId::new(0);
        let b = BranchId::new(1);
        let model = BehaviorModel::XorOfLast {
            srcs: vec![a, b],
            invert: false,
            noise: 0.0,
        };
        let mut state = EvalState::new(3);
        let mut r = rng();
        for &(x, y) in &[(false, false), (true, false), (false, true), (true, true)] {
            state.commit(a, x);
            state.commit(b, y);
            assert_eq!(model.evaluate(BranchId::new(2), &mut state, &mut r), x ^ y);
        }
    }

    #[test]
    fn local_pattern_cycles() {
        let model = BehaviorModel::LocalPattern {
            pattern: vec![true, true, false],
        };
        let id = BranchId::new(0);
        let mut state = EvalState::new(1);
        let mut r = rng();
        let outs: Vec<bool> = (0..6)
            .map(|_| {
                let o = model.evaluate(id, &mut state, &mut r);
                state.commit(id, o);
                o
            })
            .collect();
        assert_eq!(outs, vec![true, true, false, true, true, false]);
    }

    #[test]
    fn phase_flip_changes_direction() {
        let model = BehaviorModel::PhaseFlip {
            period: 3,
            base: Direction::Taken,
        };
        let id = BranchId::new(0);
        let mut state = EvalState::new(1);
        let mut r = rng();
        let mut outs = Vec::new();
        for _ in 0..9 {
            let o = model.evaluate(id, &mut state, &mut r);
            outs.push(o);
            state.commit(id, o);
        }
        assert_eq!(
            outs,
            vec![true, true, true, false, false, false, true, true, true]
        );
    }

    #[test]
    fn positional_probe_matches_fig4() {
        let guard = BranchId::new(0);
        let probe = BranchId::new(1);
        let model = BehaviorModel::PositionalProbe {
            guard,
            modulus: 5,
            hot: 2,
        };
        let mut state = EvalState::new(2);
        let mut r = rng();
        // Guard taken: probe fires exactly at iteration 2 of each sweep.
        state.commit(guard, true);
        let mut outs = Vec::new();
        for _ in 0..10 {
            let o = model.evaluate(probe, &mut state, &mut r);
            outs.push(o);
            state.commit(probe, o);
        }
        assert_eq!(
            outs,
            vec![false, false, true, false, false, false, false, true, false, false]
        );
        // Guard not taken: probe never fires.
        state.commit(guard, false);
        for _ in 0..5 {
            let o = model.evaluate(probe, &mut state, &mut r);
            assert!(!o);
            state.commit(probe, o);
        }
    }

    #[test]
    fn max_src_reports_dependencies() {
        assert_eq!(BehaviorModel::Bias(Direction::Taken).max_src(), None);
        assert_eq!(
            BehaviorModel::CorrelatedLastOutcome {
                src: BranchId::new(7),
                invert: false,
                noise: 0.0
            }
            .max_src(),
            Some(BranchId::new(7))
        );
        assert_eq!(
            BehaviorModel::XorOfLast {
                srcs: vec![BranchId::new(1), BranchId::new(9), BranchId::new(4)],
                invert: false,
                noise: 0.0
            }
            .max_src(),
            Some(BranchId::new(9))
        );
    }

    #[test]
    fn eval_state_tracks_commits() {
        let mut state = EvalState::new(2);
        let id = BranchId::new(1);
        assert_eq!(state.occurrences(id), 0);
        assert!(!state.last_outcome(id));
        state.commit(id, true);
        assert_eq!(state.occurrences(id), 1);
        assert!(state.last_outcome(id));
        assert_eq!(state.global_conditionals(), 1);
    }
}
