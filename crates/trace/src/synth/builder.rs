//! High-level construction of synthetic programs.
//!
//! [`ProgramBuilder`] turns workload *intent* ("add a correlation at
//! dynamic distance ~800 whose filler is a noisy loop") into the static
//! branches and scenes of a [`Program`]. Each `add_*` method corresponds
//! to one statistical branch class from the paper's evaluation; the
//! 40-trace suite in [`crate::synth::suite`] is assembled entirely from
//! these methods.

use crate::rng::Xoshiro256;
use crate::synth::behavior::{BehaviorModel, BranchId, Direction};
use crate::synth::program::{Program, Scene, StaticBranch, Step};

/// What fills the dynamic gap between a deep-correlation source and its
/// consumer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Filler {
    /// Distinct completely-biased branches: removable by bias-free
    /// filtering alone (the §III-A optimization).
    DistinctBiased,
    /// Many dynamic instances of a handful of non-biased branches inside a
    /// loop: only the recency stack collapses these (the §III-B
    /// optimization).
    LoopedNonBiased,
    /// A function call whose body is mostly biased branches — the "two
    /// correlated branches separated by a function call" motivation of §I.
    CallWithBiased,
    /// A fixed-trip loop over a tiny body of completely biased branches:
    /// many dynamic instances, near-zero history entropy, four static
    /// branches. Collapsible by the recency stack; the loop back-edge
    /// itself is non-biased, so bias filtering alone does not reach
    /// through it.
    DeterministicLoop,
    /// Like [`Filler::DeterministicLoop`], but the loop's trip count
    /// jitters by a couple of iterations per visit (a data-dependent
    /// loop). The length jitter shifts the *alignment* of all older
    /// history in a raw register, scrambling conventional folded-history
    /// indices at every table length — while a recency-stack view still
    /// holds exactly one, unchanged, entry for the header. This is the
    /// filler class on which only the bias-free predictors keep their
    /// reach.
    JitterLoop,
}

/// Incrementally builds a [`Program`].
///
/// # Examples
///
/// ```
/// use bfbp_trace::synth::builder::{Filler, ProgramBuilder};
///
/// let mut b = ProgramBuilder::new(7);
/// b.add_bias_run(20, 4);
/// b.add_deep_correlation(300, Filler::DistinctBiased, 0.02, 3);
/// let program = b.build();
/// let trace = program.emit("demo", 10_000, 1);
/// assert_eq!(trace.len(), 10_000);
/// ```
#[derive(Debug)]
pub struct ProgramBuilder {
    branches: Vec<StaticBranch>,
    scenes: Vec<Scene>,
    rng: Xoshiro256,
    next_pc: u64,
    next_fn_pc: u64,
}

impl ProgramBuilder {
    /// Creates a builder whose structural randomness (directions of bias
    /// branches, trip jitter, …) derives from `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            branches: Vec::new(),
            scenes: Vec::new(),
            rng: Xoshiro256::seed_from_u64(seed ^ 0xB1A5_F4EE),
            next_pc: 0x0040_0000,
            next_fn_pc: 0x0080_0000,
        }
    }

    fn alloc_pc(&mut self) -> u64 {
        let pc = self.next_pc;
        self.next_pc += 0x10;
        pc
    }

    fn alloc_fn_pc(&mut self) -> u64 {
        let pc = self.next_fn_pc;
        self.next_fn_pc += 0x100;
        pc
    }

    /// Adds a static branch with an explicit behaviour; returns its id.
    pub fn add_branch(&mut self, behavior: BehaviorModel) -> BranchId {
        let pc = self.alloc_pc();
        self.branches.push(StaticBranch::new(pc, behavior));
        BranchId::new(self.branches.len() - 1)
    }

    /// Adds a backward (loop back-edge) static branch; returns its id.
    pub fn add_backward_branch(&mut self, behavior: BehaviorModel) -> BranchId {
        let pc = self.alloc_pc();
        self.branches
            .push(StaticBranch::new(pc, behavior).backward());
        BranchId::new(self.branches.len() - 1)
    }

    /// Adds a raw scene.
    pub fn add_scene(&mut self, weight: u32, steps: Vec<Step>) {
        self.scenes.push(Scene::new(steps, weight));
    }

    fn random_bias(&mut self) -> BehaviorModel {
        if self.rng.chance(0.55) {
            BehaviorModel::Bias(Direction::Taken)
        } else {
            BehaviorModel::Bias(Direction::NotTaken)
        }
    }

    /// Adds a straight-line run of `n` completely biased branches
    /// (mixed directions). Raises the trace's Figure 2 bias percentage.
    pub fn add_bias_run(&mut self, n: usize, weight: u32) {
        let steps: Vec<Step> = (0..n)
            .map(|_| {
                let model = self.random_bias();
                Step::Cond(self.add_branch(model))
            })
            .collect();
        self.add_scene(weight, steps);
    }

    /// Adds a run of `n` weakly-biased noisy branches with taken
    /// probability drawn from `p_range`; sets the trace's MPKI floor.
    pub fn add_noise_run(&mut self, n: usize, p_range: (f64, f64), weight: u32) {
        let steps: Vec<Step> = (0..n)
            .map(|_| {
                let p = p_range.0 + self.rng.next_f64() * (p_range.1 - p_range.0);
                Step::Cond(self.add_branch(BehaviorModel::Bernoulli { p_taken: p }))
            })
            .collect();
        self.add_scene(weight, steps);
    }

    /// Adds short-distance pairwise correlations: `n_pairs` random sources
    /// followed (within a few branches) by one consumer per source, each
    /// equal (or inverted-equal) to its own source. Linearly separable, so
    /// every history-based predictor with a short history captures this.
    pub fn add_near_correlation(&mut self, n_pairs: usize, noise: f64, weight: u32) {
        let srcs: Vec<BranchId> = (0..n_pairs.max(1))
            .map(|_| self.add_branch(BehaviorModel::SlowBernoulli { p_flip: 0.3 }))
            .collect();
        let mut steps: Vec<Step> = srcs.iter().map(|&s| Step::Cond(s)).collect();
        // A couple of biased separators, as real code has.
        for _ in 0..2 {
            let model = self.random_bias();
            steps.push(Step::Cond(self.add_branch(model)));
        }
        for &src in &srcs {
            let invert = self.rng_bool();
            let consumer =
                self.add_branch(BehaviorModel::CorrelatedLastOutcome { src, invert, noise });
            steps.push(Step::Cond(consumer));
        }
        self.add_scene(weight, steps);
    }

    /// Adds a short-distance two-source XOR correlation. XOR is *not*
    /// linearly separable, so single-table perceptron predictors cannot
    /// learn it while pattern-matching (TAGE-class) predictors can — the
    /// lever that keeps TAGE slightly ahead of the neural predictors on
    /// average, as in the paper's Figure 8.
    pub fn add_xor_correlation(&mut self, noise: f64, weight: u32) {
        let a = self.add_branch(BehaviorModel::Bernoulli { p_taken: 0.5 });
        let b = self.add_branch(BehaviorModel::Bernoulli { p_taken: 0.5 });
        let sep = self.random_bias();
        let sep = self.add_branch(sep);
        let invert = self.rng_bool();
        let consumer = self.add_branch(BehaviorModel::XorOfLast {
            srcs: vec![a, b],
            invert,
            noise,
        });
        self.add_scene(
            weight,
            vec![
                Step::Cond(a),
                Step::Cond(b),
                Step::Cond(sep),
                Step::Cond(consumer),
            ],
        );
    }

    fn rng_bool(&mut self) -> bool {
        self.rng.chance(0.5)
    }

    /// Adds a single deep correlation: a source branch, `distance`
    /// dynamic filler branches of the given [`Filler`] class, then one
    /// consumer correlated with the source. Equivalent to
    /// [`ProgramBuilder::add_deep_block`] with one consumer.
    pub fn add_deep_correlation(
        &mut self,
        distance: usize,
        filler: Filler,
        noise: f64,
        weight: u32,
    ) {
        self.add_deep_block(distance, filler, 1, noise, 0, 0, weight);
    }

    /// Appends a deterministic-loop filler of roughly `distance` dynamic
    /// branches to `steps` (shared by several scene constructors).
    fn push_deterministic_loop(&mut self, distance: usize, steps: &mut Vec<Step>) {
        let body_static = 3usize;
        let per_iter = body_static + 1;
        let trips = ((distance / per_iter).max(2)) as u32;
        let header = self.add_backward_branch(BehaviorModel::Loop { trip: trips + 1 });
        let body: Vec<Step> = (0..body_static)
            .map(|_| {
                let model = self.random_bias();
                Step::Cond(self.add_branch(model))
            })
            .collect();
        steps.push(Step::Loop {
            header,
            body,
            max_iters: trips + 2,
        });
    }

    /// Emits `len` records by cycling a shared pool of biased branches:
    /// deterministic, biased (so bias filtering erases it), and with a
    /// small static footprint.
    fn push_bias_pool(&mut self, pool: &[BranchId], len: usize, steps: &mut Vec<Step>) {
        for k in 0..len {
            steps.push(Step::Cond(pool[k % pool.len()]));
        }
    }

    fn new_bias_pool(&mut self, size: usize) -> Vec<BranchId> {
        (0..size.max(1))
            .map(|_| {
                let model = self.random_bias();
                self.add_branch(model)
            })
            .collect()
    }

    /// Appends `len` filler records of the given class to `steps`,
    /// reusing `pool` for the biased classes.
    fn push_filler(
        &mut self,
        filler: Filler,
        len: usize,
        pool: &[BranchId],
        steps: &mut Vec<Step>,
    ) {
        match filler {
            Filler::DistinctBiased | Filler::CallWithBiased => {
                self.push_bias_pool(pool, len, steps)
            }
            Filler::DeterministicLoop => self.push_deterministic_loop(len, steps),
            Filler::JitterLoop => {
                let body_static = 3usize;
                let per_iter = body_static + 1;
                let trips = ((len / per_iter).max(3)) as u32;
                let header = self.add_backward_branch(BehaviorModel::LoopVar {
                    trip_lo: trips.saturating_sub(2).max(1) + 1,
                    trip_hi: trips + 3,
                });
                let body: Vec<Step> = (0..body_static)
                    .map(|_| {
                        let model = self.random_bias();
                        Step::Cond(self.add_branch(model))
                    })
                    .collect();
                steps.push(Step::Loop {
                    header,
                    body,
                    max_iters: trips + 4,
                });
            }
            Filler::LoopedNonBiased => {
                let body_static = 3usize;
                let per_iter = body_static + 1;
                let trips = ((len / per_iter).max(2)) as u32;
                let header = self.add_backward_branch(BehaviorModel::Loop { trip: trips + 1 });
                let body: Vec<Step> = (0..body_static)
                    .map(|_| {
                        // Mostly-taken, but genuinely non-biased: the RS is
                        // the only mechanism that collapses these.
                        let p = 0.88 + self.rng.next_f64() * 0.08;
                        Step::Cond(self.add_branch(BehaviorModel::Bernoulli { p_taken: p }))
                    })
                    .collect();
                steps.push(Step::Loop {
                    header,
                    body,
                    max_iters: trips + 2,
                });
            }
        }
    }

    /// Adds a deep-correlation *block*: a warm-up of `warmup` dynamic
    /// filler branches, a 50/50 source, `distance` dynamic filler
    /// branches of the given [`Filler`] class, then `consumers` consumer
    /// branches -- every one correlated with the source -- each separated
    /// from the previous by `gap` more filler branches.
    ///
    /// Three properties are engineered here:
    ///
    /// * the warm-up keeps the history *older* than the source
    ///   low-entropy, so an unfiltered geometric-history predictor whose
    ///   table length exceeds `distance` (and swallows part of the
    ///   warm-up) can still learn the first consumer;
    /// * the inter-consumer `gap` exceeds a short unfiltered history but
    ///   not a long one, so a consumer cannot be inferred from its
    ///   neighbour without either deep unfiltered reach or filtering --
    ///   without the gap, every consumer after the first would be
    ///   trivially predictable from the branch two records earlier;
    /// * the gap filler has the same class as the main filler, so the
    ///   mechanism needed to reach *through* it (bias filtering alone, or
    ///   the recency stack) matches the scene's intent.
    #[allow(clippy::too_many_arguments)]
    pub fn add_deep_block(
        &mut self,
        distance: usize,
        filler: Filler,
        consumers: usize,
        noise: f64,
        warmup: usize,
        gap: usize,
        weight: u32,
    ) {
        let pool = match filler {
            Filler::DistinctBiased | Filler::CallWithBiased => self.new_bias_pool(40),
            _ => Vec::new(),
        };
        let mut steps = Vec::new();
        if warmup > 0 {
            self.push_filler(filler, warmup, &pool, &mut steps);
        }
        let src = self.add_branch(BehaviorModel::SlowBernoulli { p_flip: 0.35 });
        steps.push(Step::Cond(src));
        if let Filler::CallWithBiased = filler {
            let site = self.alloc_fn_pc();
            let entry = self.alloc_fn_pc();
            steps.push(Step::Call {
                pc: site,
                target: entry,
            });
            self.push_filler(filler, distance, &pool, &mut steps);
            steps.push(Step::Return {
                pc: entry + 0x80,
                target: site + 4,
            });
        } else {
            self.push_filler(filler, distance, &pool, &mut steps);
        }
        for c in 0..consumers.max(1) {
            if c > 0 && gap > 0 {
                self.push_filler(filler, gap, &pool, &mut steps);
            }
            let invert = self.rng_bool();
            let consumer =
                self.add_branch(BehaviorModel::CorrelatedLastOutcome { src, invert, noise });
            steps.push(Step::Cond(consumer));
        }
        self.add_scene(weight, steps);
    }

    /// Adds a loop whose body branches follow local (self-history)
    /// patterns of the given `period`. Because the instances are adjacent
    /// in the raw global history, an *unfiltered* history of roughly
    /// `2 × period × (n_branches + 1)` bits predicts them — while any
    /// recency-stack-managed history collapses each branch to a single
    /// entry and loses the pattern. This is the §VI-D failure mode of
    /// BF-TAGE on SPEC07/FP2.
    pub fn add_local_pattern_loop(
        &mut self,
        period: usize,
        n_branches: usize,
        sweeps: u32,
        weight: u32,
    ) {
        let period = period.max(2);
        let trip = (period as u32) * sweeps.max(1);
        let header = self.add_backward_branch(BehaviorModel::Loop { trip: trip + 1 });
        let body: Vec<Step> = (0..n_branches.max(1))
            .map(|_| {
                let mut pattern: Vec<bool> = (0..period).map(|_| self.rng.chance(0.5)).collect();
                if pattern.iter().all(|&x| x) {
                    pattern[0] = false;
                }
                if pattern.iter().all(|&x| !x) {
                    pattern[0] = true;
                }
                Step::Cond(self.add_branch(BehaviorModel::LocalPattern { pattern }))
            })
            .collect();
        self.add_scene(
            weight,
            vec![Step::Loop {
                header,
                body,
                max_iters: trip + 2,
            }],
        );
    }

    /// Adds a loop kernel with a constant trip count and a small body of
    /// biased branches — the loop-count predictor's target class.
    pub fn add_loop_kernel(&mut self, trip: u32, body_biased: usize, weight: u32) {
        let header = self.add_backward_branch(BehaviorModel::Loop { trip: trip.max(2) });
        let body: Vec<Step> = (0..body_biased)
            .map(|_| {
                let model = self.random_bias();
                Step::Cond(self.add_branch(model))
            })
            .collect();
        self.add_scene(
            weight,
            vec![Step::Loop {
                header,
                body,
                max_iters: trip.max(2) + 1,
            }],
        );
    }

    /// Adds a pool of `n` branches that are biased within a phase but flip
    /// direction every `period` dynamic branches — stressing dynamic bias
    /// detection exactly as the paper's SERVER traces do (§VI-D).
    pub fn add_phase_pool(&mut self, n: usize, period: u64, weight: u32) {
        let steps: Vec<Step> = (0..n)
            .map(|_| {
                let base = if self.rng_bool() {
                    Direction::Taken
                } else {
                    Direction::NotTaken
                };
                let jitter = self.rng.below(period.max(2) / 2 + 1);
                Step::Cond(self.add_branch(BehaviorModel::PhaseFlip {
                    period: period + jitter,
                    base,
                }))
            })
            .collect();
        self.add_scene(weight, steps);
    }

    /// Adds the Figure 4 positional-history pattern: a guard branch, then
    /// a loop of `modulus` iterations whose probe is taken only at one hot
    /// iteration and only when the guard was taken.
    pub fn add_positional_loop(&mut self, modulus: u32, weight: u32) {
        let modulus = modulus.max(3);
        let guard = self.add_branch(BehaviorModel::SlowBernoulli { p_flip: 0.3 });
        // Header runs the body exactly `modulus` times so the probe's
        // occurrence counter stays phase-aligned with the sweep.
        let header = self.add_backward_branch(BehaviorModel::Loop { trip: modulus + 1 });
        let hot = self.rng.below(u64::from(modulus)) as u32;
        let probe = self.add_branch(BehaviorModel::PositionalProbe {
            guard,
            modulus,
            hot,
        });
        self.add_scene(
            weight,
            vec![
                Step::Cond(guard),
                Step::Loop {
                    header,
                    body: vec![Step::Cond(probe)],
                    max_iters: modulus + 2,
                },
            ],
        );
    }

    /// Number of static branches added so far.
    pub fn branch_count(&self) -> usize {
        self.branches.len()
    }

    /// Finalizes the program.
    ///
    /// # Panics
    ///
    /// Panics if the builder produced an invalid program (an internal
    /// bug — the `add_*` methods maintain validity) or if no scene was
    /// added.
    pub fn build(self) -> Program {
        Program::new(self.branches, self.scenes).expect("builder produced invalid program")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::BranchKind;
    use crate::stats::BiasProfile;

    #[test]
    fn bias_run_produces_biased_branches() {
        let mut b = ProgramBuilder::new(1);
        b.add_bias_run(30, 1);
        let trace = b.build().emit("t", 5000, 9);
        let profile = BiasProfile::measure(&trace);
        assert_eq!(profile.static_biased_percent(), 100.0);
    }

    #[test]
    fn noise_run_is_non_biased() {
        let mut b = ProgramBuilder::new(1);
        b.add_noise_run(10, (0.4, 0.6), 1);
        let trace = b.build().emit("t", 5000, 9);
        let profile = BiasProfile::measure(&trace);
        assert_eq!(profile.static_biased(), 0);
    }

    #[test]
    fn deep_correlation_distance_is_respected() {
        let mut b = ProgramBuilder::new(1);
        b.add_deep_correlation(200, Filler::DistinctBiased, 0.0, 1);
        let program = b.build();
        let trace = program.emit("t", 1005, 5);
        // Scene layout: 40-branch bias pool cycled for 200 records after
        // the source; the consumer follows at offset 201.
        let records = trace.records();
        let play_len = 202;
        let src_pc = records[0].pc;
        let cons_pc = records[201].pc;
        assert_ne!(src_pc, cons_pc);
        // Filler reuses the pool: records 1 and 41 are the same branch.
        assert_eq!(records[1].pc, records[41].pc);
        // Consumer tracks source exactly (noise 0): inverted or not,
        // consistently.
        let mut i = 0;
        let first_agrees = records[201].taken == records[0].taken;
        while i + play_len <= records.len() {
            assert_eq!(records[i].pc, src_pc);
            assert_eq!(records[i + 201].pc, cons_pc);
            assert_eq!(records[i + 201].taken == records[i].taken, first_agrees);
            i += play_len;
        }
    }

    #[test]
    fn looped_filler_has_small_static_footprint() {
        let mut b = ProgramBuilder::new(1);
        let before = b.branch_count();
        b.add_deep_correlation(800, Filler::LoopedNonBiased, 0.0, 1);
        // src + header + 3 body + consumer = 6 static branches.
        assert_eq!(b.branch_count() - before, 6);
        // And the dynamic gap is ~800.
        let trace = b.build().emit("t", 2000, 3);
        let records = trace.records();
        let consumer_pc = records.iter().map(|r| r.pc).max().unwrap();
        let first_consumer = records.iter().position(|r| r.pc == consumer_pc).unwrap();
        assert!(
            (600..=1100).contains(&first_consumer),
            "consumer at {first_consumer}"
        );
    }

    #[test]
    fn call_filler_emits_call_and_return() {
        let mut b = ProgramBuilder::new(1);
        b.add_deep_correlation(50, Filler::CallWithBiased, 0.0, 1);
        let trace = b.build().emit("t", 200, 3);
        assert!(trace.iter().any(|r| r.kind == BranchKind::Call));
        assert!(trace.iter().any(|r| r.kind == BranchKind::Return));
    }

    #[test]
    fn loop_kernel_trip_count_is_constant() {
        let mut b = ProgramBuilder::new(1);
        b.add_loop_kernel(7, 2, 1);
        let trace = b.build().emit("t", 3000, 3);
        let header_pc = trace.records()[0].pc;
        let outcomes: Vec<bool> = trace
            .iter()
            .filter(|r| r.pc == header_pc)
            .map(|r| r.taken)
            .collect();
        for chunk in outcomes.chunks_exact(7) {
            assert_eq!(chunk.iter().filter(|&&t| t).count(), 6);
            assert!(!chunk[6]);
        }
    }

    #[test]
    fn phase_pool_flips_over_time() {
        let mut b = ProgramBuilder::new(3);
        b.add_phase_pool(4, 500, 1);
        let trace = b.build().emit("t", 20_000, 3);
        let profile = BiasProfile::measure(&trace);
        // Phase branches flip, so none is completely biased over the run.
        assert_eq!(profile.static_biased(), 0);
    }

    #[test]
    fn positional_probe_stays_aligned() {
        let mut b = ProgramBuilder::new(3);
        b.add_positional_loop(8, 1);
        let program = b.build();
        let trace = program.emit("t", 5000, 3);
        // Per scene: guard + (8 body probes + 9 header evals) = 18 records.
        // Probe takenness must depend only on guard: count probe-taken per
        // sweep is exactly 1 when guard taken, 0 otherwise.
        let records = trace.records();
        let probe_pc = records.iter().take(18).map(|r| r.pc).max().unwrap();
        let mut i = 0;
        while i + 18 <= records.len() {
            let guard_taken = records[i].taken;
            let fires = records[i..i + 18]
                .iter()
                .filter(|r| r.pc == probe_pc && r.taken)
                .count();
            assert_eq!(fires, usize::from(guard_taken));
            i += 18;
        }
    }

    #[test]
    fn builder_is_deterministic_per_seed() {
        let build = |seed| {
            let mut b = ProgramBuilder::new(seed);
            b.add_bias_run(5, 1);
            b.add_near_correlation(3, 0.01, 2);
            b.build().emit("t", 1000, 11)
        };
        assert_eq!(build(5), build(5));
        assert_ne!(build(5), build(6));
    }

    #[test]
    #[should_panic(expected = "invalid program")]
    fn build_without_scenes_panics() {
        ProgramBuilder::new(0).build();
    }

    #[test]
    fn deep_block_emits_expected_consumer_count() {
        let mut b = ProgramBuilder::new(4);
        b.add_deep_block(100, Filler::DeterministicLoop, 8, 0.0, 50, 0, 1);
        let program = b.build();
        let trace = program.emit("t", 2000, 1);
        // Consumers + separators: 16 records at the tail of each play.
        // Count distinct pcs that appear and verify the consumers follow
        // their source exactly (noise = 0).
        let profile = BiasProfile::measure(&trace);
        // src + 3 loop bodies per loop are non-biased; consumers non-biased
        // unless the random source never flipped.
        assert!(profile.static_conditionals() > 10);
    }

    #[test]
    fn deep_block_deterministic_loop_footprint_is_small() {
        let mut b = ProgramBuilder::new(4);
        let before = b.branch_count();
        b.add_deep_block(1000, Filler::DeterministicLoop, 4, 0.0, 400, 0, 1);
        // 2 loops (warmup + filler) of 4 statics each, src, 4 consumers.
        assert_eq!(b.branch_count() - before, 13);
    }

    #[test]
    fn local_pattern_loop_is_periodic_within_loop() {
        let mut b = ProgramBuilder::new(9);
        b.add_local_pattern_loop(6, 2, 4, 1);
        let program = b.build();
        let trace = program.emit("t", 2000, 2);
        // First record is the loop header; body branches follow.
        let records = trace.records();
        let body_pc = records[1].pc;
        let outs: Vec<bool> = trace
            .iter()
            .filter(|r| r.pc == body_pc)
            .map(|r| r.taken)
            .collect();
        for i in 6..outs.len() {
            assert_eq!(outs[i], outs[i - 6]);
        }
    }

    #[test]
    fn deep_block_consumers_track_source() {
        let mut b = ProgramBuilder::new(12);
        b.add_deep_block(60, Filler::DistinctBiased, 3, 0.0, 0, 10, 1);
        let program = b.build();
        let trace = program.emit("t", 4000, 6);
        let records = trace.records();
        // Scene: src, 60 filler, c0, 10 gap, c1, 10 gap, c2 -> 84 records
        // per play.
        let play_len = 84;
        let src_pc = records[0].pc;
        let consumer_offsets = [61usize, 72, 83];
        let consumer_pcs: Vec<u64> = consumer_offsets.iter().map(|&o| records[o].pc).collect();
        // Consumers are fresh static branches: distinct from each other.
        assert_eq!(
            consumer_pcs
                .iter()
                .collect::<std::collections::HashSet<_>>()
                .len(),
            3
        );
        let mut i = 0;
        while i + play_len <= records.len() {
            let src_out = records[i].taken;
            assert_eq!(records[i].pc, src_pc);
            for (k, (&off, &cpc)) in consumer_offsets.iter().zip(&consumer_pcs).enumerate() {
                let r = records[i + off];
                assert_eq!(r.pc, cpc);
                // Either always equal or always inverted relative to src;
                // check consistency against the first play.
                let first = records[consumer_offsets[k]].taken == records[0].taken;
                assert_eq!(r.taken == src_out, first);
            }
            i += play_len;
        }
    }

    #[test]
    fn deep_block_gap_separates_consumers() {
        let mut b = ProgramBuilder::new(5);
        b.add_deep_block(30, Filler::DistinctBiased, 4, 0.0, 20, 50, 1);
        let program = b.build();
        let trace = program.emit("t", 1000, 2);
        // Play: 20 warmup + src + 30 filler + c0 + 3 x (50 gap + c)
        // = 205 records; consumers at offsets 51, 102, 153, 204.
        let records = trace.records();
        let c0 = records[51].pc;
        let c1 = records[102].pc;
        assert_ne!(c0, c1);
        // The second play repeats the same structure.
        assert_eq!(records[205 + 51].pc, c0);
        assert_eq!(records[205 + 102].pc, c1);
    }
}
