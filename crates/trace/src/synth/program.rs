//! Synthetic programs: static branches plus an emission schedule.
//!
//! A [`Program`] is a set of static branches (each with a
//! [`BehaviorModel`]) and a set of weighted [`Scene`]s. Emission picks
//! scenes pseudo-randomly (by weight) and plays their steps, producing a
//! deterministic [`Trace`] for a given seed. Scenes are the unit of
//! *distance control*: a scene that emits a correlation source, then `N`
//! dynamic filler branches, then the correlated consumer guarantees the
//! source sits `N` branches deep in the consumer's global history.

use std::error::Error;
use std::fmt;

use crate::record::{BranchKind, BranchRecord, Trace};
use crate::rng::{SplitMix64, Xoshiro256};
use crate::synth::behavior::{BehaviorModel, BranchId, EvalState};

/// A static conditional branch in a synthetic program.
#[derive(Debug, Clone, PartialEq)]
pub struct StaticBranch {
    pc: u64,
    behavior: BehaviorModel,
    backward: bool,
}

impl StaticBranch {
    /// Creates a static branch at the given address.
    pub fn new(pc: u64, behavior: BehaviorModel) -> Self {
        Self {
            pc,
            behavior,
            backward: false,
        }
    }

    /// Marks the branch as a backward branch (loop back-edge); its taken
    /// target lies before its own address, as real loop branches do.
    pub fn backward(mut self) -> Self {
        self.backward = true;
        self
    }

    /// The branch's address.
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// The branch's behaviour model.
    pub fn behavior(&self) -> &BehaviorModel {
        &self.behavior
    }

    fn taken_target(&self) -> u64 {
        if self.backward {
            self.pc.saturating_sub(0x40)
        } else {
            self.pc + 0x40
        }
    }
}

/// One step of a scene.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Emit one execution of a conditional branch.
    Cond(BranchId),
    /// Run a loop: emit the header; while it resolves taken, play the body
    /// and emit the header again. The header's behaviour model decides the
    /// trip count.
    Loop {
        /// The loop back-edge branch.
        header: BranchId,
        /// Steps executed each iteration.
        body: Vec<Step>,
        /// Hard iteration cap guarding against always-taken headers.
        max_iters: u32,
    },
    /// Emit a direct call record.
    Call {
        /// Call-site address.
        pc: u64,
        /// Callee entry address.
        target: u64,
    },
    /// Emit a return record.
    Return {
        /// Return-instruction address.
        pc: u64,
        /// Return target (call site + 4).
        target: u64,
    },
    /// Emit an unconditional direct jump record.
    Jump {
        /// Jump address.
        pc: u64,
        /// Jump target.
        target: u64,
    },
}

/// A weighted sequence of steps.
#[derive(Debug, Clone, PartialEq)]
pub struct Scene {
    steps: Vec<Step>,
    weight: u32,
}

impl Scene {
    /// Creates a scene with the given selection weight (must be nonzero to
    /// ever be played).
    pub fn new(steps: Vec<Step>, weight: u32) -> Self {
        Self { steps, weight }
    }

    /// The scene's steps.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// The scene's selection weight.
    pub fn weight(&self) -> u32 {
        self.weight
    }
}

/// Validation errors for [`Program::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// A behaviour referenced a branch id that does not exist.
    DanglingBranchRef {
        /// The referencing branch.
        branch: usize,
        /// The missing reference.
        referenced: usize,
    },
    /// A scene step referenced a branch id that does not exist.
    DanglingStepRef(usize),
    /// A `Loop` behaviour had a zero trip count.
    ZeroTrip(usize),
    /// A `LocalPattern` behaviour had an empty pattern.
    EmptyPattern(usize),
    /// A `PhaseFlip` behaviour had a zero period.
    ZeroPeriod(usize),
    /// The program has no scenes with nonzero weight.
    NoScenes,
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::DanglingBranchRef { branch, referenced } => {
                write!(f, "branch {branch} references missing branch {referenced}")
            }
            ProgramError::DanglingStepRef(id) => {
                write!(f, "scene step references missing branch {id}")
            }
            ProgramError::ZeroTrip(id) => write!(f, "branch {id} has zero loop trip"),
            ProgramError::EmptyPattern(id) => write!(f, "branch {id} has empty local pattern"),
            ProgramError::ZeroPeriod(id) => write!(f, "branch {id} has zero phase period"),
            ProgramError::NoScenes => write!(f, "program has no playable scenes"),
        }
    }
}

impl Error for ProgramError {}

/// A validated synthetic program.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    branches: Vec<StaticBranch>,
    scenes: Vec<Scene>,
    total_weight: u64,
}

impl Program {
    /// Builds and validates a program.
    ///
    /// # Errors
    ///
    /// Returns a [`ProgramError`] if any behaviour references a missing
    /// branch, a loop trip is zero, a local pattern is empty, a phase
    /// period is zero, or no scene has nonzero weight.
    pub fn new(branches: Vec<StaticBranch>, scenes: Vec<Scene>) -> Result<Self, ProgramError> {
        let n = branches.len();
        for (i, b) in branches.iter().enumerate() {
            if let Some(src) = b.behavior.max_src() {
                if src.index() >= n {
                    return Err(ProgramError::DanglingBranchRef {
                        branch: i,
                        referenced: src.index(),
                    });
                }
            }
            match b.behavior() {
                BehaviorModel::Loop { trip } if *trip == 0 => {
                    return Err(ProgramError::ZeroTrip(i))
                }
                BehaviorModel::LocalPattern { pattern } if pattern.is_empty() => {
                    return Err(ProgramError::EmptyPattern(i))
                }
                BehaviorModel::PhaseFlip { period, .. } if *period == 0 => {
                    return Err(ProgramError::ZeroPeriod(i))
                }
                _ => {}
            }
        }
        fn check_steps(steps: &[Step], n: usize) -> Result<(), ProgramError> {
            for step in steps {
                match step {
                    Step::Cond(id) if id.index() >= n => {
                        return Err(ProgramError::DanglingStepRef(id.index()))
                    }
                    Step::Loop { header, body, .. } => {
                        if header.index() >= n {
                            return Err(ProgramError::DanglingStepRef(header.index()));
                        }
                        check_steps(body, n)?;
                    }
                    _ => {}
                }
            }
            Ok(())
        }
        for scene in &scenes {
            check_steps(scene.steps(), n)?;
        }
        let total_weight: u64 = scenes.iter().map(|s| u64::from(s.weight)).sum();
        if total_weight == 0 {
            return Err(ProgramError::NoScenes);
        }
        Ok(Self {
            branches,
            scenes,
            total_weight,
        })
    }

    /// The program's static branches.
    pub fn branches(&self) -> &[StaticBranch] {
        &self.branches
    }

    /// The program's scenes.
    pub fn scenes(&self) -> &[Scene] {
        &self.scenes
    }

    /// Creates an infinite record stream for this program.
    pub fn stream(&self, seed: u64) -> ProgramStream<'_> {
        ProgramStream {
            program: self,
            state: StreamState::new(self, seed),
        }
    }

    /// Emits a trace of exactly `n_records` branch records.
    pub fn emit(&self, name: impl Into<String>, n_records: usize, seed: u64) -> Trace {
        let records: Vec<BranchRecord> = self.stream(seed).take(n_records).collect();
        Trace::new(name, records)
    }
}

/// Deterministic per-address non-branch instruction gap in `[2, 8]`.
fn inst_gap(pc: u64) -> u32 {
    (SplitMix64::new(pc).next_u64() % 7) as u32 + 2
}

/// Infinite iterator over a program's branch records.
///
/// Created by [`Program::stream`]. Scenes are selected by weight with a
/// deterministic PRNG, so equal seeds produce identical streams.
#[derive(Debug, Clone)]
pub struct ProgramStream<'p> {
    program: &'p Program,
    state: StreamState,
}

/// Iteration state of a [`ProgramStream`], apart from the program it
/// borrows.
///
/// Every `next_record` call must pass the same program the state was
/// created for; mixing programs produces nonsense (and may panic on
/// out-of-range branch ids).
#[derive(Debug, Clone)]
struct StreamState {
    state: EvalState,
    rng: Xoshiro256,
    buffer: Vec<BranchRecord>,
    cursor: usize,
    last_scene: Option<usize>,
    burst_left: u32,
}

/// Probability (out of 256) that the next scene repeats the previous one
/// — real programs execute in phases, re-running the same region many
/// times before moving on. Burst length is capped by
/// [`SCENE_BURST_MAX`].
const SCENE_REPEAT_NUM: u64 = 232;
/// Maximum consecutive plays of one scene.
const SCENE_BURST_MAX: u32 = 16;

impl StreamState {
    /// Creates fresh iteration state for `program`, seeded like
    /// [`Program::stream`].
    fn new(program: &Program, seed: u64) -> Self {
        Self {
            state: EvalState::new(program.branches.len()),
            rng: Xoshiro256::seed_from_u64(seed),
            buffer: Vec::new(),
            cursor: 0,
            last_scene: None,
            burst_left: 0,
        }
    }

    /// Produces the next record of the (infinite) stream.
    fn next_record(&mut self, program: &Program) -> BranchRecord {
        while self.cursor >= self.buffer.len() {
            self.refill(program);
        }
        let record = self.buffer[self.cursor];
        self.cursor += 1;
        record
    }

    fn emit_cond(&mut self, program: &Program, id: BranchId, out: &mut Vec<BranchRecord>) {
        let branch = &program.branches[id.index()];
        let taken = branch.behavior.evaluate(id, &mut self.state, &mut self.rng);
        self.state.commit(id, taken);
        out.push(BranchRecord::cond(
            branch.pc,
            branch.taken_target(),
            taken,
            inst_gap(branch.pc),
        ));
    }

    fn play_steps(&mut self, program: &Program, steps: &[Step], out: &mut Vec<BranchRecord>) {
        for step in steps {
            match step {
                Step::Cond(id) => self.emit_cond(program, *id, out),
                Step::Loop {
                    header,
                    body,
                    max_iters,
                } => {
                    let mut iters = 0u32;
                    loop {
                        let branch = &program.branches[header.index()];
                        let taken =
                            branch
                                .behavior
                                .evaluate(*header, &mut self.state, &mut self.rng);
                        self.state.commit(*header, taken);
                        out.push(BranchRecord::cond(
                            branch.pc,
                            branch.taken_target(),
                            taken,
                            inst_gap(branch.pc),
                        ));
                        iters += 1;
                        if !taken || iters >= *max_iters {
                            break;
                        }
                        self.play_steps(program, body, out);
                    }
                }
                Step::Call { pc, target } => out.push(BranchRecord::uncond(
                    *pc,
                    *target,
                    BranchKind::Call,
                    inst_gap(*pc),
                )),
                Step::Return { pc, target } => out.push(BranchRecord::uncond(
                    *pc,
                    *target,
                    BranchKind::Return,
                    inst_gap(*pc),
                )),
                Step::Jump { pc, target } => out.push(BranchRecord::uncond(
                    *pc,
                    *target,
                    BranchKind::UncondDirect,
                    inst_gap(*pc),
                )),
            }
        }
    }

    fn refill(&mut self, program: &Program) {
        self.buffer.clear();
        self.cursor = 0;
        // Phase behaviour: repeat the previous scene with high
        // probability (bounded burst), else weighted scene selection.
        let scene_index = match self.last_scene {
            Some(prev) if self.burst_left > 0 && self.rng.below(256) < SCENE_REPEAT_NUM => {
                self.burst_left -= 1;
                prev
            }
            _ => {
                let mut pick = self.rng.below(program.total_weight);
                let chosen = program
                    .scenes
                    .iter()
                    .position(|s| {
                        if pick < u64::from(s.weight) {
                            true
                        } else {
                            pick -= u64::from(s.weight);
                            false
                        }
                    })
                    .expect("total_weight > 0 guarantees a pick");
                self.burst_left = SCENE_BURST_MAX - 1;
                chosen
            }
        };
        self.last_scene = Some(scene_index);
        let steps = program.scenes[scene_index].steps.clone();
        let mut out = std::mem::take(&mut self.buffer);
        self.play_steps(program, &steps, &mut out);
        self.buffer = out;
    }
}

impl Iterator for ProgramStream<'_> {
    type Item = BranchRecord;

    fn next(&mut self) -> Option<Self::Item> {
        Some(self.state.next_record(self.program))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::behavior::Direction;

    fn simple_program() -> Program {
        let branches = vec![
            StaticBranch::new(0x1000, BehaviorModel::Bias(Direction::Taken)),
            StaticBranch::new(0x2000, BehaviorModel::Loop { trip: 3 }).backward(),
            StaticBranch::new(0x3000, BehaviorModel::Bernoulli { p_taken: 0.5 }),
        ];
        let scenes = vec![Scene::new(
            vec![
                Step::Cond(BranchId::new(0)),
                Step::Loop {
                    header: BranchId::new(1),
                    body: vec![Step::Cond(BranchId::new(2))],
                    max_iters: 100,
                },
            ],
            1,
        )];
        Program::new(branches, scenes).unwrap()
    }

    #[test]
    fn detached_state_matches_borrowed_stream() {
        let p = simple_program();
        let mut state = StreamState::new(&p, 42);
        let borrowed: Vec<BranchRecord> = p.stream(42).take(300).collect();
        let detached: Vec<BranchRecord> = (0..300).map(|_| state.next_record(&p)).collect();
        assert_eq!(borrowed, detached);
    }

    #[test]
    fn emit_is_deterministic() {
        let p = simple_program();
        let a = p.emit("t", 500, 42);
        let b = p.emit("t", 500, 42);
        assert_eq!(a, b);
        let c = p.emit("t", 500, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn emit_produces_exact_count() {
        let p = simple_program();
        assert_eq!(p.emit("t", 123, 1).len(), 123);
        assert_eq!(p.emit("t", 0, 1).len(), 0);
    }

    #[test]
    fn loop_structure_appears() {
        let p = simple_program();
        let t = p.emit("t", 400, 7);
        // Loop header taken twice then not-taken once, repeatedly.
        let headers: Vec<bool> = t
            .iter()
            .filter(|r| r.pc == 0x2000)
            .map(|r| r.taken)
            .collect();
        assert!(headers.len() > 10);
        for chunk in headers.chunks_exact(3) {
            assert_eq!(chunk, &[true, true, false]);
        }
    }

    #[test]
    fn backward_branch_target_is_backward() {
        let p = simple_program();
        let t = p.emit("t", 100, 7);
        let header = t.iter().find(|r| r.pc == 0x2000).unwrap();
        assert!(header.target < header.pc);
        let fwd = t.iter().find(|r| r.pc == 0x1000).unwrap();
        assert!(fwd.target > fwd.pc);
    }

    #[test]
    fn call_and_return_records() {
        let branches = vec![StaticBranch::new(
            0x1000,
            BehaviorModel::Bias(Direction::Taken),
        )];
        let scenes = vec![Scene::new(
            vec![
                Step::Call {
                    pc: 0x500,
                    target: 0x9000,
                },
                Step::Cond(BranchId::new(0)),
                Step::Return {
                    pc: 0x9100,
                    target: 0x504,
                },
            ],
            1,
        )];
        let p = Program::new(branches, scenes).unwrap();
        let t = p.emit("t", 3, 0);
        assert_eq!(t.records()[0].kind, BranchKind::Call);
        assert_eq!(t.records()[1].kind, BranchKind::CondDirect);
        assert_eq!(t.records()[2].kind, BranchKind::Return);
    }

    #[test]
    fn max_iters_caps_runaway_loops() {
        let branches =
            vec![StaticBranch::new(0x1000, BehaviorModel::Bias(Direction::Taken)).backward()];
        let scenes = vec![Scene::new(
            vec![Step::Loop {
                header: BranchId::new(0),
                body: vec![],
                max_iters: 5,
            }],
            1,
        )];
        let p = Program::new(branches, scenes).unwrap();
        // Must terminate; each scene play emits exactly 5 header records.
        let t = p.emit("t", 12, 0);
        assert_eq!(t.len(), 12);
        assert!(t.iter().all(|r| r.pc == 0x1000 && r.taken));
    }

    #[test]
    fn validation_catches_dangling_behavior_ref() {
        let branches = vec![StaticBranch::new(
            0x10,
            BehaviorModel::CorrelatedLastOutcome {
                src: BranchId::new(5),
                invert: false,
                noise: 0.0,
            },
        )];
        let scenes = vec![Scene::new(vec![Step::Cond(BranchId::new(0))], 1)];
        assert_eq!(
            Program::new(branches, scenes),
            Err(ProgramError::DanglingBranchRef {
                branch: 0,
                referenced: 5
            })
        );
    }

    #[test]
    fn validation_catches_dangling_step_ref() {
        let scenes = vec![Scene::new(vec![Step::Cond(BranchId::new(3))], 1)];
        assert_eq!(
            Program::new(vec![], scenes),
            Err(ProgramError::DanglingStepRef(3))
        );
    }

    #[test]
    fn validation_catches_dangling_loop_body_ref() {
        let branches = vec![StaticBranch::new(0x10, BehaviorModel::Loop { trip: 2 })];
        let scenes = vec![Scene::new(
            vec![Step::Loop {
                header: BranchId::new(0),
                body: vec![Step::Cond(BranchId::new(9))],
                max_iters: 10,
            }],
            1,
        )];
        assert_eq!(
            Program::new(branches, scenes),
            Err(ProgramError::DanglingStepRef(9))
        );
    }

    #[test]
    fn validation_catches_zero_trip_and_empty_pattern() {
        let b1 = vec![StaticBranch::new(0x10, BehaviorModel::Loop { trip: 0 })];
        let s = vec![Scene::new(vec![Step::Cond(BranchId::new(0))], 1)];
        assert_eq!(Program::new(b1, s.clone()), Err(ProgramError::ZeroTrip(0)));

        let b2 = vec![StaticBranch::new(
            0x10,
            BehaviorModel::LocalPattern { pattern: vec![] },
        )];
        assert_eq!(
            Program::new(b2, s.clone()),
            Err(ProgramError::EmptyPattern(0))
        );

        let b3 = vec![StaticBranch::new(
            0x10,
            BehaviorModel::PhaseFlip {
                period: 0,
                base: Direction::Taken,
            },
        )];
        assert_eq!(Program::new(b3, s), Err(ProgramError::ZeroPeriod(0)));
    }

    #[test]
    fn validation_requires_scenes() {
        assert_eq!(Program::new(vec![], vec![]), Err(ProgramError::NoScenes));
        let zero_weight = vec![Scene::new(vec![], 0)];
        assert_eq!(
            Program::new(vec![], zero_weight),
            Err(ProgramError::NoScenes)
        );
    }

    #[test]
    fn inst_gap_in_range_and_deterministic() {
        for pc in [0u64, 1, 0x400_000, u64::MAX] {
            let g = inst_gap(pc);
            assert!((2..=8).contains(&g));
            assert_eq!(g, inst_gap(pc));
        }
    }

    #[test]
    fn error_display_nonempty() {
        let errors = [
            ProgramError::DanglingBranchRef {
                branch: 1,
                referenced: 2,
            },
            ProgramError::DanglingStepRef(3),
            ProgramError::ZeroTrip(0),
            ProgramError::EmptyPattern(0),
            ProgramError::ZeroPeriod(0),
            ProgramError::NoScenes,
        ];
        for e in errors {
            assert!(!format!("{e}").is_empty());
        }
    }
}
