//! Deterministic fault injection for the sweep engine.
//!
//! A [`FaultPlan`] names, per job index, a failure to inject: a panic, an
//! artificial delay (for exercising the watchdog timeout), a
//! [`TraceFormatError`](bfbp_trace::TraceFormatError)-class trace-load
//! failure (manufactured with
//! [`bfbp_trace::format::corrupt`] so the real parse path runs), or an
//! outright skip. Plans are **data**: they are comparable, cloneable,
//! parseable from a CLI string, and — when seeded — expand to the same
//! job set on every run, so every degradation path in the engine can be
//! pinned by a test.
//!
//! ```
//! use bfbp_sim::fault::{Fault, FaultPlan};
//!
//! let plan = FaultPlan::parse("panic@1,delay@2=50,io@3=checksum").unwrap();
//! let faults = plan.materialized(6);
//! assert!(matches!(faults.get(&1), Some(Fault::Panic { .. })));
//! assert!(matches!(faults.get(&2), Some(Fault::Delay { millis: 50 })));
//! assert_eq!(faults.len(), 3);
//! ```

use std::collections::BTreeMap;
use std::fmt;

use bfbp_trace::format::corrupt::CorruptKind;
use bfbp_trace::rng::Xoshiro256;

/// One injected failure, attached to a single job of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Panic inside the job (caught by the engine's isolation layer).
    /// The panic fires on attempts `1..=first_attempts`, so a plan with
    /// `first_attempts < u32::MAX` models a *transient* fault that a
    /// retry survives.
    Panic {
        /// How many leading attempts panic (`u32::MAX` = every attempt).
        first_attempts: u32,
    },
    /// Sleeps for `millis` before simulating, on every attempt — the
    /// lever for driving a job into its wall-clock timeout.
    Delay {
        /// Injected delay per attempt, in milliseconds.
        millis: u64,
    },
    /// Fails the job's trace load with a genuine parse error: a healthy
    /// probe trace is serialized, corrupted per `kind`, and re-read, so
    /// the reported error is a real `TraceFormatError` rendering.
    TraceError {
        /// Which corruption (and thus which error variant) to provoke.
        kind: CorruptKind,
    },
    /// The job is never attempted and reports status `skipped`.
    Skip,
    /// Kills the simulation at the first chunk boundary at or after
    /// `record` processed records, mimicking a SIGKILL mid-job: the job
    /// reports status `killed`, is never retried, and writes no terminal
    /// journal entry — a resumed sweep re-runs it from its last mid-job
    /// checkpoint (if any) exactly like a genuinely crashed process.
    Kill {
        /// Record boundary at which the simulated process death fires.
        record: u64,
    },
}

/// Seeded random fault placement: each job draws independently.
#[derive(Debug, Clone, PartialEq)]
struct RandomFaults {
    seed: u64,
    rate: f64,
}

/// A per-job fault assignment for one sweep.
///
/// Explicit placements ([`FaultPlan::panic_at`] etc.) always win over
/// the seeded random layer ([`FaultPlan::with_random`]); the random
/// layer draws per job from the in-tree xoshiro256** stream, so a given
/// `(seed, rate, n_jobs)` triple yields the same faults forever.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    faults: BTreeMap<usize, Fault>,
    random: Option<RandomFaults>,
}

/// Why a `--fault-plan` string could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlanParseError {
    /// Human-readable reason, naming the offending entry.
    pub reason: String,
}

impl fmt::Display for FaultPlanParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault plan: {}", self.reason)
    }
}

impl std::error::Error for FaultPlanParseError {}

fn parse_err(reason: impl Into<String>) -> FaultPlanParseError {
    FaultPlanParseError {
        reason: reason.into(),
    }
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty() && self.random.is_none()
    }

    /// Injects a panic on every attempt of `job`.
    pub fn panic_at(self, job: usize) -> Self {
        self.flaky_panic_at(job, u32::MAX)
    }

    /// Injects a panic on the first `attempts` attempts of `job`; with a
    /// retry budget larger than `attempts`, the job eventually succeeds.
    pub fn flaky_panic_at(mut self, job: usize, attempts: u32) -> Self {
        self.faults.insert(
            job,
            Fault::Panic {
                first_attempts: attempts,
            },
        );
        self
    }

    /// Injects a `millis` delay into every attempt of `job`.
    pub fn delay_at(mut self, job: usize, millis: u64) -> Self {
        self.faults.insert(job, Fault::Delay { millis });
        self
    }

    /// Fails `job` with the trace-format error provoked by `kind`.
    pub fn trace_error_at(mut self, job: usize, kind: CorruptKind) -> Self {
        self.faults.insert(job, Fault::TraceError { kind });
        self
    }

    /// Marks `job` as skipped (never attempted).
    pub fn skip_at(mut self, job: usize) -> Self {
        self.faults.insert(job, Fault::Skip);
        self
    }

    /// Kills `job` (simulated SIGKILL) once `record` records have been
    /// processed.
    pub fn kill_at(mut self, job: usize, record: u64) -> Self {
        self.faults.insert(job, Fault::Kill { record });
        self
    }

    /// Adds a seeded random layer: each job is independently faulted
    /// with probability `rate` (clamped to `[0, 1]`), the kind drawn
    /// uniformly from panic / 25 ms delay / checksum trace error.
    pub fn with_random(mut self, seed: u64, rate: f64) -> Self {
        self.random = Some(RandomFaults {
            seed,
            rate: rate.clamp(0.0, 1.0),
        });
        self
    }

    /// Expands the plan against a concrete matrix size: the seeded
    /// random layer is drawn for jobs `0..n_jobs`, then explicit
    /// placements are overlaid (explicit wins). Deterministic in
    /// `(plan, n_jobs)`.
    pub fn materialized(&self, n_jobs: usize) -> BTreeMap<usize, Fault> {
        let mut out = BTreeMap::new();
        if let Some(random) = &self.random {
            let mut rng = Xoshiro256::seed_from_u64(random.seed);
            for job in 0..n_jobs {
                // 53-bit draw → uniform in [0, 1).
                let draw = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                let kind = rng.next_u64() % 3;
                if draw < random.rate {
                    let fault = match kind {
                        0 => Fault::Panic {
                            first_attempts: u32::MAX,
                        },
                        1 => Fault::Delay { millis: 25 },
                        _ => Fault::TraceError {
                            kind: CorruptKind::ChecksumMismatch,
                        },
                    };
                    out.insert(job, fault);
                }
            }
        }
        for (job, fault) in &self.faults {
            out.insert(*job, fault.clone());
        }
        out
    }

    /// Parses the CLI form: comma-separated entries
    ///
    /// * `panic@JOB` / `panic@JOB=N` — panic (first `N` attempts only),
    /// * `delay@JOB=MS` — injected delay,
    /// * `io@JOB` / `io@JOB=KIND` — trace-format failure (`KIND` one of
    ///   `bad-magic`, `bad-version`, `bad-varint`, `checksum`, `count`,
    ///   `bad-kind`, `bad-name`, `huge-name`; default `checksum`),
    /// * `skip@JOB` — never attempt the job,
    /// * `kill@JOB=RECORD` — simulated SIGKILL after `RECORD` records,
    /// * `random@SEED=RATE` — seeded random layer.
    ///
    /// # Errors
    ///
    /// Returns an error naming the first malformed entry.
    pub fn parse(text: &str) -> Result<Self, FaultPlanParseError> {
        let mut plan = FaultPlan::new();
        for entry in text.split(',').filter(|e| !e.is_empty()) {
            let (kind, rest) = entry
                .split_once('@')
                .ok_or_else(|| parse_err(format!("{entry:?} is not KIND@JOB[=ARG]")))?;
            let (target, arg) = match rest.split_once('=') {
                Some((t, a)) => (t, Some(a)),
                None => (rest, None),
            };
            let index = |what: &str| {
                target
                    .parse::<usize>()
                    .map_err(|_| parse_err(format!("{what} in {entry:?} needs a job index")))
            };
            plan = match kind {
                "panic" => {
                    let attempts = match arg {
                        None => u32::MAX,
                        Some(a) => a.parse::<u32>().map_err(|_| {
                            parse_err(format!("panic attempt count in {entry:?} must be a u32"))
                        })?,
                    };
                    plan.flaky_panic_at(index("panic")?, attempts)
                }
                "delay" => {
                    let millis = arg
                        .and_then(|a| a.parse::<u64>().ok())
                        .ok_or_else(|| parse_err(format!("{entry:?} needs =MILLIS")))?;
                    plan.delay_at(index("delay")?, millis)
                }
                "io" => {
                    let kind = match arg {
                        None => CorruptKind::ChecksumMismatch,
                        Some(a) => CorruptKind::parse(a).ok_or_else(|| {
                            parse_err(format!("unknown corruption kind {a:?} in {entry:?}"))
                        })?,
                    };
                    plan.trace_error_at(index("io")?, kind)
                }
                "skip" => plan.skip_at(index("skip")?),
                "kill" => {
                    let record = arg
                        .and_then(|a| a.parse::<u64>().ok())
                        .ok_or_else(|| parse_err(format!("{entry:?} needs =RECORD")))?;
                    plan.kill_at(index("kill")?, record)
                }
                "random" => {
                    let seed = target.parse::<u64>().map_err(|_| {
                        parse_err(format!("random seed in {entry:?} must be a u64"))
                    })?;
                    let rate = arg.and_then(|a| a.parse::<f64>().ok()).ok_or_else(|| {
                        parse_err(format!("{entry:?} needs =RATE (a probability)"))
                    })?;
                    plan.with_random(seed, rate)
                }
                other => return Err(parse_err(format!("unknown fault kind {other:?}"))),
            };
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_covers_every_kind() {
        let plan = FaultPlan::parse(
            "panic@0,panic@1=2,delay@2=100,io@3,io@4=bad-magic,skip@5,kill@6=5000",
        )
        .unwrap();
        let faults = plan.materialized(8);
        assert_eq!(
            faults.get(&0),
            Some(&Fault::Panic {
                first_attempts: u32::MAX
            })
        );
        assert_eq!(faults.get(&1), Some(&Fault::Panic { first_attempts: 2 }));
        assert_eq!(faults.get(&2), Some(&Fault::Delay { millis: 100 }));
        assert_eq!(
            faults.get(&3),
            Some(&Fault::TraceError {
                kind: CorruptKind::ChecksumMismatch
            })
        );
        assert_eq!(
            faults.get(&4),
            Some(&Fault::TraceError {
                kind: CorruptKind::BadMagic
            })
        );
        assert_eq!(faults.get(&5), Some(&Fault::Skip));
        assert_eq!(faults.get(&6), Some(&Fault::Kill { record: 5000 }));
        assert_eq!(faults.get(&7), None);
    }

    #[test]
    fn parse_rejects_malformed_entries() {
        for bad in [
            "panic",
            "panic@x",
            "delay@1",
            "delay@1=fast",
            "io@1=meteor",
            "kill@1",
            "kill@1=soon",
            "random@1",
            "warp@1",
        ] {
            let err = FaultPlan::parse(bad).expect_err(bad);
            assert!(!err.to_string().is_empty(), "{bad}");
        }
    }

    #[test]
    fn seeded_random_layer_is_deterministic_and_rate_bound() {
        let a = FaultPlan::new().with_random(42, 0.3).materialized(1000);
        let b = FaultPlan::parse("random@42=0.3")
            .unwrap()
            .materialized(1000);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        // Statistically ~300; generous bounds keep this robust.
        assert!(a.len() > 150 && a.len() < 450, "{}", a.len());
        // Rate 0 / empty plan inject nothing.
        assert!(FaultPlan::new()
            .with_random(7, 0.0)
            .materialized(100)
            .is_empty());
        assert!(FaultPlan::new().materialized(100).is_empty());
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    fn explicit_placement_overrides_random_layer() {
        let plan = FaultPlan::new().with_random(42, 1.0).skip_at(3);
        let faults = plan.materialized(5);
        assert_eq!(faults.len(), 5);
        assert_eq!(faults.get(&3), Some(&Fault::Skip));
    }
}
