//! The sweep checkpoint journal: completed-job records appended as each
//! job finishes, so an interrupted or partially-failed campaign can be
//! resumed without redoing finished work.
//!
//! The format, `bfbp-journal/3`, is JSON lines: a header, then one object
//! per finished job or mid-job checkpoint, each rendered by
//! [`crate::json::Object`] and appended in one write, and read back by
//! [`crate::json::parse_lines`]. Concurrent workers append whole lines
//! under a lock, and a crash mid-append tears at most the final line,
//! which the reader drops; every earlier line stays usable.
//!
//! ```text
//! {"schema": "bfbp-journal/3", "matrix": "8a1954a98475d090", "jobs": 80}
//! {"job": 0, "ckpt": {"records": 8192, "file": "ckpts/job-0.ckpt"}}
//! {"job": 0, "status": "ok", "attempts": 1, "wall_us": 8946, "trace": "SPEC00", "predictor": "gshare-16h", "cond": 3000, "misp": 191, "insts": 18439, "intervals": [[18439, 3000, 191]]}
//! {"job": 1, "status": "failed", "attempts": 3, "error": "panic: boom"}
//! {"job": 2, "status": "timed_out", "attempts": 1}
//! {"job": 3, "status": "killed", "attempts": 1}
//! {"job": 4, "status": "skipped", "attempts": 0}
//! ```
//!
//! The status keywords are [`JobStatus::name`]'s, and an `ok` line's
//! `intervals` are `[instructions, conditional branches, mispredictions]`
//! triples. The `matrix` field ([`matrix_id`]) fingerprints the (spec ×
//! trace × interval) matrix, trace lengths included. It is a string of 16
//! hex digits, not a number, because half of all ids exceed `i64::MAX`
//! and a JSON number that large does not survive
//! [`crate::json::JsonValue`] exactly. [`Journal::load`] refuses to
//! resume a journal recorded for a different matrix, because job indices
//! would silently point at different work, and a missing or torn header
//! is an error, never a dropped line. The last line per job wins, and
//! only `ok` records are restored on resume — failed, timed-out, killed,
//! and skipped jobs are re-run.
//!
//! A `ckpt` line references the latest mid-job `bfbp-ckpt/1` snapshot
//! file written for a still-running job (so an operator can see where a
//! crashed campaign would resume from), and `killed` records a
//! fault-injected simulated process death. The engine never writes
//! `killed` in practice — a killed job deliberately leaves **no**
//! terminal entry, exactly like a real SIGKILL — but the codec is total
//! over [`JobStatus`] so round-trips stay lossless.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use bfbp_trace::format::Fnv;

use crate::engine::{JobOutcome, JobRecord, JobStatus, SeriesInfo, TraceInput};
use crate::json::{array, parse_lines, JsonValue, Object};
use crate::simulate::{IntervalPoint, SimResult};

/// Journal format identifier (the header's `schema`).
pub const JOURNAL_SCHEMA: &str = "bfbp-journal/3";
/// Why a journal could not be written, read, or matched to a sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// Filesystem failure (message carries the rendered `io::Error`).
    Io {
        /// The journal path involved.
        path: PathBuf,
        /// Rendered underlying error.
        error: String,
    },
    /// A line did not parse.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Human-readable reason.
        reason: String,
    },
    /// The journal was recorded for a different matrix: other specs,
    /// other traces, or other trace lengths.
    MatrixMismatch {
        /// Fingerprint of the sweep being resumed.
        expected: u64,
        /// Fingerprint recorded in the journal header.
        found: u64,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { path, error } => {
                write!(f, "journal i/o error at {}: {error}", path.display())
            }
            JournalError::Parse { line, reason } => {
                write!(f, "journal parse error at line {line}: {reason}")
            }
            JournalError::MatrixMismatch { expected, found } => write!(
                f,
                "journal matrix mismatch: sweep is {expected:016x}, journal records {found:016x} \
                 — the journal belongs to a different matrix (specs, traces and trace lengths)"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

fn io_err(path: &Path, error: std::io::Error) -> JournalError {
    JournalError::Io {
        path: path.to_owned(),
        error: error.to_string(),
    }
}

/// Fingerprints a sweep's job matrix — the one identity of resumable
/// work: every series' label, predictor, and effective parameters, every
/// trace column's name and record count (so another trace scale is
/// another matrix), and the interval width. FNV-1a over a
/// length-prefixed field stream, so field boundaries are unambiguous.
pub fn matrix_id(series: &[SeriesInfo], inputs: &[TraceInput], interval_insts: u64) -> u64 {
    let mut hash = Fnv::new();
    for info in series {
        hash.field(info.label.as_bytes());
        hash.field(info.predictor.as_bytes());
        hash.field(info.params.summary().as_bytes());
    }
    for input in inputs {
        hash.field(input.name().as_bytes());
        hash.field(&input.n_records().to_le_bytes());
    }
    hash.field(&interval_insts.to_le_bytes());
    hash.finish()
}

/// Renders one finished job as a journal line.
fn entry_line(job: usize, outcome: &JobOutcome) -> Object {
    let line = Object::new()
        .member("job", job)
        .str("status", outcome.status.name())
        .member("attempts", outcome.attempts);
    match &outcome.status {
        JobStatus::Ok(record) => {
            let r = &record.result;
            let intervals = record
                .intervals
                .iter()
                .map(|iv| array([iv.instructions, iv.conditional_branches, iv.mispredictions]));
            line.member("wall_us", record.wall.as_micros())
                .str("trace", r.trace_name())
                .str("predictor", r.predictor_name())
                .member("cond", r.conditional_branches())
                .member("misp", r.mispredictions())
                .member("insts", r.instructions())
                .member("intervals", array(intervals))
        }
        JobStatus::Failed { error } => line.str("error", error),
        JobStatus::TimedOut | JobStatus::Killed | JobStatus::Skipped => line,
    }
}

/// One decoded journal line.
enum Line {
    /// The header's matrix id.
    Header(u64),
    Entry(usize, JobOutcome),
    Ckpt(usize, CkptRef),
}

fn u64_at(value: &JsonValue, key: &str) -> Result<u64, String> {
    value
        .get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("missing or malformed {key:?}"))
}

fn str_at<'a>(value: &'a JsonValue, key: &str) -> Result<&'a str, String> {
    value
        .get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("missing or malformed {key:?}"))
}

fn interval(item: &JsonValue) -> Option<IntervalPoint> {
    match item.as_arr()? {
        [instructions, conditional_branches, mispredictions] => Some(IntervalPoint {
            instructions: instructions.as_u64()?,
            conditional_branches: conditional_branches.as_u64()?,
            mispredictions: mispredictions.as_u64()?,
        }),
        _ => None,
    }
}

/// Decodes line `line` (1-based): the header on line 1, a job's entry or
/// `ckpt` reference after it.
fn decode_line(line: usize, value: JsonValue) -> Result<Line, String> {
    if line == 1 {
        let schema = str_at(&value, "schema")?;
        if schema != JOURNAL_SCHEMA {
            return Err(format!("schema {schema:?}"));
        }
        let matrix = str_at(&value, "matrix")?;
        return u64::from_str_radix(matrix, 16)
            .map(Line::Header)
            .map_err(|_| format!("bad matrix id {matrix:?}"));
    }
    let job = usize::try_from(u64_at(&value, "job")?).map_err(|e| e.to_string())?;
    if let Some(ckpt) = value.get("ckpt") {
        let records = u64_at(ckpt, "records")?;
        let file = PathBuf::from(str_at(ckpt, "file")?);
        return Ok(Line::Ckpt(job, CkptRef { records, file }));
    }
    let attempts = u32::try_from(u64_at(&value, "attempts")?).map_err(|e| e.to_string())?;
    let status = match str_at(&value, "status")? {
        "ok" => {
            let intervals = value
                .get("intervals")
                .and_then(JsonValue::as_arr)
                .and_then(|items| items.iter().map(interval).collect::<Option<Vec<_>>>())
                .ok_or("missing or malformed \"intervals\"")?;
            let result = SimResult::from_counts(
                str_at(&value, "trace")?,
                str_at(&value, "predictor")?,
                u64_at(&value, "cond")?,
                u64_at(&value, "misp")?,
                u64_at(&value, "insts")?,
            );
            JobStatus::Ok(JobRecord {
                result,
                intervals,
                wall: Duration::from_micros(u64_at(&value, "wall_us")?),
            })
        }
        "failed" => JobStatus::Failed {
            error: str_at(&value, "error")?.to_owned(),
        },
        "timed_out" => JobStatus::TimedOut,
        "killed" => JobStatus::Killed,
        "skipped" => JobStatus::Skipped,
        other => return Err(format!("unknown status {other:?}")),
    };
    let wall = match &status {
        JobStatus::Ok(record) => record.wall,
        _ => Duration::ZERO,
    };
    Ok(Line::Entry(
        job,
        JobOutcome {
            status,
            attempts,
            wall,
        },
    ))
}

/// Reference to the latest mid-job checkpoint recorded for a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CkptRef {
    /// Trace records the checkpoint covers.
    pub records: u64,
    /// Path of the `bfbp-ckpt/1` file, as recorded.
    pub file: PathBuf,
}

/// Everything read back from a journal file.
#[derive(Debug)]
pub struct LoadedJournal {
    /// Last recorded outcome per job index (all statuses).
    pub entries: BTreeMap<usize, JobOutcome>,
    /// Last mid-job checkpoint reference per job index.
    pub checkpoints: BTreeMap<usize, CkptRef>,
}

impl LoadedJournal {
    /// The subset of entries that finished successfully — the jobs a
    /// resume run restores instead of re-running.
    pub fn completed(&self) -> BTreeMap<usize, JobOutcome> {
        self.entries
            .iter()
            .filter(|(_, o)| o.is_ok())
            .map(|(j, o)| (*j, o.clone()))
            .collect()
    }
}

/// Append-mode checkpoint writer shared across sweep workers.
///
/// The file handle sits behind a `Mutex`; a worker that panics while
/// holding the lock (it cannot — appends don't panic — but belt and
/// braces) poisons nothing observable, because the lock site recovers
/// with `into_inner`-style poison stripping.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: Mutex<File>,
}

impl Journal {
    /// Creates (truncates) a journal and writes the header.
    ///
    /// # Errors
    ///
    /// Returns an error if the file cannot be created or written.
    pub fn create(path: &Path, matrix_id: u64, n_jobs: usize) -> Result<Self, JournalError> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent).map_err(|e| io_err(path, e))?;
        }
        let file = File::create(path).map_err(|e| io_err(path, e))?;
        let journal = Self {
            path: path.to_owned(),
            file: Mutex::new(file),
        };
        journal.append(
            &Object::new()
                .str("schema", JOURNAL_SCHEMA)
                .str("matrix", &format!("{matrix_id:016x}"))
                .member("jobs", n_jobs),
        )?;
        Ok(journal)
    }

    /// Opens an existing journal for appending (header left untouched).
    ///
    /// # Errors
    ///
    /// Returns an error if the file cannot be opened.
    pub fn append_to(path: &Path) -> Result<Self, JournalError> {
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| io_err(path, e))?;
        Ok(Self {
            path: path.to_owned(),
            file: Mutex::new(file),
        })
    }

    /// Appends `line` and its newline in one write, then flushes.
    fn append(&self, line: &Object) -> Result<(), JournalError> {
        let line = format!("{line}\n");
        // Recover a poisoned lock: the file is still valid, the worst
        // case is one duplicated line, and last-wins load semantics
        // absorb duplicates.
        let mut file = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        file.write_all(line.as_bytes())
            .and_then(|()| file.flush())
            .map_err(|e| io_err(&self.path, e))
    }

    /// Appends one completed-job record and flushes, so the checkpoint
    /// survives a crash immediately after the job finished.
    ///
    /// # Errors
    ///
    /// Returns an error if the append fails.
    pub fn record(&self, job: usize, outcome: &JobOutcome) -> Result<(), JournalError> {
        self.append(&entry_line(job, outcome))
    }

    /// Appends a mid-job checkpoint reference and flushes, so the latest
    /// resume point of every in-flight job is visible even after a hard
    /// crash of the whole sweep process.
    ///
    /// # Errors
    ///
    /// Returns an error if the append fails.
    pub fn record_ckpt(&self, job: usize, records: u64, file: &Path) -> Result<(), JournalError> {
        let ckpt = Object::new()
            .member("records", records)
            .str("file", &file.display().to_string());
        self.append(&Object::new().member("job", job).member("ckpt", ckpt))
    }

    /// Reads a journal back, verifying its header against `expect_matrix`
    /// and keeping the last line per job. A torn final line (crash
    /// artifact) is dropped; any other malformed line is an error, and so
    /// is a missing or torn header, which is never dropped.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure, a malformed header or entry, or
    /// a matrix fingerprint mismatch.
    pub fn load(path: &Path, expect_matrix: u64) -> Result<LoadedJournal, JournalError> {
        let text = std::fs::read(path).map_err(|e| io_err(path, e))?;
        let header = |reason| JournalError::Parse {
            line: 1,
            reason: format!("expected a {JOURNAL_SCHEMA} header: {reason}"),
        };
        let mut lines = parse_lines(&text, true, decode_line)
            .map_err(|e| match e.line {
                1 => header(e.reason),
                line => JournalError::Parse {
                    line,
                    reason: e.reason,
                },
            })?
            .into_iter();
        let Some(Line::Header(found)) = lines.next() else {
            return Err(header("line 1 is empty".to_owned()));
        };
        if found != expect_matrix {
            return Err(JournalError::MatrixMismatch {
                expected: expect_matrix,
                found,
            });
        }
        let mut entries = BTreeMap::new();
        let mut checkpoints = BTreeMap::new();
        for line in lines {
            match line {
                Line::Entry(job, outcome) => {
                    entries.insert(job, outcome);
                }
                Line::Ckpt(job, ckpt) => {
                    checkpoints.insert(job, ckpt);
                }
                // Only line 1 decodes as a header.
                Line::Header(_) => {}
            }
        }
        Ok(LoadedJournal {
            entries,
            checkpoints,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_outcome() -> JobOutcome {
        JobOutcome {
            status: JobStatus::Ok(JobRecord {
                result: SimResult::from_counts("INT 1%x", "gshare", 100, 7, 2000),
                intervals: vec![
                    IntervalPoint {
                        instructions: 1000,
                        conditional_branches: 50,
                        mispredictions: 3,
                    },
                    IntervalPoint {
                        instructions: 1000,
                        conditional_branches: 50,
                        mispredictions: 4,
                    },
                ],
                wall: Duration::from_micros(1234),
            }),
            attempts: 2,
            wall: Duration::from_micros(1234),
        }
    }

    /// An outcome without a record, whose wall time is not journaled.
    fn outcome(status: JobStatus, attempts: u32) -> JobOutcome {
        JobOutcome {
            status,
            attempts,
            wall: Duration::ZERO,
        }
    }

    /// A fresh scratch directory of one test's own.
    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bfbp-journal-test-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Every status, and awkward text in every free-text field, round
    /// trips exactly: quotes, backslashes, control characters, tabs,
    /// newlines, non-ASCII text, spaces and `%`.
    #[test]
    fn entries_round_trip_every_status() {
        let dir = scratch("statuses");
        let path = dir.join("run.journal");
        let awkward_ok = JobOutcome {
            status: JobStatus::Ok(JobRecord {
                result: SimResult::from_counts("INT 1 %20 x", "bf tage 100%", 10, 1, 100),
                intervals: Vec::new(),
                wall: Duration::from_micros(9),
            }),
            attempts: 1,
            wall: Duration::from_micros(9),
        };
        let outcomes = [
            ok_outcome(),
            awkward_ok,
            outcome(
                JobStatus::Failed {
                    error: "panic: \"quoted\" back\\slash \u{1} tab\there\nnew line, naïve ✓ 100%"
                        .into(),
                },
                3,
            ),
            outcome(JobStatus::TimedOut, 1),
            outcome(JobStatus::Skipped, 0),
            outcome(JobStatus::Killed, 1),
        ];
        let file = Path::new("ck dir/with spaces/job-0.ckpt");
        let journal = Journal::create(&path, 7, outcomes.len()).unwrap();
        journal.record_ckpt(0, 4096, file).unwrap();
        for (job, outcome) in outcomes.iter().enumerate() {
            journal.record(job, outcome).unwrap();
        }
        drop(journal);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.split('\n').count(), 3 + outcomes.len(), "{text}");
        assert!(
            text.starts_with("{\"schema\": \"bfbp-journal/3\", "),
            "{text}"
        );
        let loaded = Journal::load(&path, 7).unwrap();
        let ckpt = CkptRef {
            records: 4096,
            file: file.to_owned(),
        };
        assert_eq!(loaded.checkpoints[&0], ckpt);
        let back: Vec<JobOutcome> = loaded.entries.into_values().collect();
        assert_eq!(back, outcomes);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The journal of the golden fixture: job `k` on line `k + 2`, one
    /// line of every kind, and the `ckpt` line last.
    fn every_line_kind(path: &Path) {
        let journal = Journal::create(path, 0xfeed_beef_0000_0001, 6).unwrap();
        let ok = JobStatus::Ok(JobRecord {
            result: SimResult::from_counts("INT 1", "bf-tage", 4000, 77, 40_000),
            intervals: vec![
                IntervalPoint {
                    instructions: 20_000,
                    conditional_branches: 2000,
                    mispredictions: 40,
                },
                IntervalPoint {
                    instructions: 20_000,
                    conditional_branches: 2000,
                    mispredictions: 37,
                },
            ],
            wall: Duration::from_micros(5678),
        });
        let failed = JobStatus::Failed {
            error: "panic: 100% broken\n\tat x".to_owned(),
        };
        journal.record(0, &outcome(ok, 1)).unwrap();
        journal.record(1, &outcome(failed, 3)).unwrap();
        journal.record(2, &outcome(JobStatus::TimedOut, 2)).unwrap();
        journal.record(3, &outcome(JobStatus::Killed, 1)).unwrap();
        journal.record(4, &outcome(JobStatus::Skipped, 0)).unwrap();
        journal
            .record_ckpt(5, 8192, Path::new("ckpts dir/job-5.ckpt"))
            .unwrap();
    }

    #[test]
    fn every_prefix_loads_its_complete_lines_or_fails_in_the_header() {
        let dir = scratch("prefix");
        let path = dir.join("run.journal");
        every_line_kind(&path);
        let full = std::fs::read(&path).unwrap();
        let whole = Journal::load(&path, 0xfeed_beef_0000_0001).unwrap();
        // The byte offset just past each line's closing brace.
        let mut ends = Vec::new();
        let mut start = 0;
        for line in full.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
            ends.push(start + line.len());
            start += line.len() + 1;
        }
        assert_eq!(ends.len(), 7);
        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let loaded = Journal::load(&path, 0xfeed_beef_0000_0001);
            if cut < ends[0] {
                assert!(
                    matches!(loaded, Err(JournalError::Parse { line: 1, .. })),
                    "cut {cut}: {loaded:?}"
                );
                continue;
            }
            let loaded = loaded.unwrap_or_else(|e| panic!("cut {cut}: {e}"));
            let complete = |job: &usize| ends[job + 1] <= cut;
            let entries: BTreeMap<_, _> = whole
                .entries
                .iter()
                .filter(|(job, _)| complete(job))
                .map(|(job, o)| (*job, o.clone()))
                .collect();
            let checkpoints: BTreeMap<_, _> = whole
                .checkpoints
                .iter()
                .filter(|(job, _)| complete(job))
                .map(|(job, c)| (*job, c.clone()))
                .collect();
            assert_eq!(loaded.entries, entries, "cut {cut}");
            assert_eq!(loaded.checkpoints, checkpoints, "cut {cut}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_file_round_trip_last_wins_and_torn_tail() {
        let dir = scratch("last-wins");
        let path = dir.join("run.journal");
        let journal = Journal::create(&path, 0xDEAD_BEEF, 4).unwrap();
        let failed = outcome(
            JobStatus::Failed {
                error: "first attempt".into(),
            },
            1,
        );
        journal.record(0, &failed).unwrap();
        journal.record(1, &ok_outcome()).unwrap();
        journal.record(0, &ok_outcome()).unwrap(); // last wins
        drop(journal);

        // Torn tail: half a line without its newline.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            write!(
                f,
                "{{\"job\": 2, \"status\": \"ok\", \"attempts\": 1, \"trace\": \"t"
            )
            .unwrap();
        }

        let loaded = Journal::load(&path, 0xDEAD_BEEF).unwrap();
        assert_eq!(loaded.entries.len(), 2);
        assert!(loaded.entries[&0].is_ok(), "last entry for job 0 wins");
        let completed = loaded.completed();
        assert_eq!(completed.len(), 2);

        assert_eq!(
            Journal::load(&path, 0x1234).unwrap_err(),
            JournalError::MatrixMismatch {
                expected: 0x1234,
                found: 0xDEAD_BEEF
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_largest_matrix_id_loads_and_matches() {
        let dir = scratch("max");
        let path = dir.join("run.journal");
        drop(Journal::create(&path, u64::MAX, 1).unwrap());
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"matrix\": \"ffffffffffffffff\""), "{text}");
        assert!(Journal::load(&path, u64::MAX).unwrap().entries.is_empty());
        assert_eq!(
            Journal::load(&path, u64::MAX - 1).unwrap_err(),
            JournalError::MatrixMismatch {
                expected: u64::MAX - 1,
                found: u64::MAX
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_rejects_garbage() {
        let dir = scratch("bad");
        let path = dir.join("bad.journal");
        std::fs::write(&path, "not a journal\n").unwrap();
        assert!(matches!(
            Journal::load(&path, 1),
            Err(JournalError::Parse { line: 1, .. })
        ));
        // A malformed line that is NOT the last one is a hard error.
        std::fs::write(
            &path,
            format!(
                "{{\"schema\": \"{JOURNAL_SCHEMA}\", \"matrix\": \"0000000000000001\", \"jobs\": 2}}\n\
                 garbage line zero\n\
                 {{\"job\": 1, \"status\": \"skipped\", \"attempts\": 0}}\n"
            ),
        )
        .unwrap();
        assert!(matches!(
            Journal::load(&path, 1),
            Err(JournalError::Parse { line: 2, .. })
        ));
        assert!(matches!(
            Journal::load(&dir.join("missing.journal"), 1),
            Err(JournalError::Io { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_older_journal_fails_naming_the_schema_it_wants() {
        let dir = scratch("older");
        let path = dir.join("old.journal");
        let header = "bfbp-journal/2 matrix=0000000000000001 jobs=2\n";
        for text in [
            header.to_owned(),
            format!("{header}skipped 1\nok 0 attempts=1\n"),
            "{\"schema\": \"bfbp-journal/2\", \"matrix\": \"0000000000000001\"}\n".to_owned(),
            String::new(),
        ] {
            std::fs::write(&path, &text).unwrap();
            match Journal::load(&path, 1) {
                Err(JournalError::Parse { line: 1, reason }) => {
                    assert!(reason.contains("bfbp-journal/3"), "{text:?}: {reason}")
                }
                other => panic!("{text:?}: {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ckpt_refs_round_trip_and_load_last_wins() {
        let dir = scratch("ckpt");
        let path = dir.join("run.journal");
        let journal = Journal::create(&path, 0xC0FFEE, 2).unwrap();
        journal
            .record_ckpt(0, 1000, Path::new("ck/job-0.ckpt"))
            .unwrap();
        journal
            .record_ckpt(1, 1000, Path::new("ck/job-1.ckpt"))
            .unwrap();
        journal
            .record_ckpt(0, 2000, Path::new("ck/job-0.ckpt"))
            .unwrap();
        journal.record(1, &ok_outcome()).unwrap();
        drop(journal);
        let loaded = Journal::load(&path, 0xC0FFEE).unwrap();
        assert_eq!(loaded.checkpoints.len(), 2);
        assert_eq!(loaded.checkpoints[&0].records, 2000, "last ckpt ref wins");
        assert_eq!(loaded.entries.len(), 1);

        // A torn trailing ckpt line is tolerated like a torn entry.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            write!(f, "{{\"job\": 0, \"ckpt\": {{\"records\": ").unwrap();
        }
        let reloaded = Journal::load(&path, 0xC0FFEE).unwrap();
        assert_eq!(reloaded.checkpoints[&0].records, 2000);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A trace column of `records` identical branches.
    fn column(name: &str, records: usize) -> TraceInput {
        let record = bfbp_trace::BranchRecord::cond(0x40, 0x80, true, 0);
        TraceInput::ready(bfbp_trace::Trace::new(name, vec![record; records]))
    }

    #[test]
    fn matrix_id_discriminates_fields() {
        use crate::registry::Params;
        let series = |label: &str, pred: &str| SeriesInfo {
            label: label.into(),
            predictor: pred.into(),
            params: Params::new(),
            predictor_name: pred.into(),
            storage_bytes: 0,
        };
        let traces = [column("A", 10), column("B", 20)];
        let base = matrix_id(&[series("x", "gshare")], &traces, 100);
        assert_ne!(base, matrix_id(&[series("y", "gshare")], &traces, 100));
        assert_ne!(base, matrix_id(&[series("x", "bimodal")], &traces, 100));
        assert_ne!(base, matrix_id(&[series("x", "gshare")], &traces, 200));
        assert_ne!(
            base,
            matrix_id(&[series("x", "gshare")], &[column("A", 10)], 100)
        );
        let longer = [column("A", 10), column("B", 21)];
        assert_ne!(base, matrix_id(&[series("x", "gshare")], &longer, 100));
        // Field boundaries are length-prefixed: ["ab","c"] != ["a","bc"].
        assert_ne!(
            matrix_id(&[], &[column("ab", 0), column("c", 0)], 0),
            matrix_id(&[], &[column("a", 0), column("bc", 0)], 0)
        );
        assert_eq!(base, matrix_id(&[series("x", "gshare")], &traces, 100));
    }

    /// The matrix id is stamped into every journal header and mid-job
    /// checkpoint; a change to its hashing makes every existing journal
    /// unresumable, so the value of one small matrix is pinned.
    #[test]
    fn matrix_id_is_pinned() {
        use crate::registry::Params;
        let series = SeriesInfo {
            label: "g".into(),
            predictor: "gshare".into(),
            params: Params::new().set("hist", 12usize),
            predictor_name: "gshare".into(),
            storage_bytes: 0,
        };
        let traces = [column("A", 1000), column("B", 2000)];
        assert_eq!(
            matrix_id(&[series], &traces, 100_000),
            0x8a19_54a9_8475_d090
        );
    }
}
