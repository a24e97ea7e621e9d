//! The sweep resume journal: every job that finished `ok`, so an
//! interrupted or partially-failed campaign can be resumed without
//! redoing finished work.
//!
//! The format, `bfbp-journal/4`, is JSON lines: a header, then one object
//! per job that finished `ok`, each rendered by [`crate::json::Object`]
//! and appended in one write, and read back by
//! [`crate::json::parse_lines`].
//!
//! ```text
//! {"schema": "bfbp-journal/4", "matrix": "8a1954a98475d090"}
//! {"job": 0, "attempts": 1, "wall_us": 8946, "trace": "SPEC00", "predictor": "gshare-16h", "cond": 3000, "misp": 191, "insts": 18439, "intervals": [[18439, 3000, 191]]}
//! ```
//!
//! A job line's `intervals` are `[instructions, conditional branches,
//! mispredictions]` triples. The `matrix` field ([`matrix_id`])
//! fingerprints the (spec × trace × interval) matrix, trace lengths
//! included. It is a string of 16 hex digits, not a number, because half
//! of all ids exceed `i64::MAX` and a JSON number that large does not
//! survive [`crate::json::JsonValue`] exactly. [`Journal::load`] refuses
//! to resume a journal recorded for a different matrix, because job
//! indices would silently point at different work, and a missing or
//! torn header is an error, never a dropped line.
//!
//! The journal holds exactly what a resume reads. Failed, timed-out,
//! skipped and killed jobs write no line, because a resume re-runs them
//! anyway; a killed job models a process death, which would leave only
//! its mid-job checkpoint on disk. Concurrent workers append whole lines
//! under a lock, and the last line per job wins on load. A crash
//! mid-append tears at most the final line, which the reader drops.
//! [`Journal::create`] starts every journal, resumed or not, by writing
//! the header and the restored jobs to a new file that replaces the old
//! one atomically: a torn line is dropped there, and a resume into
//! another file carries every finished job with it.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use bfbp_trace::format::Fnv;

use crate::ckpt::write_atomic;
use crate::engine::{JobOutcome, JobRecord, JobStatus, SeriesInfo, TraceInput};
use crate::json::{array, parse_lines, JsonValue, Object};
use crate::simulate::{IntervalPoint, SimResult};

/// Journal format identifier (the header's `schema`).
pub const JOURNAL_SCHEMA: &str = "bfbp-journal/4";
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

/// Renders job `job`'s line and its newline, when the job finished `ok`.
fn job_line(job: usize, outcome: &JobOutcome) -> Option<String> {
    let JobStatus::Ok(record) = &outcome.status else {
        return None;
    };
    let r = &record.result;
    let intervals = record
        .intervals
        .iter()
        .map(|iv| array([iv.instructions, iv.conditional_branches, iv.mispredictions]));
    let line = Object::new()
        .member("job", job)
        .member("attempts", outcome.attempts)
        .member("wall_us", record.wall.as_micros())
        .str("trace", r.trace_name())
        .str("predictor", r.predictor_name())
        .member("cond", r.conditional_branches())
        .member("misp", r.mispredictions())
        .member("insts", r.instructions())
        .member("intervals", array(intervals));
    Some(format!("{line}\n"))
}

/// One decoded journal line.
enum Line {
    /// The header's matrix id.
    Header(u64),
    Job(usize, JobOutcome),
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

/// Decodes line `line` (1-based): the header on line 1, a job after it.
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
    let attempts = u32::try_from(u64_at(&value, "attempts")?).map_err(|e| e.to_string())?;
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
    let wall = Duration::from_micros(u64_at(&value, "wall_us")?);
    let record = JobRecord {
        result,
        intervals,
        wall,
    };
    Ok(Line::Job(
        job,
        JobOutcome {
            status: JobStatus::Ok(record),
            attempts,
            wall,
        },
    ))
}

/// The resume journal of one sweep, shared across its workers.
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
    /// Starts the journal at `path` for the matrix `matrix_id`: the
    /// header and every `restored` job, in job order, go to a new file
    /// that replaces `path` atomically and is synced once, and later
    /// [`Journal::record`] calls append to it. A resume onto the journal
    /// it read from rewrites that file without a torn final line.
    ///
    /// # Errors
    ///
    /// Returns an error if the file cannot be written or reopened.
    pub fn create(
        path: &Path,
        matrix_id: u64,
        restored: &BTreeMap<usize, JobOutcome>,
    ) -> Result<Self, JournalError> {
        let header = Object::new()
            .str("schema", JOURNAL_SCHEMA)
            .str("matrix", &format!("{matrix_id:016x}"));
        let mut text = format!("{header}\n");
        text.extend(restored.iter().filter_map(|(&job, o)| job_line(job, o)));
        write_atomic(path, text.as_bytes()).map_err(|e| io_err(path, e))?;
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| io_err(path, e))?;
        Ok(Self {
            path: path.to_owned(),
            file: Mutex::new(file),
        })
    }

    /// Appends job `job`'s line and flushes, so the finished job
    /// survives a crash right after it; a job that did not finish `ok`
    /// writes nothing.
    ///
    /// # Errors
    ///
    /// Returns an error if the append fails.
    pub fn record(&self, job: usize, outcome: &JobOutcome) -> Result<(), JournalError> {
        let Some(line) = job_line(job, outcome) else {
            return Ok(());
        };
        // Recover a poisoned lock: the file is still valid, the worst
        // case is one duplicated line, and last-wins load semantics
        // absorb duplicates.
        let mut file = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        file.write_all(line.as_bytes())
            .and_then(|()| file.flush())
            .map_err(|e| io_err(&self.path, e))
    }

    /// Reads the finished jobs back, verifying the header against
    /// `expect_matrix` and keeping the last line per job. A torn final
    /// line (crash artifact) is dropped; any other malformed line is an
    /// error, and so is a missing or torn header, which is never dropped.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure, a malformed header or job line,
    /// or a matrix fingerprint mismatch.
    pub fn load(
        path: &Path,
        expect_matrix: u64,
    ) -> Result<BTreeMap<usize, JobOutcome>, JournalError> {
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
        let mut jobs = BTreeMap::new();
        // Only line 1 decodes as a header.
        for line in lines {
            if let Line::Job(job, outcome) = line {
                jobs.insert(job, outcome);
            }
        }
        Ok(jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_outcome() -> JobOutcome {
        ok("INT 1%x", "gshare", 2)
    }

    /// An `ok` outcome on `trace` and `predictor` with two intervals.
    fn ok(trace: &str, predictor: &str, attempts: u32) -> JobOutcome {
        let record = JobRecord {
            result: SimResult::from_counts(trace, predictor, 100, 7, 2000),
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
        };
        JobOutcome {
            wall: record.wall,
            status: JobStatus::Ok(record),
            attempts,
        }
    }

    /// An outcome without a record.
    fn outcome(status: JobStatus, attempts: u32) -> JobOutcome {
        JobOutcome {
            status,
            attempts,
            wall: Duration::from_micros(99),
        }
    }

    /// A fresh scratch directory of one test's own.
    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bfbp-journal-test-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn no_jobs() -> BTreeMap<usize, JobOutcome> {
        BTreeMap::new()
    }

    /// Awkward text in the trace and predictor names round trips
    /// exactly: quotes, backslashes, control characters, tabs, newlines,
    /// non-ASCII text, spaces and `%`. Jobs that did not finish `ok`
    /// write nothing, and a journal started from the loaded jobs holds
    /// the same lines.
    #[test]
    fn ok_jobs_round_trip_and_other_statuses_write_nothing() {
        let dir = scratch("statuses");
        let path = dir.join("run.journal");
        let awkward = ok(
            "INT \"1\" back\\slash \u{1} tab\there %20",
            "new\nline, naïve ✓ 100%",
            1,
        );
        let outcomes = [
            ok_outcome(),
            awkward,
            outcome(
                JobStatus::Failed {
                    error: "panic: boom".into(),
                },
                3,
            ),
            outcome(JobStatus::TimedOut, 1),
            outcome(JobStatus::Skipped, 0),
            outcome(JobStatus::Killed, 1),
        ];
        let journal = Journal::create(&path, 7, &no_jobs()).unwrap();
        for (job, outcome) in outcomes.iter().enumerate() {
            journal.record(job, outcome).unwrap();
        }
        drop(journal);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.matches('\n').count(), 3, "{text}");
        assert!(
            text.starts_with(
                "{\"schema\": \"bfbp-journal/4\", \"matrix\": \"0000000000000007\"}\n"
            ),
            "{text}"
        );
        let loaded = Journal::load(&path, 7).unwrap();
        let ok_jobs: BTreeMap<usize, JobOutcome> =
            outcomes[..2].iter().cloned().enumerate().collect();
        assert_eq!(loaded, ok_jobs);

        // Starting a journal from the loaded jobs writes the same bytes,
        // into the file they came from or into another.
        let copy = dir.join("copy.journal");
        drop(Journal::create(&copy, 7, &loaded).unwrap());
        drop(Journal::create(&path, 7, &loaded).unwrap());
        assert_eq!(std::fs::read_to_string(&copy).unwrap(), text);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_prefix_loads_its_complete_lines_or_fails_in_the_header() {
        let dir = scratch("prefix");
        let path = dir.join("run.journal");
        let matrix = 0xfeed_beef_0000_0001;
        let journal = Journal::create(&path, matrix, &no_jobs()).unwrap();
        for job in [0, 2, 5] {
            journal
                .record(job, &ok(&format!("T {job}"), "bf-tage", 1))
                .unwrap();
        }
        drop(journal);
        let full = std::fs::read(&path).unwrap();
        let whole = Journal::load(&path, matrix).unwrap();
        // The byte offset just past each line's closing brace.
        let mut ends = Vec::new();
        let mut start = 0;
        for line in full.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
            ends.push(start + line.len());
            start += line.len() + 1;
        }
        assert_eq!(ends.len(), 4);
        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let loaded = Journal::load(&path, matrix);
            if cut < ends[0] {
                assert!(
                    matches!(loaded, Err(JournalError::Parse { line: 1, .. })),
                    "cut {cut}: {loaded:?}"
                );
                continue;
            }
            let loaded = loaded.unwrap_or_else(|e| panic!("cut {cut}: {e}"));
            let complete = ends[1..].iter().filter(|&&end| end <= cut).count();
            let expected: BTreeMap<_, _> = whole
                .iter()
                .take(complete)
                .map(|(job, o)| (*job, o.clone()))
                .collect();
            assert_eq!(loaded, expected, "cut {cut}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_file_round_trip_last_wins_and_torn_tail() {
        let dir = scratch("last-wins");
        let path = dir.join("run.journal");
        let journal = Journal::create(&path, 0xDEAD_BEEF, &no_jobs()).unwrap();
        journal.record(0, &ok("first", "gshare", 1)).unwrap();
        journal.record(1, &ok_outcome()).unwrap();
        journal.record(0, &ok_outcome()).unwrap(); // last wins
        drop(journal);

        // Torn tail: half a line without its newline.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            write!(f, "{{\"job\": 2, \"attempts\": 1, \"trace\": \"t").unwrap();
        }

        let loaded = Journal::load(&path, 0xDEAD_BEEF).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[&0], ok_outcome(), "last entry for job 0 wins");

        // Starting a journal drops the torn line, so the next append
        // starts a line of its own.
        let journal = Journal::create(&path, 0xDEAD_BEEF, &loaded).unwrap();
        journal.record(2, &ok_outcome()).unwrap();
        drop(journal);
        assert_eq!(Journal::load(&path, 0xDEAD_BEEF).unwrap().len(), 3);

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
        drop(Journal::create(&path, u64::MAX, &no_jobs()).unwrap());
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"matrix\": \"ffffffffffffffff\""), "{text}");
        assert!(Journal::load(&path, u64::MAX).unwrap().is_empty());
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
                "{{\"schema\": \"{JOURNAL_SCHEMA}\", \"matrix\": \"0000000000000001\"}}\n\
                 garbage line zero\n\
                 {{\"job\": 1, \"attempts\": 0}}\n"
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
        let v2 = "bfbp-journal/2 matrix=0000000000000001 jobs=2\n";
        let v3 =
            "{\"schema\": \"bfbp-journal/3\", \"matrix\": \"0000000000000001\", \"jobs\": 2}\n";
        for text in [
            v2.to_owned(),
            format!("{v2}skipped 1\nok 0 attempts=1\n"),
            "{\"schema\": \"bfbp-journal/2\", \"matrix\": \"0000000000000001\"}\n".to_owned(),
            v3.to_owned(),
            format!("{v3}{{\"job\": 1, \"status\": \"skipped\", \"attempts\": 0}}\n"),
            String::new(),
        ] {
            std::fs::write(&path, &text).unwrap();
            match Journal::load(&path, 1) {
                Err(JournalError::Parse { line: 1, reason }) => {
                    assert!(reason.contains("bfbp-journal/4"), "{text:?}: {reason}")
                }
                other => panic!("{text:?}: {other:?}"),
            }
        }
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
