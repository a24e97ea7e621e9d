//! The sweep checkpoint journal: completed-job records appended as each
//! job finishes, so an interrupted or partially-failed campaign can be
//! resumed without redoing finished work.
//!
//! The format is line-oriented plain text (one record per line, fields
//! `%`-escaped), deliberately not JSON: it must be appendable from
//! concurrent workers, parseable with zero dependencies, and robust to a
//! truncated final line (a crash mid-append loses at most that line —
//! every earlier record stays usable).
//!
//! ```text
//! bfbp-journal/2 matrix=<16-hex FNV of the job matrix> jobs=<n>
//! ok <job> attempts=<n> wall_us=<n> trace=<esc> predictor=<esc> cond=<n> misp=<n> insts=<n> intervals=<i:c:m,...|->
//! failed <job> attempts=<n> error=<esc>
//! timed_out <job> attempts=<n>
//! killed <job> attempts=<n>
//! skipped <job>
//! ckpt <job> records=<n> file=<esc>
//! ```
//!
//! The `matrix` field ([`matrix_id`]) fingerprints the (spec × trace ×
//! interval) matrix, trace lengths included; [`Journal::load`] refuses to
//! resume a journal recorded for a different matrix, because job indices
//! would silently point at different work. Only `ok` records are
//! restored on resume — failed, timed-out, killed, and skipped jobs are
//! re-run.
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
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

use bfbp_trace::format::Fnv;

use crate::engine::{JobOutcome, JobRecord, JobStatus, SeriesInfo, TraceInput};
use crate::simulate::{IntervalPoint, SimResult};

/// Journal format identifier (first token of the header line).
pub const JOURNAL_SCHEMA: &str = "bfbp-journal/2";

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

/// `%`-escapes a field so it contains no whitespace (the journal's
/// field separator) and survives a round trip byte-exact.
fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '%' => out.push_str("%25"),
            ' ' => out.push_str("%20"),
            '\n' => out.push_str("%0A"),
            '\t' => out.push_str("%09"),
            '\r' => out.push_str("%0D"),
            c => out.push(c),
        }
    }
    out
}

fn unescape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars();
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        let pair: String = chars.by_ref().take(2).collect();
        match pair.as_str() {
            "25" => out.push('%'),
            "20" => out.push(' '),
            "0A" => out.push('\n'),
            "09" => out.push('\t'),
            "0D" => out.push('\r'),
            other => {
                // Tolerate unknown escapes: keep them verbatim.
                out.push('%');
                out.push_str(other);
            }
        }
    }
    out
}

/// Renders one completed job as a journal line (without the newline).
pub fn render_entry(job: usize, outcome: &JobOutcome) -> String {
    match &outcome.status {
        JobStatus::Ok(record) => {
            let r = &record.result;
            let intervals = if record.intervals.is_empty() {
                "-".to_owned()
            } else {
                record
                    .intervals
                    .iter()
                    .map(|iv| {
                        format!(
                            "{}:{}:{}",
                            iv.instructions, iv.conditional_branches, iv.mispredictions
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(",")
            };
            format!(
                "ok {job} attempts={} wall_us={} trace={} predictor={} cond={} misp={} insts={} intervals={intervals}",
                outcome.attempts,
                record.wall.as_micros(),
                escape(r.trace_name()),
                escape(r.predictor_name()),
                r.conditional_branches(),
                r.mispredictions(),
                r.instructions(),
            )
        }
        JobStatus::Failed { error } => format!(
            "failed {job} attempts={} error={}",
            outcome.attempts,
            escape(error)
        ),
        JobStatus::TimedOut => format!("timed_out {job} attempts={}", outcome.attempts),
        JobStatus::Killed => format!("killed {job} attempts={}", outcome.attempts),
        JobStatus::Skipped => format!("skipped {job}"),
    }
}

/// Renders a mid-job checkpoint reference line (without the newline).
pub fn render_ckpt_ref(job: usize, records: u64, file: &Path) -> String {
    format!(
        "ckpt {job} records={records} file={}",
        escape(&file.display().to_string())
    )
}

fn field<'a>(token: Option<&'a str>, key: &str, line: usize) -> Result<&'a str, JournalError> {
    let token = token.ok_or(JournalError::Parse {
        line,
        reason: format!("missing field {key}"),
    })?;
    token
        .strip_prefix(key)
        .and_then(|rest| rest.strip_prefix('='))
        .ok_or(JournalError::Parse {
            line,
            reason: format!("expected {key}=..., got {token:?}"),
        })
}

fn number<T: std::str::FromStr>(text: &str, what: &str, line: usize) -> Result<T, JournalError> {
    text.parse().map_err(|_| JournalError::Parse {
        line,
        reason: format!("{what} is not a number: {text:?}"),
    })
}

/// Parses one journal entry line. `line` is the 1-based line number for
/// error messages.
pub fn parse_entry(text: &str, line: usize) -> Result<(usize, JobOutcome), JournalError> {
    let mut tokens = text.split(' ');
    let status = tokens.next().unwrap_or_default();
    let job: usize = number(
        tokens.next().ok_or(JournalError::Parse {
            line,
            reason: "missing job index".into(),
        })?,
        "job index",
        line,
    )?;
    let outcome = match status {
        "ok" => {
            let attempts = number(field(tokens.next(), "attempts", line)?, "attempts", line)?;
            let wall_us: u64 = number(field(tokens.next(), "wall_us", line)?, "wall_us", line)?;
            let trace = unescape(field(tokens.next(), "trace", line)?);
            let predictor = unescape(field(tokens.next(), "predictor", line)?);
            let cond: u64 = number(field(tokens.next(), "cond", line)?, "cond", line)?;
            let misp: u64 = number(field(tokens.next(), "misp", line)?, "misp", line)?;
            let insts: u64 = number(field(tokens.next(), "insts", line)?, "insts", line)?;
            let intervals_text = field(tokens.next(), "intervals", line)?;
            let mut intervals = Vec::new();
            if intervals_text != "-" {
                for triple in intervals_text.split(',') {
                    let mut parts = triple.split(':');
                    let mut next = |what: &str| -> Result<u64, JournalError> {
                        number(
                            parts.next().ok_or(JournalError::Parse {
                                line,
                                reason: format!("interval triple {triple:?} missing {what}"),
                            })?,
                            what,
                            line,
                        )
                    };
                    intervals.push(IntervalPoint {
                        instructions: next("instructions")?,
                        conditional_branches: next("conditional_branches")?,
                        mispredictions: next("mispredictions")?,
                    });
                }
            }
            let wall = Duration::from_micros(wall_us);
            JobOutcome {
                status: JobStatus::Ok(JobRecord {
                    result: SimResult::from_counts(trace, predictor, cond, misp, insts),
                    intervals,
                    wall,
                }),
                attempts,
                wall,
            }
        }
        "failed" => {
            let attempts = number(field(tokens.next(), "attempts", line)?, "attempts", line)?;
            let error = unescape(field(tokens.next(), "error", line)?);
            JobOutcome {
                status: JobStatus::Failed { error },
                attempts,
                wall: Duration::ZERO,
            }
        }
        "timed_out" => {
            let attempts = number(field(tokens.next(), "attempts", line)?, "attempts", line)?;
            JobOutcome {
                status: JobStatus::TimedOut,
                attempts,
                wall: Duration::ZERO,
            }
        }
        "killed" => {
            let attempts = number(field(tokens.next(), "attempts", line)?, "attempts", line)?;
            JobOutcome {
                status: JobStatus::Killed,
                attempts,
                wall: Duration::ZERO,
            }
        }
        "skipped" => JobOutcome {
            status: JobStatus::Skipped,
            attempts: 0,
            wall: Duration::ZERO,
        },
        other => {
            return Err(JournalError::Parse {
                line,
                reason: format!("unknown status {other:?}"),
            })
        }
    };
    Ok((job, outcome))
}

/// Parses one `ckpt` reference line produced by [`render_ckpt_ref`].
pub fn parse_ckpt_ref(text: &str, line: usize) -> Result<(usize, CkptRef), JournalError> {
    let mut tokens = text.split(' ');
    let keyword = tokens.next().unwrap_or_default();
    if keyword != "ckpt" {
        return Err(JournalError::Parse {
            line,
            reason: format!("not a ckpt line: {keyword:?}"),
        });
    }
    let job: usize = number(
        tokens.next().ok_or(JournalError::Parse {
            line,
            reason: "missing job index".into(),
        })?,
        "job index",
        line,
    )?;
    let records: u64 = number(field(tokens.next(), "records", line)?, "records", line)?;
    let file = PathBuf::from(unescape(field(tokens.next(), "file", line)?));
    Ok((job, CkptRef { records, file }))
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
    /// Matrix fingerprint from the header.
    pub matrix_id: u64,
    /// Total job count from the header.
    pub n_jobs: usize,
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
/// braces) poisons nothing observable, because every lock site recovers
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
        let mut file = File::create(path).map_err(|e| io_err(path, e))?;
        writeln!(
            file,
            "{JOURNAL_SCHEMA} matrix={matrix_id:016x} jobs={n_jobs}"
        )
        .map_err(|e| io_err(path, e))?;
        file.flush().map_err(|e| io_err(path, e))?;
        Ok(Self {
            path: path.to_owned(),
            file: Mutex::new(file),
        })
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

    /// Appends one completed-job record and flushes, so the checkpoint
    /// survives a crash immediately after the job finished.
    ///
    /// # Errors
    ///
    /// Returns an error if the append fails.
    pub fn record(&self, job: usize, outcome: &JobOutcome) -> Result<(), JournalError> {
        let line = render_entry(job, outcome);
        // Recover a poisoned lock: the file is still valid, the worst
        // case is one duplicated/interleaved line, and last-wins load
        // semantics absorb duplicates.
        let mut file = self
            .file
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        writeln!(file, "{line}").map_err(|e| io_err(&self.path, e))?;
        file.flush().map_err(|e| io_err(&self.path, e))
    }

    /// Appends a mid-job checkpoint reference and flushes, so the latest
    /// resume point of every in-flight job is visible even after a hard
    /// crash of the whole sweep process.
    ///
    /// # Errors
    ///
    /// Returns an error if the append fails.
    pub fn record_ckpt(&self, job: usize, records: u64, file: &Path) -> Result<(), JournalError> {
        let line = render_ckpt_ref(job, records, file);
        let mut sink = self
            .file
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        writeln!(sink, "{line}").map_err(|e| io_err(&self.path, e))?;
        sink.flush().map_err(|e| io_err(&self.path, e))
    }

    /// Reads a journal back, verifying the header against `expect_matrix`
    /// (pass `None` to skip the check) and keeping the last entry per
    /// job. A trailing truncated line (crash artifact) is ignored; any
    /// other malformed line is an error.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure, a malformed header or entry, or
    /// a matrix fingerprint mismatch.
    pub fn load(path: &Path, expect_matrix: Option<u64>) -> Result<LoadedJournal, JournalError> {
        let file = File::open(path).map_err(|e| io_err(path, e))?;
        let reader = BufReader::new(file);
        let mut lines = Vec::new();
        for line in reader.lines() {
            lines.push(line.map_err(|e| io_err(path, e))?);
        }
        let header = lines.first().ok_or(JournalError::Parse {
            line: 1,
            reason: "empty journal".into(),
        })?;
        let mut tokens = header.split(' ');
        if tokens.next() != Some(JOURNAL_SCHEMA) {
            return Err(JournalError::Parse {
                line: 1,
                reason: format!("not a {JOURNAL_SCHEMA} header: {header:?}"),
            });
        }
        let matrix_hex = field(tokens.next(), "matrix", 1)?;
        let found = u64::from_str_radix(matrix_hex, 16).map_err(|_| JournalError::Parse {
            line: 1,
            reason: format!("bad matrix fingerprint {matrix_hex:?}"),
        })?;
        let n_jobs: usize = number(field(tokens.next(), "jobs", 1)?, "jobs", 1)?;
        if let Some(expected) = expect_matrix {
            if expected != found {
                return Err(JournalError::MatrixMismatch { expected, found });
            }
        }
        let mut entries = BTreeMap::new();
        let mut checkpoints = BTreeMap::new();
        let last = lines.len();
        for (i, line) in lines.iter().enumerate().skip(1) {
            if line.is_empty() {
                continue;
            }
            let parsed = if line.starts_with("ckpt ") {
                parse_ckpt_ref(line, i + 1).map(|(job, ckpt)| {
                    checkpoints.insert(job, ckpt);
                })
            } else {
                parse_entry(line, i + 1).map(|(job, outcome)| {
                    entries.insert(job, outcome);
                })
            };
            match parsed {
                Ok(()) => {}
                // The final line may be a torn write from a crash; every
                // complete line before it is still good.
                Err(_) if i + 1 == last => break,
                Err(e) => return Err(e),
            }
        }
        Ok(LoadedJournal {
            matrix_id: found,
            n_jobs,
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

    #[test]
    fn entries_round_trip_every_status() {
        let outcomes = [
            ok_outcome(),
            JobOutcome {
                status: JobStatus::Failed {
                    error: "panic: boom with spaces\nand a newline".into(),
                },
                attempts: 3,
                wall: Duration::ZERO,
            },
            JobOutcome {
                status: JobStatus::TimedOut,
                attempts: 1,
                wall: Duration::ZERO,
            },
            JobOutcome {
                status: JobStatus::Skipped,
                attempts: 0,
                wall: Duration::ZERO,
            },
            JobOutcome {
                status: JobStatus::Killed,
                attempts: 1,
                wall: Duration::ZERO,
            },
        ];
        for (i, outcome) in outcomes.iter().enumerate() {
            let line = render_entry(i, outcome);
            assert!(!line.contains('\n'), "{line:?}");
            let (job, back) = parse_entry(&line, 1).expect(&line);
            assert_eq!(job, i);
            // wall for non-ok entries is not persisted; compare status.
            assert_eq!(back.status, outcome.status, "{line}");
            assert_eq!(back.attempts, outcome.attempts);
        }
    }

    #[test]
    fn escape_round_trips() {
        for s in [
            "plain",
            "a b",
            "pct%20already",
            "tab\there",
            "nl\nthere",
            "%",
        ] {
            assert_eq!(unescape(&escape(s)), s, "{s:?}");
        }
    }

    #[test]
    fn journal_file_round_trip_last_wins_and_torn_tail() {
        let dir = std::env::temp_dir().join("bfbp-journal-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.journal");
        let journal = Journal::create(&path, 0xDEAD_BEEF, 4).unwrap();
        let failed = JobOutcome {
            status: JobStatus::Failed {
                error: "first attempt".into(),
            },
            attempts: 1,
            wall: Duration::ZERO,
        };
        journal.record(0, &failed).unwrap();
        journal.record(1, &ok_outcome()).unwrap();
        journal.record(0, &ok_outcome()).unwrap(); // last wins
        drop(journal);

        // Torn tail: append half a line without newline-terminated fields.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            write!(f, "ok 2 attempts=1 wall_us=9 trace=t").unwrap();
        }

        let loaded = Journal::load(&path, Some(0xDEAD_BEEF)).unwrap();
        assert_eq!(loaded.matrix_id, 0xDEAD_BEEF);
        assert_eq!(loaded.n_jobs, 4);
        assert_eq!(loaded.entries.len(), 2);
        assert!(loaded.entries[&0].is_ok(), "last entry for job 0 wins");
        let completed = loaded.completed();
        assert_eq!(completed.len(), 2);

        assert!(matches!(
            Journal::load(&path, Some(0x1234)),
            Err(JournalError::MatrixMismatch { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_rejects_garbage() {
        let dir = std::env::temp_dir().join("bfbp-journal-test-bad");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.journal");
        std::fs::write(&path, "not a journal\n").unwrap();
        assert!(matches!(
            Journal::load(&path, None),
            Err(JournalError::Parse { line: 1, .. })
        ));
        // A malformed line that is NOT the last one is a hard error.
        std::fs::write(
            &path,
            format!(
                "{JOURNAL_SCHEMA} matrix=0000000000000001 jobs=2\ngarbage line zero\nskipped 1\n"
            ),
        )
        .unwrap();
        assert!(matches!(
            Journal::load(&path, None),
            Err(JournalError::Parse { .. })
        ));
        assert!(matches!(
            Journal::load(&dir.join("missing.journal"), None),
            Err(JournalError::Io { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ckpt_refs_round_trip_and_load_last_wins() {
        let line = render_ckpt_ref(3, 50_000, Path::new("/tmp/dir with space/job-3.ckpt"));
        assert!(!line.contains("dir with space"), "spaces must escape");
        let (job, ckpt) = parse_ckpt_ref(&line, 1).unwrap();
        assert_eq!(job, 3);
        assert_eq!(ckpt.records, 50_000);
        assert_eq!(ckpt.file, PathBuf::from("/tmp/dir with space/job-3.ckpt"));
        assert!(parse_ckpt_ref("ok 1 attempts=1", 1).is_err());

        let dir = std::env::temp_dir().join("bfbp-journal-test-ckpt");
        std::fs::create_dir_all(&dir).unwrap();
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
        let loaded = Journal::load(&path, Some(0xC0FFEE)).unwrap();
        assert_eq!(loaded.checkpoints.len(), 2);
        assert_eq!(loaded.checkpoints[&0].records, 2000, "last ckpt ref wins");
        assert_eq!(loaded.entries.len(), 1);

        // A torn trailing ckpt line is tolerated like a torn entry.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            write!(f, "ckpt 0 records=").unwrap();
        }
        let reloaded = Journal::load(&path, Some(0xC0FFEE)).unwrap();
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
