//! Postmortem forensics: reading back what the observability layer
//! wrote.
//!
//! The observability layer writes its documents and event lines through
//! [`crate::json`]; this module reads them back with the same module's
//! parser. It holds a `bfbp-events/1` journal reader ([`parse_events`] /
//! [`read_events`]), which reads JSON lines through
//! [`crate::json::parse_lines`] like the sweep journal and so shares its
//! one torn-final-line rule, and a [`chrome_trace`] exporter that turns any
//! events journal into a Chrome Trace Format document loadable in
//! `chrome://tracing` or Perfetto.
//!
//! The reader is deliberately forgiving about vocabulary — unknown event
//! kinds and unknown keys are preserved, not rejected — so newer
//! journals keep loading in older tooling and vice versa.

use std::fmt;
use std::path::Path;

use crate::json::{lines, parse_lines, Object};
// Made `pub` because perfbench imports these two from here. `JsonValue`
// is also this module's own import (`parse_json` only its tests'), so
// once perfbench imports both from `crate::json` this line becomes a
// private `use` of `JsonValue`.
pub use crate::json::{parse_json, JsonValue};

/// One parsed `bfbp-events/1` line: the event kind, its timestamp, and
/// every field (known or not) as parsed JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedEvent {
    /// The event kind (`sweep_open`, `job_close`, …).
    pub ev: String,
    /// Microseconds since the journal opened (monotonic in file order).
    pub t_us: u64,
    /// The full line as a parsed object — `ev` and `t_us` included, plus
    /// any keys this tooling has never heard of.
    pub fields: JsonValue,
}

impl ParsedEvent {
    /// Field lookup on the underlying object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.fields.get(key)
    }

    /// The `job` field, when present.
    pub fn job(&self) -> Option<u64> {
        self.get("job").and_then(JsonValue::as_u64)
    }
}

/// Why an events journal failed to parse.
#[derive(Debug, Clone, PartialEq)]
pub enum EventsError {
    /// Filesystem failure (rendered).
    Io(String),
    /// A non-final line did not parse, or parsed to something that is
    /// not an event object.
    Line {
        /// 1-based line number.
        line: usize,
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for EventsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventsError::Io(e) => write!(f, "cannot read events journal: {e}"),
            EventsError::Line { line, reason } => {
                write!(f, "events journal line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for EventsError {}

/// Parses a `bfbp-events/1` journal text into its event lines, through
/// [`parse_lines`]: a malformed **final** line is a write torn by a crash
/// and is dropped, and a malformed earlier line is a hard error (something
/// other than a torn tail corrupted the file). Line 1 is read as a header,
/// like the sweep journal's: every journal starts with an event, so a
/// file whose first line is not one is an error even when it is the only
/// line. Unknown event kinds and unknown keys pass through untouched.
///
/// # Errors
///
/// [`EventsError::Line`] for a malformed first or non-final line.
pub fn parse_events(text: impl AsRef<[u8]>) -> Result<Vec<ParsedEvent>, EventsError> {
    parse_lines(text.as_ref(), true, |_, fields| {
        let ev = fields
            .get("ev")
            .and_then(JsonValue::as_str)
            .map(str::to_owned);
        let t_us = fields.get("t_us").and_then(JsonValue::as_u64);
        match (ev, t_us) {
            (Some(ev), Some(t_us)) => Ok(ParsedEvent { ev, t_us, fields }),
            _ => Err("missing \"ev\" or \"t_us\"".to_owned()),
        }
    })
    .map_err(|e| EventsError::Line {
        line: e.line,
        reason: e.reason,
    })
}

/// [`parse_events`] over the file at `path`.
///
/// # Errors
///
/// [`EventsError::Io`] when the file cannot be read, otherwise as
/// [`parse_events`].
pub fn read_events(path: impl AsRef<Path>) -> Result<Vec<ParsedEvent>, EventsError> {
    let text = std::fs::read(path.as_ref()).map_err(|e| EventsError::Io(e.to_string()))?;
    parse_events(text)
}

/// The synthetic Chrome-trace process id every exported event carries
/// (the journal records one process).
const CHROME_PID: u64 = 1;

/// The Chrome-trace thread id the sweep-level span and un-attributed
/// instants render on; job `j` renders on tid `j + 1`.
const CHROME_SWEEP_TID: u64 = 0;

fn chrome_event(
    out: &mut Vec<String>,
    name: &str,
    ph: char,
    ts: u64,
    dur: Option<u64>,
    tid: u64,
    args: Object,
) {
    let mut event = Object::new()
        .str("name", name)
        .str("ph", &ph.to_string())
        .member("ts", ts);
    if let Some(dur) = dur {
        event = event.member("dur", dur);
    }
    if ph == 'i' {
        // Thread-scoped instant: renders as a tick on its row.
        event = event.str("s", "t");
    }
    event = event.member("pid", CHROME_PID).member("tid", tid);
    if !args.is_empty() {
        event = event.member("args", args);
    }
    out.push(event.to_string());
}

/// The members of `event` named by `keys`, in `keys` order.
fn args_of<'k>(event: &ParsedEvent, keys: impl IntoIterator<Item = &'k str>) -> Object {
    keys.into_iter()
        .filter_map(|key| Some((key, event.get(key)?)))
        .collect()
}

/// Exports parsed `bfbp-events/1` lines as a Chrome Trace Format
/// document (`{"traceEvents": [...]}`), loadable in `chrome://tracing`
/// and Perfetto.
///
/// Span mapping:
/// * the `sweep_open` → `sweep_close` pair becomes one complete (`"X"`)
///   span on tid 0;
/// * each `job_open` → `job_close` pair becomes a complete span on tid
///   `job + 1`, named `series/trace` and carrying status, attempts, and
///   MPKI as args;
/// * a job's `interval` events become proportional slices of its span —
///   the journal records interval *contents*, not wall-clock interval
///   boundaries, so slice widths are trace-relative (each interval's
///   share of the job's instructions), not measured time;
/// * `retry`, `timeout`, `killed`, `ckpt_*`, `postmortem`, and
///   `trace_cache` events become thread-scoped instants (`"i"`) on their
///   job's row.
///
/// Unpaired opens (a dead sweep) close at the last timestamp in the
/// journal, so a crashed run still renders.
pub fn chrome_trace(events: &[ParsedEvent]) -> String {
    let mut out: Vec<String> = Vec::new();
    let last_t = events.iter().map(|e| e.t_us).max().unwrap_or(0);

    // Sweep span: first sweep_open to last sweep_close (or end).
    if let Some(open) = events.iter().find(|e| e.ev == "sweep_open") {
        let close = events
            .iter()
            .rev()
            .find(|e| e.ev == "sweep_close")
            .map_or(last_t, |e| e.t_us);
        let args = args_of(open, ["jobs", "pending", "series", "traces", "threads"]);
        chrome_event(
            &mut out,
            "sweep",
            'X',
            open.t_us,
            Some(close.saturating_sub(open.t_us).max(1)),
            CHROME_SWEEP_TID,
            args,
        );
    }

    // Job spans, keyed by job index: open time + identity from
    // job_open, duration + outcome from job_close.
    for open in events.iter().filter(|e| e.ev == "job_open") {
        let Some(job) = open.job() else { continue };
        let close = events
            .iter()
            .find(|e| e.ev == "job_close" && e.job() == Some(job) && e.t_us >= open.t_us);
        let close_t = close.map_or(last_t, |e| e.t_us);
        let series = open
            .get("series")
            .and_then(JsonValue::as_str)
            .unwrap_or("?");
        let trace = open.get("trace").and_then(JsonValue::as_str).unwrap_or("?");
        let name = format!("{series}/{trace}");
        let mut args = Object::new().member("job", job);
        if let Some(close) = close {
            args = args.append(&args_of(
                close,
                ["status", "attempts", "wall_ms", "mpki", "error"],
            ));
        }
        let dur = close_t.saturating_sub(open.t_us).max(1);
        chrome_event(&mut out, &name, 'X', open.t_us, Some(dur), job + 1, args);

        // Interval slices: proportional partitions of the job span by
        // each interval's share of the job's instructions (the journal
        // has no per-interval wall clock).
        let intervals: Vec<&ParsedEvent> = events
            .iter()
            .filter(|e| e.ev == "interval" && e.job() == Some(job))
            .collect();
        let total_insts: f64 = intervals
            .iter()
            .filter_map(|e| e.get("instructions").and_then(JsonValue::as_f64))
            .sum();
        if total_insts > 0.0 {
            let mut cursor = open.t_us as f64;
            let span = dur as f64;
            for iv in &intervals {
                let insts = iv
                    .get("instructions")
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(0.0);
                let width = span * insts / total_insts;
                let index = iv
                    .get("index")
                    .and_then(JsonValue::as_u64)
                    .unwrap_or_default();
                let args = Object::new()
                    .member("index", index)
                    .append(&args_of(iv, ["instructions", "mispredictions", "mpki"]));
                chrome_event(
                    &mut out,
                    &format!("interval {index}"),
                    'X',
                    cursor as u64,
                    Some((width as u64).max(1)),
                    job + 1,
                    args,
                );
                cursor += width;
            }
        }
    }

    // Instants: every punctual event renders as a tick on its job's row
    // (or the sweep row when it names no job).
    for event in events {
        let instant = matches!(
            event.ev.as_str(),
            "retry"
                | "timeout"
                | "killed"
                | "ckpt_write"
                | "ckpt_restore"
                | "ckpt_quarantined"
                | "postmortem"
                | "trace_cache"
        );
        if !instant {
            continue;
        }
        let tid = event.job().map_or(CHROME_SWEEP_TID, |j| j + 1);
        let members: &[(String, JsonValue)] = match &event.fields {
            JsonValue::Obj(members) => members,
            _ => &[],
        };
        let keys = members
            .iter()
            .map(|(key, _)| key.as_str())
            .filter(|key| !matches!(*key, "ev" | "t_us"));
        let args = args_of(event, keys);
        chrome_event(&mut out, &event.ev, 'i', event.t_us, None, tid, args);
    }

    // An export with no events keeps the blank line between its brackets.
    let body = if out.is_empty() {
        "\n".to_owned()
    } else {
        lines(&out, "  ")
    };
    format!(
        "{}\n",
        Object::new().member("traceEvents", format!("[\n{body}]"))
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_tolerate_torn_tail_only() {
        let good = "{\"ev\": \"journal_open\", \"t_us\": 0, \"schema\": \"bfbp-events/1\"}\n\
                    {\"ev\": \"job_open\", \"t_us\": 5, \"job\": 0, \"mystery_key\": [1]}\n";
        let torn = format!("{good}{{\"ev\": \"job_clo");
        let events = parse_events(&torn).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].ev, "job_open");
        assert_eq!(events[1].job(), Some(0));
        // Unknown keys survive parsing.
        assert!(events[1].get("mystery_key").is_some());
        // The same malformed line anywhere but the end is a hard error.
        let corrupt = format!("{{\"ev\": \"job_clo\n{good}");
        assert!(parse_events(&corrupt).is_err());
        // Missing required keys on a non-final line is also a hard error.
        let keyless = format!("{{\"not_an_event\": true}}\n{good}");
        assert!(matches!(
            parse_events(&keyless),
            Err(EventsError::Line { line: 1, .. })
        ));
        // Line 1 is the journal's first event, never a torn tail: a file
        // that does not start with an event fails there, even when it is
        // the only line. An empty file is an empty journal.
        for text in [
            "this is not a journal",
            "this is not a journal\n",
            "{\"ev\": \"jou",
        ] {
            assert!(
                matches!(parse_events(text), Err(EventsError::Line { line: 1, .. })),
                "{text:?}"
            );
        }
        assert_eq!(parse_events(""), Ok(Vec::new()));
    }

    #[test]
    fn chrome_trace_renders_spans_and_instants() {
        let journal = "\
{\"ev\": \"journal_open\", \"t_us\": 0, \"schema\": \"bfbp-events/1\"}
{\"ev\": \"sweep_open\", \"t_us\": 1, \"jobs\": 2, \"threads\": 1}
{\"ev\": \"job_open\", \"t_us\": 2, \"job\": 0, \"series\": \"s\", \"trace\": \"t\"}
{\"ev\": \"interval\", \"t_us\": 5, \"job\": 0, \"index\": 0, \"instructions\": 100, \"mispredictions\": 3, \"mpki\": 30.0}
{\"ev\": \"interval\", \"t_us\": 8, \"job\": 0, \"index\": 1, \"instructions\": 300, \"mispredictions\": 1, \"mpki\": 3.33}
{\"ev\": \"job_close\", \"t_us\": 10, \"job\": 0, \"series\": \"s\", \"trace\": \"t\", \"status\": \"ok\", \"attempts\": 1, \"wall_ms\": 0.5, \"mpki\": 10.0}
{\"ev\": \"retry\", \"t_us\": 12, \"job\": 1, \"attempt\": 1, \"error\": \"boom\"}
{\"ev\": \"killed\", \"t_us\": 14, \"job\": 1, \"attempt\": 2, \"records\": 4096}
{\"ev\": \"sweep_close\", \"t_us\": 20, \"ok\": 1, \"failed\": 0}
";
        let events = parse_events(journal).unwrap();
        let trace = chrome_trace(&events);
        // The export itself must be valid JSON (parse it back).
        let doc = parse_json(&trace).unwrap();
        let items = doc.get("traceEvents").and_then(JsonValue::as_arr).unwrap();
        assert!(!items.is_empty());
        for item in items {
            let ph = item.get("ph").and_then(JsonValue::as_str).unwrap();
            assert!(ph == "X" || ph == "i", "{item:?}");
            assert!(item.get("ts").and_then(JsonValue::as_u64).is_some());
            assert!(item.get("pid").and_then(JsonValue::as_u64).is_some());
            assert!(item.get("tid").and_then(JsonValue::as_u64).is_some());
            if ph == "X" {
                assert!(item.get("dur").and_then(JsonValue::as_u64).unwrap() >= 1);
            }
        }
        // Sweep span on tid 0 spanning open→close.
        let sweep = items
            .iter()
            .find(|i| i.get("name").and_then(JsonValue::as_str) == Some("sweep"))
            .unwrap();
        assert_eq!(sweep.get("ts").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(sweep.get("dur").and_then(JsonValue::as_u64), Some(19));
        assert_eq!(sweep.get("tid").and_then(JsonValue::as_u64), Some(0));
        // Job span named series/trace on tid job+1.
        let job = items
            .iter()
            .find(|i| i.get("name").and_then(JsonValue::as_str) == Some("s/t"))
            .unwrap();
        assert_eq!(job.get("tid").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(job.get("dur").and_then(JsonValue::as_u64), Some(8));
        // Intervals partition the job span proportionally (100:300).
        let iv0 = items
            .iter()
            .find(|i| i.get("name").and_then(JsonValue::as_str) == Some("interval 0"))
            .unwrap();
        assert_eq!(iv0.get("ts").and_then(JsonValue::as_u64), Some(2));
        assert_eq!(iv0.get("dur").and_then(JsonValue::as_u64), Some(2));
        // Instants for retry and killed on job 1's row.
        let instants: Vec<_> = items
            .iter()
            .filter(|i| i.get("ph").and_then(JsonValue::as_str) == Some("i"))
            .collect();
        assert_eq!(instants.len(), 2);
        for instant in instants {
            assert_eq!(instant.get("tid").and_then(JsonValue::as_u64), Some(2));
        }
    }

    #[test]
    fn chrome_trace_closes_unpaired_spans_at_journal_end() {
        let journal = "\
{\"ev\": \"sweep_open\", \"t_us\": 1, \"jobs\": 1}
{\"ev\": \"job_open\", \"t_us\": 2, \"job\": 0, \"series\": \"s\", \"trace\": \"t\"}
{\"ev\": \"timeout\", \"t_us\": 9, \"job\": 0, \"attempt\": 1}
";
        let events = parse_events(journal).unwrap();
        let doc = parse_json(&chrome_trace(&events)).unwrap();
        let items = doc.get("traceEvents").and_then(JsonValue::as_arr).unwrap();
        let job = items
            .iter()
            .find(|i| i.get("name").and_then(JsonValue::as_str) == Some("s/t"))
            .unwrap();
        // Open at 2, journal ends at 9.
        assert_eq!(job.get("dur").and_then(JsonValue::as_u64), Some(7));
        assert!(job.get("args").and_then(|a| a.get("status")).is_none());
    }
}
