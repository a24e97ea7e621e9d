//! In-memory spans recorded around calls into each layer, written once
//! at the end of a traced run as Chrome Trace JSON (loadable in
//! Perfetto), and the per-layer self time derived from them.
//!
//! A span is one call into a layer's public function: its name, layer,
//! start, end, parent span, thread, and job or session id. Calls too
//! short to time one by one without distorting them (a predictor's
//! batch kernel, one served request) are not kept as spans; the parent
//! span carries their summed duration as `child_busy_ns` instead.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use bfbp_sim::engine::{json_f64, json_string};

/// One closed span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id, from 1.
    pub id: u64,
    /// The enclosing span's id; 0 for a root.
    pub parent: u64,
    /// The call, e.g. `cache.fetch`.
    pub name: &'static str,
    /// The layer the call enters, e.g. `cache`.
    pub layer: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Recording thread (benchmark-local numbering).
    pub tid: u64,
    /// Sweep job or served session id; 0 when the span has none.
    pub job: u64,
    /// Summed duration of child calls too short to keep as spans.
    pub child_busy_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span; hand it back to [`Tracer::end`].
#[derive(Debug)]
#[must_use = "an open span is recorded only when ended"]
pub struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    layer: &'static str,
    start_ns: u64,
}

impl Open {
    /// The id children pass as their parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
}

fn thread_id() -> u64 {
    TID.with(|tid| {
        if tid.get() == 0 {
            tid.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        tid.get()
    })
}

/// Collects spans from any thread. A disabled tracer records nothing
/// and never reads the clock, so untraced runs pay nothing for it.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recording tracer.
    pub fn new() -> Self {
        Self {
            enabled: true,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::new()
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent` (0 for a root).
    pub fn begin(&self, parent: u64, name: &'static str, layer: &'static str) -> Open {
        if !self.enabled {
            return Open {
                id: 0,
                parent,
                name,
                layer,
                start_ns: 0,
            };
        }
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            layer,
            start_ns: self.now_ns(),
        }
    }

    /// Closes a span with no job id and no aggregated children.
    pub fn end(&self, open: Open) {
        self.end_with(open, 0, 0);
    }

    /// Closes a span, tagging it with a job or session id and the summed
    /// duration of child calls that were not kept as spans.
    pub fn end_with(&self, open: Open, job: u64, child_busy_ns: u64) {
        if !self.enabled {
            return;
        }
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            layer: open.layer,
            start_ns: open.start_ns,
            end_ns: self.now_ns().max(open.start_ns),
            tid: thread_id(),
            job,
            child_busy_ns,
        };
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
            .push(span);
    }

    /// Every closed span, ordered by start.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("no thread panics while holding the span list")
            .clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// Self time per layer, in nanoseconds: each span's duration minus the
/// time its child spans cover (their union, clipped to the span) minus
/// its aggregated `child_busy_ns`, summed over the layer's spans.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        children
            .entry(span.parent)
            .or_default()
            .push((span.start_ns, span.end_ns));
    }
    let mut by_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
    for span in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&span.id) {
            kids.sort_unstable();
            let mut run: Option<(u64, u64)> = None;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(span.start_ns), end.min(span.end_ns));
                if start >= end {
                    continue;
                }
                run = match run {
                    Some((s, e)) if start <= e => Some((s, e.max(end))),
                    Some((s, e)) => {
                        covered += e - s;
                        Some((start, end))
                    }
                    None => Some((start, end)),
                };
            }
            if let Some((s, e)) = run {
                covered += e - s;
            }
        }
        let own = span
            .duration_ns()
            .saturating_sub(covered)
            .saturating_sub(span.child_busy_ns);
        *by_layer.entry(span.layer).or_default() += own;
    }
    by_layer
}

/// Renders spans as a Chrome Trace Format document: one complete (`X`)
/// event per span, microsecond timestamps, span/parent/job ids in
/// `args`, and `meta` as top-level `otherData` strings.
pub fn chrome_trace(spans: &[Span], meta: &[(&str, String)]) -> String {
    let mut out = String::with_capacity(128 + spans.len() * 200);
    out.push_str("{\"displayTimeUnit\": \"ns\", \"otherData\": {");
    for (i, (key, value)) in meta.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{}: {}", json_string(key), json_string(value));
    }
    out.push_str("}, \"traceEvents\": [");
    for (i, span) in spans.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        let _ = write!(
            out,
            "{{\"name\": {}, \"cat\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \
             \"ts\": {}, \"dur\": {}, \"args\": {{\"span\": {}, \"parent\": {}, \
             \"job\": {}, \"child_busy_us\": {}}}}}",
            json_string(span.name),
            json_string(span.layer),
            span.tid,
            json_f64(span.start_ns as f64 / 1e3),
            json_f64(span.duration_ns() as f64 / 1e3),
            span.id,
            span.parent,
            span.job,
            json_f64(span.child_busy_ns as f64 / 1e3),
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64, busy: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            layer: if parent == 0 { "root" } else { "child" },
            start_ns,
            end_ns,
            tid: 1,
            job: 0,
            child_busy_ns: busy,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children_and_busy_time() {
        // Two overlapping children cover 10..40 of the root's 0..100;
        // the root also carries 5 ns of aggregated child calls.
        let spans = [
            span(1, 0, 0, 100, 5),
            span(2, 1, 10, 30, 0),
            span(3, 1, 20, 40, 0),
        ];
        let by_layer = self_time_by_layer(&spans);
        assert_eq!(by_layer["root"], 100 - 30 - 5);
        assert_eq!(by_layer["child"], 20 + 20);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        let open = tracer.begin(0, "x", "y");
        assert_eq!(open.id(), 0);
        tracer.end(open);
        assert!(tracer.spans().is_empty());
    }
}
