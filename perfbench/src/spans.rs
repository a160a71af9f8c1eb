//! In-memory spans recorded from the benchmark's own code around calls
//! into the engine's public API.
//!
//! A span has a name, a start, an end and a parent; spans of one lifecycle
//! run or one request share a trace id. Spans are kept in memory and written
//! out once, when the run ends. A disabled recorder only calls the wrapped
//! closure.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder was created.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Shared by every span of one run or request.
    pub trace: u64,
    /// Unique within the recorder (ids start at 1).
    pub id: u64,
    /// Id of the enclosing span; 0 for a root.
    pub parent: u64,
    /// Layer-qualified name such as `ml.fold_fit`.
    pub name: &'static str,
    /// Start, in ns.
    pub start: u64,
    /// End, in ns.
    pub end: u64,
}

impl Span {
    /// Wall time of the span in ns.
    #[must_use]
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Where a new span attaches: its trace and its parent span.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ctx {
    trace: u64,
    span: u64,
}

impl Ctx {
    /// Id of the span this context belongs to (0 when not recording).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.span
    }
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A recorder that keeps spans (`enabled`) or records nothing.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are kept.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Context for the first span of a new trace, attached under `parent`
    /// (pass `Ctx::default()` for a trace with no parent).
    #[must_use]
    pub fn new_trace(&self, parent: Ctx) -> Ctx {
        if !self.enabled {
            return Ctx::default();
        }
        Ctx {
            trace: self.next_id.fetch_add(1, Ordering::Relaxed),
            span: parent.span,
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives the
    /// context its own child spans attach to.
    pub fn span<R>(&self, parent: Ctx, name: &'static str, f: impl FnOnce(Ctx) -> R) -> R {
        if !self.enabled {
            return f(Ctx::default());
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.now();
        let out = f(Ctx {
            trace: parent.trace,
            span: id,
        });
        let end = self.now();
        self.push(Span {
            trace: parent.trace,
            id,
            parent: parent.span,
            name,
            start,
            end,
        });
        out
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("a span writer panicked while holding the span list")
            .push(span);
    }

    /// Every span recorded so far, in closing order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("a span writer panicked while holding the span list")
            .clone()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (start, end) in intervals {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            cursor = end;
        }
    }
    total
}

/// Self time in ns of each span: its duration minus the part of it that
/// its children cover. Children that run in parallel count once.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<(Span, u64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.get(&s.id).cloned().unwrap_or_default();
            (*s, s.duration() - covered(kids, s.start, s.end))
        })
        .collect()
}

/// Total self time in ms per span name over `spans`.
#[must_use]
pub fn self_ms_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (span, own) in self_times(spans) {
        #[allow(clippy::cast_precision_loss)]
        let own_ms = own as f64 / 1e6;
        *out.entry(span.name).or_default() += own_ms;
    }
    out
}

/// The span with id `root` and every span nested under it, whatever trace
/// the descendants carry.
#[must_use]
pub fn subtree(spans: &[Span], root: u64) -> Vec<Span> {
    let mut keep: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
    keep.insert(root);
    // Spans close child-first, so walk parents until no new id joins.
    loop {
        let before = keep.len();
        for s in spans {
            if keep.contains(&s.parent) {
                keep.insert(s.id);
            }
        }
        if keep.len() == before {
            break;
        }
    }
    spans
        .iter()
        .filter(|s| keep.contains(&s.id))
        .copied()
        .collect()
}

/// Writes `spans` as JSON lines to `path`, creating its directory.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"trace\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.trace, s.id, s.parent, s.name, s.start, s.end
        );
    }
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            trace: 1,
            id,
            parent,
            name,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(2, 1, "job", 10, 60),
            span(3, 1, "job", 40, 90),
            span(1, 0, "fanout", 0, 100),
        ];
        let by_name = self_times(&spans);
        let fanout = by_name.iter().find(|(s, _)| s.id == 1).unwrap().1;
        // Children cover 10..90 once, although they overlap.
        assert_eq!(fanout, 20);
        assert_eq!(subtree(&spans, 1).len(), 3);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let rec = Recorder::new(false);
        let v = rec.span(Ctx::default(), "x", |_| 7);
        assert_eq!(v, 7);
        assert!(rec.spans().is_empty());
    }
}
