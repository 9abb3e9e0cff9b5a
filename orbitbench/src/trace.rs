//! Spans recorded from the benchmark's own code around each call it makes
//! into a layer of the program.
//!
//! A span holds a name, start, end, the span that caused it and a request
//! id. Spans live in memory until the run ends; [`Tracer::write_json`]
//! writes them out. A disabled tracer records nothing and costs one branch
//! per span, which is how the untraced runs measure the end-to-end metrics.

use serde::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span id, unique within a run (0 is never used).
    pub id: u32,
    /// Layer call the span covers, e.g. `serve.tcp.response_decode`.
    pub name: &'static str,
    /// Start, ns since epoch.
    pub start: u64,
    /// End, ns since epoch.
    pub end: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u32>,
    /// Request (or step) the span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

/// An open span; it records itself when dropped or [`SpanGuard::end`]ed.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    open: Option<(u32, &'static str, u64, Option<u32>, u64)>,
}

impl SpanGuard<'_> {
    /// The span's id, for children to name as their parent (`None` when
    /// tracing is off).
    pub fn id(&self) -> Option<u32> {
        self.open.map(|(id, ..)| id)
    }

    /// Close the span now.
    pub fn end(self) {}
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some((id, name, start, parent, request)) = self.open.take() {
            let end = self.tracer.now();
            self.tracer.push(Span {
                id,
                name,
                start,
                end,
                parent,
                request,
            });
        }
    }
}

impl Tracer {
    /// A tracer; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("span list poisoned by a panicking recorder")
            .push(span);
    }

    /// Open a span under `parent` for `request`.
    pub fn span(&self, name: &'static str, parent: Option<u32>, request: u64) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                tracer: self,
                open: None,
            };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        SpanGuard {
            tracer: self,
            open: Some((id, name, self.now(), parent, request)),
        }
    }

    /// Reserve a span id for a span recorded later with
    /// [`Tracer::record_with_id`], so children can name it first.
    pub fn reserve(&self) -> Option<u32> {
        self.enabled
            .then(|| self.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Record a caller-measured span under a reserved id.
    pub fn record_with_id(
        &self,
        id: Option<u32>,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        request: u64,
    ) {
        let Some(id) = id else { return };
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.push(Span {
            id,
            name,
            start: at(start),
            end: at(end),
            parent,
            request,
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list poisoned by a panicking recorder")
            .clone()
    }

    /// Durations in ms of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration() as f64 / 1e6)
            .collect()
    }

    /// Write the spans and their per-name self-time summary as JSON.
    pub fn write_json(&self, path: &std::path::Path, header: Value) -> std::io::Result<()> {
        let spans = self.spans();
        let selfs = self_times(&spans);
        let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (s, self_ns) in spans.iter().zip(&selfs) {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.duration();
            e.2 += self_ns;
        }
        let summary: BTreeMap<String, Value> = by_name
            .into_iter()
            .map(|(name, (count, total, self_ns))| {
                let mut o = BTreeMap::new();
                o.insert("count".to_string(), Value::Number(count as f64));
                o.insert("total_ms".to_string(), Value::Number(total as f64 / 1e6));
                o.insert("self_ms".to_string(), Value::Number(self_ns as f64 / 1e6));
                (name.to_string(), Value::Object(o))
            })
            .collect();
        let list: Vec<Value> = spans
            .iter()
            .zip(&selfs)
            .map(|(s, self_ns)| {
                let mut o = BTreeMap::new();
                o.insert("id".to_string(), Value::Number(f64::from(s.id)));
                o.insert("name".to_string(), Value::String(s.name.to_string()));
                o.insert("start_ns".to_string(), Value::Number(s.start as f64));
                o.insert("end_ns".to_string(), Value::Number(s.end as f64));
                o.insert(
                    "parent".to_string(),
                    s.parent
                        .map_or(Value::Null, |p| Value::Number(f64::from(p))),
                );
                o.insert("request".to_string(), Value::Number(s.request as f64));
                o.insert("self_ns".to_string(), Value::Number(*self_ns as f64));
                Value::Object(o)
            })
            .collect();
        let mut root = BTreeMap::new();
        root.insert("run".to_string(), header);
        root.insert("self_time_by_span".to_string(), Value::Object(summary));
        root.insert("spans".to_string(), Value::Array(list));
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let text = serde_json::to_string(&Value::Object(root)).map_err(std::io::Error::other)?;
        std::fs::write(path, text)
    }
}

/// Self time of every span, in the order given: its duration minus the part
/// of its interval covered by its children (overlapping children count
/// once; the parts of children outside the parent do not count).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get(&s.id)
                .map_or(0, |kids| covered_within(kids, s.start, s.end));
            s.duration().saturating_sub(covered)
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_within(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in clipped {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Total self time in ms per layer, where a span's layer is the first
/// dot-separated part of its name (`serve.tcp.send` → `serve`).
pub fn self_ms_by_layer(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let layer = s.name.split('.').next().unwrap_or(s.name).to_string();
        *out.entry(layer).or_insert(0.0) += self_ns as f64 / 1e6;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            id,
            name: "x.y",
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent [0, 100]; children [10, 30] and [20, 50] overlap (union 40),
        // [80, 120] sticks out past the parent's end (20 inside).
        let spans = vec![
            span(1, 0, 100, None),
            span(2, 10, 30, Some(1)),
            span(3, 20, 50, Some(1)),
            span(4, 80, 120, Some(1)),
            span(5, 12, 18, Some(2)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - 40 - 20);
        // Child 2 [10, 30] has grandchild [12, 18].
        assert_eq!(selfs[1], 20 - 6);
        assert_eq!(selfs[2], 30);
        assert_eq!(selfs[3], 40);
        assert_eq!(selfs[4], 6);
    }

    #[test]
    fn self_time_of_fully_covered_parent_is_zero() {
        let spans = vec![span(1, 5, 10, None), span(2, 0, 20, Some(1))];
        assert_eq!(self_times(&spans), vec![0, 20]);
    }

    #[test]
    fn layer_totals_split_on_the_first_dot() {
        let mut spans = vec![span(1, 0, 1_000_000, None), span(2, 0, 400_000, Some(1))];
        spans[0].name = "serve.request";
        spans[1].name = "climate.sample";
        let by_layer = self_ms_by_layer(&spans);
        assert!((by_layer["serve"] - 0.6).abs() < 1e-12);
        assert!((by_layer["climate"] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        {
            let g = t.span("a.b", None, 1);
            assert_eq!(g.id(), None);
        }
        assert!(t.spans().is_empty());
        let on = Tracer::new(true);
        let parent = on.span("a.b", None, 1);
        let pid = parent.id();
        on.span("a.c", pid, 1).end();
        parent.end();
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, pid);
    }
}
