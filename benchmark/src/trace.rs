//! The traced run's span recorder.
//!
//! A span brackets one call from the benchmark into a public function of
//! some layer: it has a name, a start and end (ns since the recorder was
//! made), the span that caused it and the op it belongs to. Spans stay in
//! memory and are written out once, when the run ends. A span's self time
//! is its duration minus the part of it its child spans cover.
//!
//! A disabled recorder records nothing and costs one branch per call, so
//! the untraced runs that produce the end-to-end metrics go through the
//! same code.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The id of "no span": a root span's parent.
pub const ROOT: u64 = 0;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id (≥ 1).
    pub id: u64,
    /// The span that caused this one, or [`ROOT`].
    pub parent: u64,
    /// The op this span belongs to.
    pub op: u64,
    /// Layer-qualified name, e.g. `trees.sax`.
    pub name: String,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every call a pass-through.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` under `parent` for `op`. `f`
    /// receives the new span's id, to pass as the parent of nested calls.
    pub fn span<T>(&self, name: &str, parent: u64, op: u64, f: impl FnOnce(u64) -> T) -> T {
        self.span_named_after(parent, op, |id| (f(id), name))
    }

    /// [`Tracer::span`] for a call whose span name depends on what the
    /// call did: `f` returns its value and the name.
    pub fn span_named_after<'n, T>(
        &self,
        parent: u64,
        op: u64,
        f: impl FnOnce(u64) -> (T, &'n str),
    ) -> T {
        if !self.enabled {
            return f(ROOT).0;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let (out, name) = f(id);
        let end_ns = self.now_ns();
        self.spans.lock().expect("span list poisoned").push(Span {
            id,
            parent,
            op,
            name: name.to_string(),
            start_ns,
            end_ns,
        });
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Durations in ms of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.durations_ms_in(name, 0..u64::MAX)
    }

    /// Durations in ms of the spans named `name` whose op id lies in `ops`.
    pub fn durations_ms_in(&self, name: &str, ops: std::ops::Range<u64>) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span list poisoned")
            .iter()
            .filter(|s| s.name == name && ops.contains(&s.op))
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Total duration in seconds of every span named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum::<f64>() / 1e3
    }
}

/// Per-name totals: `(count, total ns, self ns)`.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, (u64, u64, u64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != ROOT {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let covered = children.get_mut(&s.id).map_or(0, |iv| union_len(iv, s));
        let e = out.entry(s.name.clone()).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += s.dur_ns().saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals`, clipped to `within`.
fn union_len(intervals: &mut [(u64, u64)], within: &Span) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cur): (u64, Option<(u64, u64)>) = (0, None);
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(within.start_ns), b.min(within.end_ns));
        if a >= b {
            continue;
        }
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

/// Writes every span as a tab-separated row
/// (`id parent op name start_ns end_ns`).
pub fn write_spans(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\top\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// The self-time report: one line per span name, heaviest self time
/// first.
pub fn self_time_report(spans: &[Span]) -> String {
    let table = self_times(spans);
    let all_self: u64 = table.values().map(|v| v.2).sum::<u64>().max(1);
    let mut rows: Vec<_> = table.into_iter().collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1 .2));
    let mut out = format!(
        "{:<40} {:>8} {:>12} {:>12} {:>7}\n",
        "span", "count", "total_ms", "self_ms", "self%"
    );
    for (name, (count, total, own)) in rows {
        out.push_str(&format!(
            "{:<40} {:>8} {:>12.3} {:>12.3} {:>6.1}%\n",
            name,
            count,
            total as f64 / 1e6,
            own as f64 / 1e6,
            100.0 * own as f64 / all_self as f64
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name: name.to_string(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, ROOT, "op", 0, 100),
            span(2, 1, "a", 10, 40),
            span(3, 1, "b", 30, 50),
            span(4, 1, "c", 80, 90),
        ];
        let t = self_times(&spans);
        assert_eq!(t["op"], (1, 100, 50));
        assert_eq!(t["a"], (1, 30, 30));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", ROOT, 1, |id| id), ROOT);
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        let id = t.span("x", ROOT, 1, |id| id);
        assert_eq!(t.spans()[0].id, id);
    }
}
