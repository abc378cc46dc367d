//! In-memory span recorder for the traced run.
//!
//! Spans are opened around the benchmark's own calls into the workspace
//! crates (the program itself carries no tracing). Each thread records
//! into its own buffer; [`take`] hands a thread's spans to the caller,
//! which writes them out when the workload ends. With tracing off,
//! [`span`] is one relaxed atomic load and records nothing.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// The root span: the measured phase of a workload.
pub const ROOT: &str = "bench.measure";
/// Spans that only group other spans. Their self time is wall that no
/// layer accounts for.
pub const WRAPPERS: [&str; 3] = [ROOT, "design.pass", "design.scenario"];

static ENABLED: AtomicBool = AtomicBool::new(false);
static ORIGIN: OnceLock<Instant> = OnceLock::new();

/// One recorded span. Times are nanoseconds since the process-wide origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same thread's buffer.
    pub parent: Option<usize>,
    /// Tick, cell, pass or scenario id the span belongs to.
    pub id: u64,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

#[derive(Default)]
struct Recorder {
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Turns recording on for every thread. Call before spawning workers.
pub fn enable() {
    ORIGIN.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn now_ns() -> u64 {
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Closes its span when dropped.
pub struct Guard(Option<usize>);

/// Opens a span named `name` under the innermost open span of this thread.
#[must_use]
pub fn span(name: &'static str, id: u64) -> Guard {
    if !enabled() {
        return Guard(None);
    }
    let start_ns = now_ns();
    let idx = REC.with(|r| {
        let mut r = r.borrow_mut();
        let idx = r.spans.len();
        let parent = r.open.last().copied();
        r.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
        });
        r.open.push(idx);
        idx
    });
    Guard(Some(idx))
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(idx) = self.0 {
            let end_ns = now_ns();
            REC.with(|r| {
                let mut r = r.borrow_mut();
                r.spans[idx].end_ns = end_ns;
                r.open.retain(|&i| i != idx);
            });
        }
    }
}

/// Runs `f` inside a span.
pub fn within<T>(name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
    let _g = span(name, id);
    f()
}

/// Runs `f` inside a span and returns its result with its wall seconds.
pub fn timed<T>(name: &'static str, id: u64, f: impl FnOnce() -> T) -> (T, f64) {
    let _g = span(name, id);
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Takes every span this thread recorded.
pub fn take() -> Vec<Span> {
    REC.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Self time of each span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut out: Vec<f64> = spans.iter().map(Span::dur_s).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] -= s.dur_s();
        }
    }
    out
}

/// Marks the spans of the measured phase: the first root span and every
/// span under it. A parent is always recorded before its children.
pub fn under_root(spans: &[Span]) -> Vec<bool> {
    let mut inside = vec![false; spans.len()];
    if let Some(root) = spans.iter().position(|s| s.name == ROOT) {
        for i in root..spans.len() {
            inside[i] = i == root || spans[i].parent.is_some_and(|p| p >= root && inside[p]);
        }
    }
    inside
}

/// Per-name totals over the measured phase: `(count, total seconds, self
/// seconds)`.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let selfs = self_times(spans);
    let inside = under_root(spans);
    let mut map: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for ((s, own), _) in spans.iter().zip(selfs).zip(inside).filter(|x| x.1) {
        let e = map.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_s();
        e.2 += own;
    }
    map
}

/// Share of the measured wall `measured_s` that layer spans account for:
/// one minus the unattributed wall over `measured_s`. Unattributed is the
/// self time of the wrapper spans of the measured phase (the root
/// included), plus the difference between the root span and
/// `measured_s`. Only the first thread with a root span counts; layer
/// spans on other threads run beside it.
pub fn coverage(threads: &[Vec<Span>], measured_s: f64) -> f64 {
    let Some((spans, root)) = threads
        .iter()
        .find_map(|t| t.iter().position(|s| s.name == ROOT).map(|r| (t, r)))
    else {
        return 0.0;
    };
    let inside = under_root(spans);
    let selfs = self_times(spans);
    let wrapped: f64 = (0..spans.len())
        .filter(|&i| inside[i] && WRAPPERS.contains(&spans[i].name))
        .map(|i| selfs[i])
        .sum();
    let outside = (measured_s - spans[root].dur_s()).abs();
    1.0 - (wrapped + outside) / measured_s
}

/// Renders spans as one JSON object per line, tagged with `thread`.
pub fn to_json_lines(thread: &str, spans: &[Span], out: &mut String) {
    use std::fmt::Write as _;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"thread\": \"{thread}\", \"idx\": {i}, \"name\": \"{}\", \"start_ns\": {}, \
             \"end_ns\": {}, \"parent\": {parent}, \"id\": {}}}",
            s.name, s.start_ns, s.end_ns, s.id
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span(ROOT, 0, 100, None),
            span("child", 10, 40, Some(0)),
            span("child", 50, 60, Some(0)),
        ];
        let selfs = self_times(&spans);
        assert!((selfs[0] - 60e-9).abs() < 1e-15);
        let t = totals(&spans);
        assert_eq!(t["child"].0, 2);
        assert!((t["child"].1 - 40e-9).abs() < 1e-15);
    }

    #[test]
    fn totals_skip_spans_outside_the_measured_phase() {
        let spans = vec![
            span("bench.setup", 0, 50, None),
            span("core.sweep", 10, 40, Some(0)),
            span(ROOT, 50, 100, None),
            span("core.sweep", 60, 90, Some(2)),
        ];
        let t = totals(&spans);
        assert_eq!(t["core.sweep"].0, 1);
        assert!(!t.contains_key("bench.setup"));
    }

    /// A design-like tree: measure > pass > scenario > layers, where the
    /// layers fill the scenario except for `gap` nanoseconds.
    fn design_tree(with_sweep: bool) -> Vec<Span> {
        let mut spans = vec![
            span(ROOT, 0, 1000, None),
            span("design.pass", 5, 995, Some(0)),
            span("design.scenario", 10, 990, Some(1)),
            span("thermal.context", 10, 100, Some(2)),
        ];
        if with_sweep {
            spans.push(span("core.sweep", 100, 900, Some(2)));
        }
        spans.push(span("core.store_save", 900, 980, Some(2)));
        spans
    }

    #[test]
    fn coverage_counts_layer_spans_only() {
        let c = coverage(&[design_tree(true)], 1000e-9);
        assert!((c - 0.97).abs() < 1e-9, "coverage {c}");
    }

    #[test]
    fn coverage_fails_when_a_layer_span_is_missing() {
        let c = coverage(&[design_tree(false)], 1000e-9);
        assert!(c < 0.9, "coverage {c}");
    }

    #[test]
    fn coverage_counts_wall_outside_the_root() {
        let spans = vec![
            span(ROOT, 0, 500, None),
            span("core.sweep", 0, 500, Some(0)),
        ];
        let c = coverage(&[spans], 1000e-9);
        assert!((c - 0.5).abs() < 1e-9, "coverage {c}");
        assert_eq!(
            coverage(&[vec![span("core.sweep", 0, 10, None)]], 1e-8),
            0.0
        );
    }
}
