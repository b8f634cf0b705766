//! Benchmark-side tracing.
//!
//! Spans are recorded only by benchmark code: around calls into each
//! layer's public functions, and inside [`Traced`], a summary wrapper
//! that spans the summary's own entry points. Each span also carries a
//! work count and the number of item comparisons its thread made while
//! it was open ([`Counted`] items feed that counter), so ratios are
//! measured where the work happens.
//!
//! Spans stay in memory until the workload drains them with
//! [`take_spans`]; recording is off unless [`set_enabled`] turned it on,
//! so untraced runs pay one relaxed load per span site.

use std::cell::{Cell, RefCell};
use std::cmp::Ordering as CmpOrdering;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use cqs_core::{ComparisonSummary, MergeError, MergeableSummary};

/// One closed span. `parent` is 0 for a span opened with no enclosing
/// span on its thread.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub rep: u32,
    /// Work done inside the span, in the layer's own unit (items,
    /// bytes, calls).
    pub units: u64,
    /// Item comparisons made on the span's thread while it was open.
    pub cmps: u64,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }

    /// One line of `trace.jsonl`.
    pub fn to_json_line(&self, workload: &str) -> String {
        format!(
            "{{\"workload\":\"{workload}\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"rep\":{},\"units\":{},\"cmps\":{}}}",
            self.id, self.parent, self.name, self.start_ns, self.end_ns, self.rep, self.units, self.cmps
        )
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static REP: AtomicU32 = AtomicU32::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// A thread's open span ids, and the spans it closed inside its current
/// outermost span. They move to [`SPANS`] when that span closes, so
/// nested spans never touch the shared lock.
struct ThreadSpans {
    open: Vec<u64>,
    closed: Vec<Span>,
}

thread_local! {
    static THREAD: RefCell<ThreadSpans> = const {
        RefCell::new(ThreadSpans { open: Vec::new(), closed: Vec::new() })
    };
    static CMPS: Cell<u64> = const { Cell::new(0) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns span recording on or off.
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

/// Tags spans recorded from now on with repetition `rep`.
pub fn set_rep(rep: u32) {
    REP.store(rep, Ordering::Relaxed);
}

/// Drains every span recorded so far.
pub fn take_spans() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("a span recorder thread panicked"))
}

/// Comparisons made on this thread by [`Counted`] items so far.
pub fn comparisons() -> u64 {
    CMPS.with(Cell::get)
}

/// Runs `f` inside a span named `name`; `f` returns its result and the
/// work count it did.
pub fn span_with<R>(name: &'static str, f: impl FnOnce() -> (R, u64)) -> R {
    if !ENABLED.load(Ordering::Relaxed) {
        return f().0;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = THREAD.with(|t| {
        let mut t = t.borrow_mut();
        let parent = t.open.last().copied().unwrap_or(0);
        t.open.push(id);
        parent
    });
    let cmps_before = comparisons();
    let start_ns = now_ns();
    let (out, units) = f();
    let end_ns = now_ns();
    let cmps = comparisons() - cmps_before;
    THREAD.with(|t| {
        let mut t = t.borrow_mut();
        t.open.pop();
        t.closed.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            rep: REP.load(Ordering::Relaxed),
            units,
            cmps,
        });
        if t.open.is_empty() {
            SPANS
                .lock()
                .expect("a span recorder thread panicked")
                .append(&mut t.closed);
        }
    });
    out
}

/// [`span_with`] for a work count known up front.
pub fn span<R>(name: &'static str, units: u64, f: impl FnOnce() -> R) -> R {
    span_with(name, || (f(), units))
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    pub count: u64,
    /// Summed span durations.
    pub total_s: f64,
    /// Summed durations minus the time covered by same-thread children.
    pub self_s: f64,
    pub units: u64,
    pub cmps: u64,
}

/// [`Totals`] per span name.
pub struct Layers(BTreeMap<&'static str, Totals>);

impl Layers {
    /// The totals of `name`; zero when no span had that name.
    pub fn get(&self, name: &str) -> Totals {
        self.0.get(name).copied().unwrap_or_default()
    }
}

/// Aggregates `spans` by name. A span's self time is its duration minus
/// its children's durations; children are the spans whose `parent` is
/// its id, which only same-thread spans can be.
pub fn totals(spans: &[Span]) -> Layers {
    let mut child_s: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_s.entry(s.parent).or_default() += s.dur_s();
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_s += s.dur_s();
        t.self_s += s.dur_s() - child_s.get(&s.id).copied().unwrap_or(0.0);
        t.units += s.units;
        t.cmps += s.cmps;
    }
    Layers(out)
}

/// A summary whose entry points record spans: `summary.insert`,
/// `summary.scan` (the item-array visitors), `summary.query`,
/// `summary.merge` and `summary.clone`. Behaviour is the wrapped
/// summary's: every call delegates unchanged.
pub struct Traced<S>(pub S);

impl<S: Clone> Clone for Traced<S> {
    fn clone(&self) -> Self {
        span("summary.clone", 1, || Traced(self.0.clone()))
    }
}

impl<T: Ord + Clone, S: ComparisonSummary<T>> ComparisonSummary<T> for Traced<S> {
    fn insert(&mut self, item: T) {
        span("summary.insert", 1, || self.0.insert(item))
    }

    fn insert_sorted_run(&mut self, run: &[T]) -> usize {
        span("summary.insert", run.len() as u64, || {
            self.0.insert_sorted_run(run)
        })
    }

    fn item_array(&self) -> Vec<T> {
        span_with("summary.scan", || {
            let items = self.0.item_array();
            let n = items.len() as u64;
            (items, n)
        })
    }

    fn for_each_item(&self, f: &mut dyn FnMut(&T)) {
        span_with("summary.scan", || {
            let mut n = 0u64;
            self.0.for_each_item(&mut |it| {
                n += 1;
                f(it)
            });
            ((), n)
        })
    }

    fn for_each_item_between(&self, lo: Option<&T>, hi: Option<&T>, f: &mut dyn FnMut(&T)) {
        span_with("summary.scan", || {
            let mut n = 0u64;
            self.0.for_each_item_between(lo, hi, &mut |it| {
                n += 1;
                f(it)
            });
            ((), n)
        })
    }

    fn stored_count(&self) -> usize {
        self.0.stored_count()
    }

    fn items_processed(&self) -> u64 {
        self.0.items_processed()
    }

    fn query_rank(&self, r: u64) -> Option<T> {
        span("summary.query", 1, || self.0.query_rank(r))
    }

    fn quantile(&self, phi: f64) -> Option<T> {
        span("summary.query", 1, || self.0.quantile(phi))
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

impl<T: Ord + Clone, S: MergeableSummary<T>> MergeableSummary<T> for Traced<S> {
    fn try_merge(&mut self, other: &Self) -> Result<(), MergeError> {
        span("summary.merge", 1, || self.0.try_merge(&other.0))
    }

    fn eps_bound(&self) -> Option<f64> {
        self.0.eps_bound()
    }
}

/// A `u64` item that counts every comparison and equality test made on
/// it — Definition 2.1's only item operations — in a per-thread counter
/// read by [`comparisons`].
#[derive(Clone, Copy, Debug)]
pub struct Counted(pub u64);

fn bump() {
    CMPS.with(|c| c.set(c.get() + 1));
}

impl PartialEq for Counted {
    fn eq(&self, other: &Self) -> bool {
        bump();
        self.0 == other.0
    }
}

impl Eq for Counted {}

impl PartialOrd for Counted {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

impl Ord for Counted {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        bump();
        self.0.cmp(&other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counted_items_count_each_comparison_once() {
        let before = comparisons();
        let (a, b) = (Counted(1), Counted(2));
        assert!(a < b);
        assert!(a != b);
        assert_eq!(a.cmp(&b), CmpOrdering::Less);
        assert_eq!(comparisons() - before, 3);
    }

    #[test]
    fn self_time_excludes_children() {
        let spans = vec![
            Span {
                id: 1,
                parent: 0,
                name: "outer",
                start_ns: 0,
                end_ns: 1_000,
                rep: 0,
                units: 0,
                cmps: 0,
            },
            Span {
                id: 2,
                parent: 1,
                name: "inner",
                start_ns: 100,
                end_ns: 400,
                rep: 0,
                units: 7,
                cmps: 3,
            },
        ];
        let t = totals(&spans);
        assert!((t.get("outer").self_s - 700e-9).abs() < 1e-15);
        assert!((t.get("inner").self_s - 300e-9).abs() < 1e-15);
        assert_eq!(t.get("inner").units, 7);
        assert_eq!(t.get("absent").count, 0);
    }
}
