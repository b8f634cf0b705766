//! The comparison-based computational model (Definition 2.1).
//!
//! A summary in this model may only compare / equality-test items; its
//! memory is an *item array* `I` (items from the stream, sorted
//! non-decreasingly) plus general memory `G` containing no item
//! identifiers. The traits below expose exactly the introspection the
//! lower-bound adversary is entitled to: the contents of `I` and the
//! answers to quantile / rank queries.
//!
//! Genericity over `T: Ord + Clone` *enforces* condition (i) of the
//! definition at the type level: when instantiated with
//! [`cqs_universe::Item`] — whose only public capabilities are
//! comparison, equality, hashing and cloning — a summary physically
//! cannot average, bucket, or otherwise inspect item values.

/// A (deterministic) comparison-based ε-approximate quantile summary,
/// per Definition 2.1 of the paper.
///
/// Implementations must uphold:
///
/// * **(i)** only comparisons/equality tests on items (enforced by
///   genericity when `T` is opaque);
/// * **(ii)** [`item_array`](Self::item_array) returns exactly the items
///   currently stored, sorted non-decreasingly, each of which appeared in
///   the stream;
/// * **(iii)** processing of an arriving item depends only on comparison
///   outcomes against stored items and on general memory;
/// * **(iv)** query answers are stored items, chosen using only `G` and
///   `|I|`.
///
/// The minimum and maximum of the stream are expected to be stored at
/// all times (the paper grants this with O(1) extra space); the
/// adversary asserts it.
pub trait ComparisonSummary<T: Ord + Clone> {
    /// Processes the next stream item.
    fn insert(&mut self, item: T);

    /// Processes a non-decreasing run of stream items, returning the
    /// largest `|I|` observed at any point of the run (the honest space
    /// figure — a summary may compress mid-run, so the final
    /// [`stored_count`](Self::stored_count) can undercount the peak).
    ///
    /// The default falls back to per-item [`insert`](Self::insert), so
    /// every summary keeps working unchanged; implementations with a
    /// cheaper bulk path (e.g. the GK one-pass merge) must behave
    /// *identically* to the fallback — same stored state, same peak.
    ///
    /// Callers must pass `run` sorted non-decreasingly; this is the
    /// order `leaf()` of the adversary already generates.
    fn insert_sorted_run(&mut self, run: &[T]) -> usize {
        let mut peak = 0usize;
        for item in run {
            self.insert(item.clone());
            peak = peak.max(self.stored_count());
        }
        peak
    }

    /// The item array `I`: all stored items, sorted non-decreasingly.
    fn item_array(&self) -> Vec<T>;

    /// Visits the item array in order without materialising it: calls
    /// `f` once per stored item, non-decreasingly — the borrow-friendly
    /// face of [`item_array`](Self::item_array) used by the adversary's
    /// gap scans. The default allocates via `item_array`; summaries on
    /// the adversary hot path override it with a direct walk.
    fn for_each_item(&self, f: &mut dyn FnMut(&T)) {
        for item in self.item_array() {
            f(&item);
        }
    }

    /// Visits, in order, the stored items strictly inside the open
    /// range `(lo, hi)` — `None` meaning unbounded on that side.
    /// Semantically identical to filtering
    /// [`for_each_item`](Self::for_each_item) by `lo < item < hi`; the
    /// default does exactly that, so it is correct for any storage.
    /// Summaries over sorted storage override it to locate the range
    /// start by binary search and stop at the first item `>= hi`,
    /// turning the adversary's per-node interval scans from O(|I|)
    /// into O(log |I| + inside).
    fn for_each_item_between(&self, lo: Option<&T>, hi: Option<&T>, f: &mut dyn FnMut(&T)) {
        let mut past_lo = lo.is_none();
        let mut done = false;
        self.for_each_item(&mut |it| {
            if done {
                return;
            }
            if !past_lo {
                match lo {
                    Some(lo) if *it <= *lo => return,
                    _ => past_lo = true,
                }
            }
            match hi {
                Some(hi) if *it >= *hi => done = true,
                _ => f(it),
            }
        });
    }

    /// Lends, in one call of `lend`, the stored items strictly inside
    /// `(lo, hi)` as a sorted slice of borrows: exactly the items
    /// [`for_each_item_between`](Self::for_each_item_between) visits,
    /// in the same order. `lend` is called exactly once, with an empty
    /// slice when nothing lies inside.
    ///
    /// This is the clone-free read of the adversary's per-leaf audits:
    /// the gap scan ranks the lent slice in one batched walk, and the
    /// Definition 3.2 check reads the ids of the whole array. The
    /// default collects clones from `for_each_item_between`; summaries
    /// on the adversary hot path override it to lend their own storage.
    fn with_items_between(&self, lo: Option<&T>, hi: Option<&T>, lend: &mut dyn FnMut(&[&T])) {
        let mut items = Vec::new();
        self.for_each_item_between(lo, hi, &mut |it| items.push(it.clone()));
        let lent: Vec<&T> = items.iter().collect();
        lend(&lent);
    }

    /// `|I|` — the number of occupied item cells. Must be cheap (the
    /// harness polls it after every insert) and a deterministic function
    /// of the summary state; it should equal `item_array().len()` up to
    /// bookkeeping duplicates (e.g. separately pinned extremes that also
    /// appear in a buffer).
    fn stored_count(&self) -> usize;

    /// Number of stream items processed so far.
    fn items_processed(&self) -> u64;

    /// Answers a rank query: an item whose rank is within εN of `r`
    /// (1 ≤ r ≤ N). Returns `None` only on an empty summary.
    fn query_rank(&self, r: u64) -> Option<T>;

    /// Answers a quantile query ϕ ∈ [0, 1]: convenience wrapper mapping
    /// ϕ to the target rank `clamp(⌊ϕN⌋, 1, N)` per the paper.
    fn quantile(&self, phi: f64) -> Option<T> {
        let n = self.items_processed();
        if n == 0 {
            return None;
        }
        let r = ((phi * n as f64).floor() as u64).clamp(1, n);
        self.query_rank(r)
    }

    /// Answers the quantile query of every ϕ in `phis` into `out`, which
    /// is cleared first: `out[i]` is `quantile(phis[i])`. The default
    /// reads per ϕ; summaries whose reads walk a sorted list override it
    /// to answer a whole grid in one walk, with the same answers.
    fn quantiles(&self, phis: &[f64], out: &mut Vec<Option<T>>) {
        out.clear();
        out.extend(phis.iter().map(|&phi| self.quantile(phi)));
    }

    /// A human-readable algorithm name for reports.
    fn name(&self) -> &'static str {
        "summary"
    }
}

/// A comparison-based data structure for the Estimating Rank problem
/// (Section 6.2): given a query `q` from the universe, return the number
/// of stream items not larger than `q`, up to ±εN.
///
/// Extends [`ComparisonSummary`]: the storage model (Definition 2.1,
/// with item (iv) replaced by its rank-query analogue) is shared, only
/// the query interface differs.
pub trait RankEstimator<T: Ord + Clone>: ComparisonSummary<T> {
    /// Estimated number of stream items `<= q`, for any universe item
    /// `q` (present in the stream or not).
    fn estimate_rank(&self, q: &T) -> u64;
}

/// Wrapper that tracks the *maximum* item-array size over the lifetime
/// of a summary.
///
/// The paper assumes |I| never decreases ("otherwise, we would need to
/// take the maximum size of |I| during the computation"); real summaries
/// like GK shrink after a compress, so the honest figure to report
/// against the lower bound is the running maximum.
pub struct MaxSpaceTracker<S> {
    inner: S,
    max_stored: usize,
}

impl<S> MaxSpaceTracker<S> {
    /// Wraps a summary.
    pub fn new(inner: S) -> Self {
        MaxSpaceTracker {
            inner,
            max_stored: 0,
        }
    }

    /// Largest `stored_count()` observed after any insert.
    pub fn max_stored(&self) -> usize {
        self.max_stored
    }

    /// The wrapped summary.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Consumes the wrapper.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<T: Ord + Clone, S: ComparisonSummary<T>> ComparisonSummary<T> for MaxSpaceTracker<S> {
    fn insert(&mut self, item: T) {
        self.inner.insert(item);
        self.max_stored = self.max_stored.max(self.inner.stored_count());
    }

    fn insert_sorted_run(&mut self, run: &[T]) -> usize {
        // Delegate so the inner summary's bulk path is used; its reported
        // intra-run peak keeps `max_stored` byte-identical to the
        // per-item fallback (which polls after every insert).
        let peak = self.inner.insert_sorted_run(run);
        self.max_stored = self.max_stored.max(peak);
        peak
    }

    fn item_array(&self) -> Vec<T> {
        self.inner.item_array()
    }

    fn for_each_item(&self, f: &mut dyn FnMut(&T)) {
        self.inner.for_each_item(f)
    }

    fn for_each_item_between(&self, lo: Option<&T>, hi: Option<&T>, f: &mut dyn FnMut(&T)) {
        self.inner.for_each_item_between(lo, hi, f)
    }

    fn with_items_between(&self, lo: Option<&T>, hi: Option<&T>, lend: &mut dyn FnMut(&[&T])) {
        self.inner.with_items_between(lo, hi, lend)
    }

    fn stored_count(&self) -> usize {
        self.inner.stored_count()
    }

    fn items_processed(&self) -> u64 {
        self.inner.items_processed()
    }

    fn query_rank(&self, r: u64) -> Option<T> {
        self.inner.query_rank(r)
    }

    fn quantiles(&self, phis: &[f64], out: &mut Vec<Option<T>>) {
        self.inner.quantiles(phis, out)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ExactSummary;

    #[test]
    fn quantile_maps_phi_to_clamped_rank() {
        let mut s = ExactSummary::new();
        for x in 1..=10u32 {
            s.insert(x);
        }
        // ϕ = 0 clamps to rank 1; ϕ = 1 to rank N.
        assert_eq!(s.quantile(0.0), Some(1));
        assert_eq!(s.quantile(1.0), Some(10));
        assert_eq!(s.quantile(0.5), Some(5)); // ⌊0.5·10⌋ = 5
    }

    #[test]
    fn quantile_on_empty_summary_is_none() {
        let s: ExactSummary<u32> = ExactSummary::new();
        assert_eq!(s.quantile(0.5), None);
    }

    #[test]
    fn max_space_tracker_records_peak() {
        let mut s = MaxSpaceTracker::new(ExactSummary::new());
        for x in 0..100u32 {
            s.insert(x);
        }
        assert_eq!(s.max_stored(), 100);
        assert_eq!(s.stored_count(), 100);
    }
}
