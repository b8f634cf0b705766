//! The greedy GK variant: merge adjacent tuples whenever the combined
//! span fits, with no band bookkeeping. Only this COMPRESS is its own;
//! the rest is the [`TupleList`] core the banded summary holds too.
//!
//! Suggested in the original GK paper and reported by Luo et al. to
//! outperform the banded version in practice; whether it retains the
//! O((1/ε)·log εN) worst-case bound is the open problem recalled in
//! Section 6 of the lower-bound paper. The ablation benches compare the
//! two head-to-head, including on the adversarial streams.

use std::borrow::Cow;

use cqs_core::{ComparisonSummary, MergeError, MergeableSummary, RankEstimator};

use crate::tuple::{default_period, GkTuple, TupleList};

/// Greedy-merge GK summary.
#[derive(Clone, Debug)]
pub struct GreedyGk<T> {
    list: TupleList<T>,
}

impl<T: Ord + Clone> GreedyGk<T> {
    /// Creates a summary with guarantee ε ∈ (0, 0.5).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range ε.
    pub fn new(eps: f64) -> Self {
        Self::with_compress_period(eps, default_period(eps))
    }

    /// Creates a summary compressing every `period` inserts (ablation
    /// knob; see [`crate::GkSummary::with_compress_period`]).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range ε or a zero period.
    pub fn with_compress_period(eps: f64, period: u64) -> Self {
        GreedyGk {
            list: TupleList::new(eps, period),
        }
    }

    /// The configured ε.
    pub fn eps(&self) -> f64 {
        self.list.eps
    }

    /// The tuples in order, pending inserts included (diagnostics).
    pub fn tuples(&self) -> Cow<'_, [GkTuple<T>]> {
        self.list.tuples()
    }

    /// The persistent state as `(tuples, n, eps, compress_period)`; see
    /// [`crate::GkSummary::snapshot_parts`].
    pub fn snapshot_parts(&self) -> (Cow<'_, [GkTuple<T>]>, u64, f64, u64) {
        self.list.snapshot_parts()
    }

    /// Rebuilds a summary from snapshot parts with the same validation
    /// as [`crate::GkSummary::from_snapshot_parts`].
    pub fn from_snapshot_parts(
        tuples: Vec<GkTuple<T>>,
        n: u64,
        eps: f64,
        compress_period: u64,
    ) -> Result<Self, String> {
        TupleList::from_parts(tuples, n, eps, compress_period).map(|list| GreedyGk { list })
    }

    /// Merges another greedy-GK summary into this one, as
    /// [`crate::GkSummary::merge`] does but with a greedy compress.
    pub fn merge(&mut self, other: &GreedyGk<T>) {
        self.list.merge(&other.list, compress);
    }

    /// The correctness invariant shared with the banded variant.
    pub fn invariant_holds(&self) -> bool {
        self.list.invariant_holds()
    }

    /// Flushes pending inserts, then compresses at threshold `cap`.
    pub(crate) fn compress(&mut self, cap: u64) {
        compress(self.list.spliced(), cap);
    }
}

/// Greedy compress: one right-to-left pass merging `t_i` into `t_{i+1}`
/// whenever `g_i + g_{i+1} + Δ_{i+1} < cap` (the successor absorbs the
/// mass and keeps its own Δ, so the test is exactly the post-merge
/// span). Cascades naturally: an absorber's grown `g` is what the next
/// candidate is tested against. The first and last tuples (stream
/// extremes) are never removed.
///
/// Runs in place: an absorbed tuple is marked dead via `g = 0` (live
/// tuples always carry `g >= 1`) and swept out by one `retain` pass, as
/// shuffling the whole vector through a scratch buffer every period
/// dominated the greedy insert path.
pub(crate) fn compress<T>(tuples: &mut Vec<GkTuple<T>>, cap: u64) {
    if tuples.len() < 3 || cap < 2 {
        return;
    }
    let mut succ = tuples.len() - 1;
    for i in (1..tuples.len() - 1).rev() {
        let t_g = tuples.get(i).map_or(0, |t| t.g);
        let fits = tuples.get(succ).is_some_and(|s| t_g + s.g + s.delta < cap);
        if fits {
            if let Some(s) = tuples.get_mut(succ) {
                s.g += t_g;
            }
            if let Some(t) = tuples.get_mut(i) {
                t.g = 0;
            }
        } else {
            succ = i;
        }
    }
    tuples.retain(|t| t.g != 0);
}

impl<T: Ord + Clone> ComparisonSummary<T> for GreedyGk<T> {
    fn insert(&mut self, item: T) {
        self.list.push(item, compress);
    }

    fn insert_sorted_run(&mut self, run: &[T]) -> usize {
        self.list.insert_sorted_run(run, compress)
    }

    fn item_array(&self) -> Vec<T> {
        self.list.item_array()
    }

    fn for_each_item(&self, f: &mut dyn FnMut(&T)) {
        self.list.for_each_item(f)
    }

    fn for_each_item_between(&self, lo: Option<&T>, hi: Option<&T>, f: &mut dyn FnMut(&T)) {
        self.list.for_each_item_between(lo, hi, f)
    }

    fn with_items_between(&self, lo: Option<&T>, hi: Option<&T>, lend: &mut dyn FnMut(&[&T])) {
        self.list.with_items_between(lo, hi, lend)
    }

    fn stored_count(&self) -> usize {
        self.list.len()
    }

    fn items_processed(&self) -> u64 {
        self.list.n
    }

    fn query_rank(&self, r: u64) -> Option<T> {
        self.list.query_rank(r)
    }

    fn quantiles(&self, phis: &[f64], out: &mut Vec<Option<T>>) {
        self.list.quantiles(phis, out)
    }

    fn name(&self) -> &'static str {
        "gk-greedy"
    }
}

impl<T: Ord + Clone> RankEstimator<T> for GreedyGk<T> {
    fn estimate_rank(&self, q: &T) -> u64 {
        self.list.estimate_rank(q)
    }
}

impl<T: Ord + Clone> MergeableSummary<T> for GreedyGk<T> {
    /// Same contract as the banded variant: composed-ε range check up
    /// front, widened-bounds fold, span-invariant re-validation after.
    fn try_merge(&mut self, other: &Self) -> Result<(), MergeError> {
        self.list.try_merge(&other.list, compress)
    }

    fn eps_bound(&self) -> Option<f64> {
        Some(self.list.eps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mass_conservation_under_greedy_merging() {
        let mut gk = GreedyGk::new(0.02);
        for i in 0..5000u64 {
            gk.insert((i * 48271) % 100_000);
        }
        let mass: u64 = gk.tuples().iter().map(|t| t.g).sum();
        assert_eq!(mass, 5000);
    }

    #[test]
    fn invariant_holds_on_random_inserts() {
        let mut gk = GreedyGk::new(0.05);
        for i in 0..3000u64 {
            gk.insert((i * 2654435761) % 4096);
            assert!(gk.invariant_holds(), "broken at n={}", i + 1);
        }
    }

    #[test]
    fn sorted_stream_compresses_aggressively() {
        let mut gk = GreedyGk::new(0.1);
        for x in 0..2000u64 {
            gk.insert(x);
        }
        assert!(gk.stored_count() < 400);
        assert!(gk.invariant_holds());
    }

    #[test]
    fn extremes_survive_merging() {
        let mut gk = GreedyGk::new(0.05);
        for x in (0..4000u64).rev() {
            gk.insert(x);
        }
        let arr = gk.item_array();
        assert_eq!(arr[0], 0);
        assert_eq!(*arr.last().unwrap(), 3999);
    }
}
