//! A space-capped (and therefore *incorrect*) GK variant.
//!
//! `CappedGk` runs the greedy algorithm but, whenever the tuple count
//! exceeds a hard budget, keeps merging with an ever-larger threshold
//! until it fits. The `(g, Δ)` bookkeeping stays internally consistent —
//! the summary just silently abandons its ε guarantee.
//!
//! Purpose: the lower-bound paper's dilemma says a summary below the
//! space bound must fail some query. This type is the "below the space
//! bound" arm, used by the Lemma 3.4 / Theorem 6.1 / Theorem 6.2
//! experiments to extract concrete failing queries.

use cqs_core::{ComparisonSummary, RankEstimator};

use crate::greedy::GreedyGk;
use crate::tuple::GkTuple;

/// Greedy GK with a hard item budget (incorrect beyond its budget).
#[derive(Clone, Debug)]
pub struct CappedGk<T> {
    inner: GreedyGk<T>,
    budget: usize,
}

impl<T: Ord + Clone> CappedGk<T> {
    /// Creates a capped summary: at most `budget ≥ 4` stored tuples.
    ///
    /// # Panics
    ///
    /// Panics if `budget < 4` or ε is out of range.
    pub fn new(eps: f64, budget: usize) -> Self {
        assert!(budget >= 4, "budget must leave room for extremes");
        CappedGk {
            inner: GreedyGk::new(eps),
            budget,
        }
    }

    /// The hard budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// The tuples in order (diagnostics).
    pub fn tuples(&self) -> std::borrow::Cow<'_, [GkTuple<T>]> {
        self.inner.tuples()
    }

    fn enforce_budget(&mut self) {
        if self.inner.stored_count() <= self.budget {
            return;
        }
        // Escalate the merge threshold until the budget is met. Doubling
        // terminates: with cap ≥ 2n+1 everything interior merges.
        let mut cap = (self.inner.items_processed() / self.budget as u64).max(2);
        while self.inner.stored_count() > self.budget {
            self.inner.compress(cap);
            cap = cap.saturating_mul(2);
        }
    }
}

impl<T: Ord + Clone> ComparisonSummary<T> for CappedGk<T> {
    fn insert(&mut self, item: T) {
        self.inner.insert(item);
        self.enforce_budget();
    }

    // Note: no `insert_sorted_run` override — the budget must be
    // re-enforced after every single item, which is exactly what the
    // trait's per-item fallback does.

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
        "gk-capped"
    }
}

impl<T: Ord + Clone> RankEstimator<T> for CappedGk<T> {
    fn estimate_rank(&self, q: &T) -> u64 {
        self.inner.estimate_rank(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_is_enforced() {
        let mut gk = CappedGk::new(0.01, 8);
        for x in 0..10_000u64 {
            gk.insert(x);
            assert!(gk.stored_count() <= 9, "budget breached at n={}", x + 1);
        }
    }

    #[test]
    fn mass_is_conserved_despite_capping() {
        let mut gk = CappedGk::new(0.01, 8);
        for x in 0..5_000u64 {
            gk.insert((x * 48271) % 99_991);
        }
        let mass: u64 = gk.tuples().iter().map(|t| t.g).sum();
        assert_eq!(mass, 5_000);
    }

    #[test]
    fn extremes_survive_capping() {
        let mut gk = CappedGk::new(0.05, 4);
        for x in 0..3_000u64 {
            gk.insert((x * 2654435761) % 1_000_000);
        }
        let arr = gk.item_array();
        assert!(arr.len() >= 2);
        assert!(arr.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    #[should_panic(expected = "budget must leave room")]
    fn tiny_budget_rejected() {
        CappedGk::<u64>::new(0.1, 2);
    }
}
