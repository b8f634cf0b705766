//! The original banded Greenwald–Khanna summary.

use cqs_core::{ComparisonSummary, MergeError, MergeableSummary, RankEstimator};

use crate::band::band;
use crate::tuple::{
    estimate_rank_from_tuples, merge_sorted_chunk, merge_tuple_lists, query_rank_from_tuples,
    validate_tuple_parts, GkTuple,
};

/// The Greenwald–Khanna ε-approximate quantile summary (SIGMOD 2001),
/// with the band-based COMPRESS and subtree merging of the original
/// analysis. Space: O((1/ε)·log εN) — proved optimal by the lower bound
/// in `cqs-core`.
#[derive(Clone, Debug)]
pub struct GkSummary<T> {
    tuples: Vec<GkTuple<T>>,
    n: u64,
    eps: f64,
    compress_period: u64,
    /// COMPRESS scratch (band per tuple / merge flags / chunk-merge
    /// middle), kept across calls so the periodic compress and the
    /// sorted-run merge do not allocate on the adversary's hot path.
    /// Transient: excluded from snapshots and rebuilt empty on restore.
    scratch_bands: Vec<u32>,
    scratch_remove: Vec<bool>,
    scratch_mid: Vec<GkTuple<T>>,
}

impl<T: Ord + Clone> GkSummary<T> {
    /// Creates a summary with guarantee ε ∈ (0, 0.5).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range ε.
    pub fn new(eps: f64) -> Self {
        let period = (1.0 / (2.0 * eps)).floor().max(1.0) as u64;
        Self::with_compress_period(eps, period)
    }

    /// Creates a summary that runs COMPRESS every `period` inserts
    /// instead of the canonical 1/(2ε) — an ablation knob: more frequent
    /// compression trades update time for space, and never affects
    /// correctness (the invariant is checked against 2εn regardless).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range ε or a zero period.
    pub fn with_compress_period(eps: f64, period: u64) -> Self {
        assert!(eps > 0.0 && eps < 0.5, "eps must be in (0, 0.5)");
        assert!(period >= 1, "compress period must be positive");
        GkSummary {
            tuples: Vec::new(),
            n: 0,
            eps,
            compress_period: period,
            scratch_bands: Vec::new(),
            scratch_remove: Vec::new(),
            scratch_mid: Vec::new(),
        }
    }

    /// The configured ε.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// The COMPRESS threshold ⌊2εn⌋ at the current stream length.
    fn threshold(&self) -> u64 {
        (2.0 * self.eps * self.n as f64).floor() as u64
    }

    /// Exposes the raw tuples (diagnostics and tests).
    pub fn tuples(&self) -> &[GkTuple<T>] {
        &self.tuples
    }

    /// The persistent state as `(tuples, n, eps, compress_period)` —
    /// everything a snapshot must carry; the scratch buffers are
    /// transient and rebuilt empty on restore.
    pub fn snapshot_parts(&self) -> (&[GkTuple<T>], u64, f64, u64) {
        (&self.tuples, self.n, self.eps, self.compress_period)
    }

    /// Rebuilds a summary from snapshot parts, validating every
    /// structural invariant a corrupt snapshot could violate — ε range,
    /// positive period, sorted tuples with positive `g`, total `g` mass
    /// equal to `n`, and the GK span invariant — and returning a
    /// diagnostic instead of constructing a broken summary.
    pub fn from_snapshot_parts(
        tuples: Vec<GkTuple<T>>,
        n: u64,
        eps: f64,
        compress_period: u64,
    ) -> Result<Self, String> {
        validate_tuple_parts(&tuples, n, eps, compress_period)?;
        let s = GkSummary {
            tuples,
            n,
            eps,
            compress_period,
            scratch_bands: Vec::new(),
            scratch_remove: Vec::new(),
            scratch_mid: Vec::new(),
        };
        if !s.invariant_holds() {
            return Err("snapshot violates the GK span invariant g+Δ ≤ ⌊2εn⌋".to_string());
        }
        Ok(s)
    }

    /// Merges another GK summary into this one.
    ///
    /// Standard GK merge (cf. the Mergeable Summaries line of work): the
    /// tuple lists are interleaved in sorted order and each tuple's rank
    /// bounds are widened by the bracketing tuples of the other summary:
    ///
    /// ```text
    ///   r_min'(x) = r_min_A(x) + r_min_B(pred_B(x))
    ///   r_max'(x) = r_max_A(x) + r_max_B(succ_B(x)) − 1
    /// ```
    ///
    /// The merged summary answers within (ε_A + ε_B)·(n_A + n_B); `self`
    /// adopts ε_A + ε_B so its invariant and future compressions remain
    /// coherent. Merging is therefore best done in a balanced tree over
    /// shards, giving ε·log(shards) total error.
    pub fn merge(&mut self, other: &GkSummary<T>) {
        if other.tuples.is_empty() {
            return;
        }
        if self.tuples.is_empty() {
            // Adopting the other side wholesale is the one unavoidable
            // copy: merge takes `&other` by contract.
            // cqs-lint: allow(hot-path-alloc)
            self.tuples = other.tuples.clone();
            self.n = other.n;
            self.eps = (self.eps + other.eps).min(0.499);
            return;
        }
        let (na, nb) = (self.n, other.n);
        self.tuples = merge_tuple_lists(&self.tuples, &other.tuples, na, nb);
        self.n = na + nb;
        self.eps = (self.eps + other.eps).min(0.499);
        self.compress_period = (1.0 / (2.0 * self.eps)).floor().max(1.0) as u64;
        self.compress();
    }

    /// Certified rank bounds for any universe item `q`: the true number
    /// of stream items ≤ q lies in the returned `[lo, hi]` interval.
    /// The interval width is at most 2εn + 1 by the GK invariant.
    pub fn rank_bounds(&self, q: &T) -> (u64, u64) {
        if self.tuples.is_empty() {
            return (0, 0);
        }
        if *q < self.tuples[0].v {
            return (0, 0);
        }
        let mut r_min = 0u64;
        let mut last_le_rmin = 0u64;
        for t in &self.tuples {
            r_min += t.g;
            if t.v <= *q {
                last_le_rmin = r_min;
            } else {
                // True rank is at least the last ≤-tuple's minimum rank
                // and strictly below this tuple's maximum rank.
                return (last_le_rmin, (r_min + t.delta).saturating_sub(1));
            }
        }
        (last_le_rmin, self.n)
    }

    /// The summary's internal invariant: every tuple span `g_i + Δ_i`
    /// is at most ⌊2εn⌋ (grace-period aside for the first 1/(2ε) items).
    pub fn invariant_holds(&self) -> bool {
        let cap = self.threshold().max(1);
        self.tuples.iter().all(|t| t.g + t.delta <= cap)
    }

    fn insert_value(&mut self, item: T) {
        let pos = self.tuples.partition_point(|t| t.v < item);
        // Δ for an interior insert is ⌊2εn⌋ − 1; 0 at either end (the
        // new extreme has exact rank) and during the initial grace
        // period where everything is stored.
        let thr = self.threshold();
        let delta = if pos == 0 || pos == self.tuples.len() || thr < 1 {
            0
        } else {
            thr.saturating_sub(1)
        };
        self.tuples.insert(
            pos,
            GkTuple {
                v: item,
                g: 1,
                delta,
            },
        );
        self.n += 1;
        if self.n.is_multiple_of(self.compress_period) {
            self.compress();
        }
    }

    /// The band-based COMPRESS: walk right-to-left; a tuple whose band
    /// does not exceed its successor's is merged — together with its
    /// band-subtree of preceding lower-band tuples — into the successor,
    /// provided the combined span stays below ⌊2εn⌋.
    fn compress(&mut self) {
        let thr = self.threshold();
        if thr < 2 || self.tuples.len() < 3 {
            return;
        }
        let mut bands = std::mem::take(&mut self.scratch_bands);
        bands.clear();
        bands.extend(self.tuples.iter().map(|t| band(t.delta.min(thr), thr)));
        // Collect merges on a right-to-left pass, then apply in one
        // sweep to keep the pass O(s).
        let mut remove = std::mem::take(&mut self.scratch_remove);
        remove.clear();
        remove.resize(self.tuples.len(), false);
        let mut i = self.tuples.len() as isize - 2;
        while i >= 1 {
            let iu = i as usize;
            let succ = iu + 1;
            if remove[succ] {
                i -= 1;
                continue;
            }
            if bands[iu] <= bands[succ] {
                // Extent of i's band-subtree: consecutive predecessors
                // with strictly smaller bands (the "descendants").
                let mut start = iu;
                let mut g_star = self.tuples[iu].g;
                while start > 1 && bands[start - 1] < bands[iu] {
                    start -= 1;
                    g_star += self.tuples[start].g;
                }
                if g_star + self.tuples[succ].g + self.tuples[succ].delta < thr {
                    self.tuples[succ].g += g_star;
                    for flag in remove.iter_mut().take(iu + 1).skip(start) {
                        *flag = true;
                    }
                    i = start as isize - 1;
                    continue;
                }
            }
            i -= 1;
        }
        if remove.iter().any(|&r| r) {
            let mut idx = 0;
            self.tuples.retain(|_| {
                let keep = !remove[idx];
                idx += 1;
                keep
            });
        }
        self.scratch_bands = bands;
        self.scratch_remove = remove;
    }
}

impl<T: Ord + Clone> ComparisonSummary<T> for GkSummary<T> {
    fn insert(&mut self, item: T) {
        self.insert_value(item);
    }

    fn insert_sorted_run(&mut self, run: &[T]) -> usize {
        debug_assert!(
            run.windows(2).all(|w| w[0] <= w[1]),
            "insert_sorted_run requires a non-decreasing run"
        );
        let mut peak = 0usize;
        let mut rest = run;
        while !rest.is_empty() {
            // Slice the run at the next compress boundary so the chunk
            // merge never has to interleave with COMPRESS.
            let until = (self.compress_period - self.n % self.compress_period) as usize;
            let (chunk, tail) = rest.split_at(until.min(rest.len()));
            merge_sorted_chunk(
                &mut self.tuples,
                &mut self.n,
                self.eps,
                chunk,
                &mut self.scratch_mid,
            );
            let pre_compress = self.tuples.len();
            if self.n.is_multiple_of(self.compress_period) {
                self.compress();
                // The per-item path polls |I| after every insert (incl.
                // the compressing one), so it never observes the full
                // pre-compress length — only up to one item before it.
                let post = self.tuples.len();
                peak = peak.max(if chunk.len() >= 2 {
                    (pre_compress - 1).max(post)
                } else {
                    post
                });
            } else {
                peak = peak.max(pre_compress);
            }
            rest = tail;
        }
        peak
    }

    fn item_array(&self) -> Vec<T> {
        self.tuples.iter().map(|t| t.v.clone()).collect()
    }

    fn for_each_item(&self, f: &mut dyn FnMut(&T)) {
        for t in &self.tuples {
            f(&t.v);
        }
    }

    fn for_each_item_between(&self, lo: Option<&T>, hi: Option<&T>, f: &mut dyn FnMut(&T)) {
        // Both bounds become plain indices (ranks) via partition scans,
        // so the visit loop below runs comparison-free: the per-tuple
        // `>= hi` probe was a deep label comparison on every visited
        // item of the gap scan.
        let mut start = 0;
        if let Some(lo) = lo {
            start = self.tuples.partition_point(|t| &t.v <= lo);
        }
        let mut end = self.tuples.len();
        if let Some(hi) = hi {
            end = start
                + self
                    .tuples
                    .get(start..)
                    .map_or(0, |ts| ts.partition_point(|t| &t.v < hi));
        }
        for t in self.tuples.get(start..end).unwrap_or(&[]) {
            f(&t.v);
        }
    }

    fn stored_count(&self) -> usize {
        self.tuples.len()
    }

    fn items_processed(&self) -> u64 {
        self.n
    }

    fn query_rank(&self, r: u64) -> Option<T> {
        query_rank_from_tuples(&self.tuples, r, self.n)
    }

    fn name(&self) -> &'static str {
        "gk"
    }
}

impl<T: Ord + Clone> RankEstimator<T> for GkSummary<T> {
    fn estimate_rank(&self, q: &T) -> u64 {
        estimate_rank_from_tuples(&self.tuples, q, self.n)
    }
}

impl<T: Ord + Clone> MergeableSummary<T> for GkSummary<T> {
    /// The principled merge path: refuse up front when the composed ε
    /// leaves (0, 0.5), fold via [`GkSummary::merge`], then re-validate
    /// the GK span invariant under the composed ε — the check that makes
    /// shard composition trustworthy rather than assumed.
    fn try_merge(&mut self, other: &Self) -> Result<(), MergeError> {
        let composed = self.eps + other.eps;
        if !(composed > 0.0 && composed < 0.5) {
            return Err(MergeError::EpsOverflow { composed });
        }
        self.merge(other);
        if !self.invariant_holds() {
            return Err(MergeError::InvariantViolated {
                detail: format!("GK span invariant g+Δ ≤ ⌊2εn⌋ at eps {}", self.eps),
            });
        }
        Ok(())
    }

    fn eps_bound(&self) -> Option<f64> {
        Some(self.eps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invariant_holds_throughout_adversarial_like_inserts() {
        // Alternating extremes stress the Δ assignment.
        let mut gk = GkSummary::new(0.02);
        for i in 0..5000u64 {
            let v = if i % 2 == 0 { i } else { u64::MAX - i };
            gk.insert(v);
            assert!(gk.invariant_holds(), "invariant broken at n={}", i + 1);
        }
    }

    #[test]
    fn total_g_mass_equals_n() {
        let mut gk = GkSummary::new(0.05);
        for x in (0..3000u64).rev() {
            gk.insert(x);
        }
        let mass: u64 = gk.tuples().iter().map(|t| t.g).sum();
        assert_eq!(mass, 3000);
    }

    #[test]
    fn compress_actually_shrinks() {
        let mut gk = GkSummary::new(0.05);
        for x in 0..10_000u64 {
            gk.insert(x);
        }
        assert!(gk.stored_count() < 1000, "no compression happened");
    }

    #[test]
    fn rank_bounds_bracket_truth_and_are_narrow() {
        let n = 20_000u64;
        let eps = 0.01;
        let mut gk = GkSummary::new(eps);
        for i in 0..n {
            gk.insert((i * 48271) % n + 1);
        }
        let width_cap = (2.0 * eps * n as f64) as u64 + 2;
        for q in (1..=n).step_by(997) {
            let (lo, hi) = gk.rank_bounds(&q);
            // Values are a permutation-ish of 1..=n; exact truth needs
            // counting, so check bracketing against the estimator and
            // width against the invariant.
            let est = cqs_core::RankEstimator::estimate_rank(&gk, &q);
            assert!(
                lo <= est && est <= hi,
                "q={q}: est {est} outside [{lo},{hi}]"
            );
            assert!(hi - lo <= width_cap, "q={q}: bounds too wide: {}", hi - lo);
        }
        // Below the minimum and above the maximum the bounds are exact.
        assert_eq!(gk.rank_bounds(&0), (0, 0));
        assert_eq!(gk.rank_bounds(&(n + 10)).0, n);
    }

    #[test]
    fn merge_conserves_mass_and_bounds() {
        let mut a = GkSummary::new(0.01);
        let mut b = GkSummary::new(0.01);
        for x in 0..5_000u64 {
            a.insert(x * 2); // evens
            b.insert(x * 2 + 1); // odds
        }
        a.merge(&b);
        assert_eq!(a.items_processed(), 10_000);
        let mass: u64 = a.tuples().iter().map(|t| t.g).sum();
        assert_eq!(mass, 10_000);
        // Extremes of the union are retained.
        let arr = a.item_array();
        assert_eq!(arr[0], 0);
        assert_eq!(*arr.last().unwrap(), 9_999);
        // Error within the merged 2ε guarantee.
        let med = a.query_rank(5_000).unwrap();
        assert!(med.abs_diff(5_000) <= 250, "merged median {med}");
    }

    #[test]
    fn merge_adopts_summed_eps() {
        let mut a: GkSummary<u64> = GkSummary::new(0.01);
        let mut b: GkSummary<u64> = GkSummary::new(0.02);
        a.insert(1);
        b.insert(2);
        a.merge(&b);
        assert!((a.eps() - 0.03).abs() < 1e-12);
    }

    #[test]
    fn merge_is_usable_after_more_inserts() {
        let mut a = GkSummary::new(0.02);
        let mut b = GkSummary::new(0.02);
        for x in 0..2_000u64 {
            a.insert(x);
            b.insert(x + 2_000);
        }
        a.merge(&b);
        for x in 4_000..6_000u64 {
            a.insert(x);
        }
        assert_eq!(a.items_processed(), 6_000);
        assert!(a.invariant_holds());
        let q = a.query_rank(3_000).unwrap();
        assert!(
            q.abs_diff(3_000) <= 6_000 / 8,
            "post-merge insert broke queries: {q}"
        );
    }

    #[test]
    fn tuples_stay_sorted() {
        let mut gk = GkSummary::new(0.03);
        for i in 0..4000u64 {
            gk.insert((i * 2654435761) % 65536);
        }
        let arr = gk.item_array();
        assert!(arr.windows(2).all(|w| w[0] <= w[1]));
    }
}
