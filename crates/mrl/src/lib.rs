//! # cqs-mrl — the Manku–Rajagopalan–Lindsay quantile summary
//!
//! The deterministic multi-level buffer-collapse summary of Manku,
//! Rajagopalan & Lindsay (SIGMOD 1998), in the uniform-policy,
//! power-of-two-weights formulation: equal-capacity buffers fill at
//! level 0; two same-level buffers collapse (weighted merge, alternate
//! selection) into one buffer a level up, like a binary counter.
//!
//! Space is O((1/ε)·log²(εN)) — one log factor more than GK, which is
//! why the lower-bound paper's history starts here. As the paper notes,
//! MRL "relies on the advance knowledge of the stream length N": the
//! buffer capacity is sized from an `expected_n`, and the ε guarantee
//! degrades if the stream runs long.
//!
//! Collapse bias is cancelled deterministically by alternating the
//! odd/even selection offset per level (the trick from the original
//! paper), keeping the summary fully deterministic and comparison-based
//! — i.e. squarely subject to the Ω((1/ε)·log εN) lower bound.
//!
//! # Example
//!
//! ```
//! use cqs_mrl::MrlSummary;
//! use cqs_core::ComparisonSummary;
//!
//! let mut mrl = MrlSummary::new(0.01, 100_000);
//! for x in 0..100_000u64 {
//!     mrl.insert(x);
//! }
//! let med = mrl.quantile(0.5).unwrap();
//! assert!((49_000..=51_000).contains(&med));
//! ```

use cqs_core::{ComparisonSummary, MergeError, MergeableSummary, RankEstimator};

/// One full buffer: `items` are sorted and each represents `2^level`
/// stream items.
#[derive(Clone, Debug)]
struct Buffer<T> {
    level: u32,
    items: Vec<T>,
}

/// Borrowed persistent state returned by [`MrlSummary::snapshot_parts`]:
/// `(level, items)` buffers in level order, the level-0 staging run,
/// and the per-level collapse parities.
pub type SnapshotParts<'a, T> = (Vec<(u32, &'a [T])>, &'a [T], &'a [bool]);

/// The MRL summary.
#[derive(Clone, Debug)]
pub struct MrlSummary<T> {
    buffers: Vec<Buffer<T>>,
    staging: Vec<T>,
    /// Buffer capacity k.
    k: usize,
    n: u64,
    eps: f64,
    expected_n: u64,
    /// Per-level parity toggles for the alternate-offset collapse.
    parity: Vec<bool>,
}

impl<T: Ord + Clone> MrlSummary<T> {
    /// Creates a summary for guarantee ε sized for streams up to
    /// `expected_n` items.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range parameters.
    pub fn new(eps: f64, expected_n: u64) -> Self {
        assert!(eps > 0.0 && eps < 0.5, "eps must be in (0, 0.5)");
        assert!(expected_n > 0, "expected_n must be positive");
        // Each collapse at level l contributes ≤ 2^{l−1} rank error per
        // query; summing the cascade gives ≈ L·n/(2k) total with
        // L = log₂(n/k) levels, so k = (L+2)/(2ε) keeps it under εn.
        let k0 = (1.0 / (2.0 * eps)).ceil();
        let levels = ((expected_n as f64 / k0).log2()).max(1.0).ceil();
        let k = (((levels + 2.0) / (2.0 * eps)).ceil() as usize).max(4);
        MrlSummary {
            buffers: Vec::new(),
            staging: Vec::with_capacity(k),
            k,
            n: 0,
            eps,
            expected_n,
            parity: Vec::new(),
        }
    }

    /// The buffer capacity k chosen from (ε, expected N).
    pub fn buffer_capacity(&self) -> usize {
        self.k
    }

    /// The ε this summary targets (up to `expected_n` items).
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// The stream length the parameters were sized for.
    pub fn expected_n(&self) -> u64 {
        self.expected_n
    }

    /// Number of full buffers currently held.
    pub fn buffer_count(&self) -> usize {
        self.buffers.len()
    }

    /// Collapses the two lowest equal-level buffers until levels are
    /// distinct (the binary-counter carry chain).
    fn carry(&mut self) {
        loop {
            self.buffers.sort_by_key(|b| b.level);
            let Some(pos) = self
                .buffers
                .windows(2)
                .position(|w| w[0].level == w[1].level)
            else {
                return;
            };
            let b = self.buffers.remove(pos + 1);
            let a = self.buffers.remove(pos);
            let merged = self.collapse_pair(a, b);
            self.buffers.push(merged);
        }
    }

    /// Weighted merge of two same-level buffers, keeping alternate
    /// elements with a per-level alternating offset.
    fn collapse_pair(&mut self, a: Buffer<T>, b: Buffer<T>) -> Buffer<T> {
        debug_assert_eq!(a.level, b.level);
        let level = a.level as usize;
        if self.parity.len() <= level {
            self.parity.resize(level + 1, false);
        }
        let offset = usize::from(self.parity[level]);
        self.parity[level] = !self.parity[level];

        // Merge two sorted runs.
        let mut merged = Vec::with_capacity(a.items.len() + b.items.len());
        let (mut ia, mut ib) = (
            a.items.into_iter().peekable(),
            b.items.into_iter().peekable(),
        );
        loop {
            let take_a = match (ia.peek(), ib.peek()) {
                (Some(x), Some(y)) => x <= y,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let next = if take_a { ia.next() } else { ib.next() };
            merged.extend(next);
        }
        let items: Vec<T> = merged.into_iter().skip(offset).step_by(2).collect();
        Buffer {
            level: a.level + 1,
            items,
        }
    }

    /// Sorted (item, weight) view of everything held.
    pub fn weighted_items(&self) -> Vec<(T, u64)> {
        let mut out: Vec<(T, u64)> = Vec::new();
        for b in &self.buffers {
            let w = 1u64 << b.level;
            out.extend(b.items.iter().map(|x| (x.clone(), w)));
        }
        out.extend(self.staging.iter().map(|x| (x.clone(), 1)));
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Merges another MRL summary into this one (distributed
    /// aggregation). Both must have been built with the same buffer
    /// capacity (same ε and expected N); full buffers join the carry
    /// chain level-by-level, staging items re-enter at weight 1.
    ///
    /// # Panics
    ///
    /// Panics if buffer capacities differ.
    pub fn merge(&mut self, other: &MrlSummary<T>) {
        assert_eq!(
            self.k, other.k,
            "MRL merge requires identical buffer capacity (same eps / expected N)"
        );
        self.buffers.extend(other.buffers.iter().cloned());
        self.n += other.n - other.staging.len() as u64;
        self.carry();
        for x in &other.staging {
            self.insert(x.clone());
        }
    }

    /// The persistent state: full buffers as `(level, items)` in level
    /// order, the level-0 staging run, and the per-level collapse
    /// parities. Together with `(eps, expected_n, n)` from the accessors
    /// this is everything a snapshot must carry.
    pub fn snapshot_parts(&self) -> SnapshotParts<'_, T> {
        let bufs = self
            .buffers
            .iter()
            .map(|b| (b.level, b.items.as_slice()))
            .collect();
        (bufs, &self.staging, &self.parity)
    }

    /// Rebuilds a summary from snapshot parts, validating parameter
    /// ranges, buffer shape (strictly increasing levels, sorted items,
    /// per-buffer capacity), staging size, and exact weight conservation
    /// (`Σ |buffer|·2^level + |staging| = n`). Returns a diagnostic
    /// instead of constructing a broken summary.
    pub fn from_snapshot_parts(
        eps: f64,
        expected_n: u64,
        n: u64,
        buffers: Vec<(u32, Vec<T>)>,
        staging: Vec<T>,
        parity: Vec<bool>,
    ) -> Result<Self, String> {
        if !(eps > 0.0 && eps < 0.5) {
            return Err(format!("snapshot eps {eps} outside (0, 0.5)"));
        }
        if expected_n == 0 {
            return Err("snapshot expected_n must be positive".to_string());
        }
        // Re-derive k exactly as `new` does; the snapshot does not get
        // to choose a capacity inconsistent with (ε, expected N).
        let k = MrlSummary::<u64>::new(eps, expected_n).k;
        if staging.len() >= k {
            return Err(format!(
                "snapshot staging holds {} items but buffers flush at capacity {k}",
                staging.len()
            ));
        }
        let mut prev_level: Option<u32> = None;
        for (level, items) in &buffers {
            if *level >= 48 {
                return Err(format!("snapshot buffer level {level} out of range"));
            }
            if prev_level.is_some_and(|p| *level <= p) {
                return Err("snapshot buffer levels are not strictly increasing".to_string());
            }
            prev_level = Some(*level);
            if items.is_empty() || items.len() > k {
                return Err(format!(
                    "snapshot buffer at level {level} holds {} items (capacity {k})",
                    items.len()
                ));
            }
            if !items.windows(2).all(|w| match (w.first(), w.last()) {
                (Some(a), Some(b)) => a <= b,
                _ => true,
            }) {
                return Err(format!("snapshot buffer at level {level} is not sorted"));
            }
        }
        // Weight conservation works on the buffer *shape* — levels and
        // counts extracted through closures — so the accounting
        // arithmetic stays disjoint from the item values themselves
        // (Definition 2.1: items meet only Ord/Eq/Clone).
        let mut staged: u64 = 0;
        staging.iter().for_each(|_| staged += 1);
        let mut shape: Vec<(u32, u64)> = Vec::new();
        buffers
            .iter()
            .for_each(|(level, items)| shape.push((*level, items.len() as u64)));
        let mut weight: u64 = staged;
        for (level, count) in &shape {
            weight += count << level;
        }
        if weight != n {
            return Err(format!(
                "snapshot weight {weight} disagrees with stream length {n}"
            ));
        }
        Ok(MrlSummary {
            buffers: buffers
                .into_iter()
                .map(|(level, items)| Buffer { level, items })
                .collect(),
            staging,
            k,
            n,
            eps,
            expected_n,
            parity,
        })
    }

    /// Total represented weight — equals items processed exactly.
    pub fn total_weight(&self) -> u64 {
        let full: u64 = self
            .buffers
            .iter()
            .map(|b| (b.items.len() as u64) << b.level)
            .sum();
        full + self.staging.len() as u64
    }
}

impl<T: Ord + Clone> ComparisonSummary<T> for MrlSummary<T> {
    fn insert(&mut self, item: T) {
        self.staging.push(item);
        self.n += 1;
        if self.staging.len() == self.k {
            let mut items = std::mem::replace(&mut self.staging, Vec::with_capacity(self.k));
            items.sort_unstable();
            self.buffers.push(Buffer { level: 0, items });
            self.carry();
        }
    }

    fn item_array(&self) -> Vec<T> {
        let mut out: Vec<T> = self
            .buffers
            .iter()
            .flat_map(|b| b.items.iter().cloned())
            .collect();
        out.extend(self.staging.iter().cloned());
        out.sort_unstable();
        out
    }

    fn stored_count(&self) -> usize {
        self.buffers.iter().map(|b| b.items.len()).sum::<usize>() + self.staging.len()
    }

    fn items_processed(&self) -> u64 {
        self.n
    }

    fn query_rank(&self, r: u64) -> Option<T> {
        if self.n == 0 {
            return None;
        }
        let r = r.clamp(1, self.n);
        let weighted = self.weighted_items();
        // Center each weighted item on its weight span for unbiased
        // answers: item j covers ranks (cum, cum + w]; return the first
        // whose span reaches r.
        let mut cum = 0u64;
        for (x, w) in &weighted {
            cum += w;
            if cum >= r {
                return Some(x.clone());
            }
        }
        weighted.last().map(|(x, _)| x.clone())
    }

    fn name(&self) -> &'static str {
        "mrl"
    }
}

impl<T: Ord + Clone> MergeableSummary<T> for MrlSummary<T> {
    /// The non-panicking face of [`MrlSummary::merge`]: a capacity
    /// mismatch (different ε / expected N sizing) comes back as a typed
    /// refusal instead of reaching the inherent merge's assert, and the
    /// composed ε is re-validated for range.
    fn try_merge(&mut self, other: &Self) -> Result<(), MergeError> {
        if self.k != other.k {
            return Err(MergeError::IncompatibleParams {
                what: "buffer capacity (eps / expected N sizing)",
                left: self.k.to_string(),
                right: other.k.to_string(),
            });
        }
        self.merge(other);
        if self.total_weight() != self.n {
            return Err(MergeError::InvariantViolated {
                detail: format!(
                    "MRL weight {} disagrees with stream length {}",
                    self.total_weight(),
                    self.n
                ),
            });
        }
        Ok(())
    }

    /// MRL's ε holds while the stream stays within the `expected_n` the
    /// buffers were sized for; merging same-capacity shards keeps the
    /// per-item guarantee (the carry chain is exactly the single-stream
    /// collapse cascade), so the sized ε is the honest bound.
    fn eps_bound(&self) -> Option<f64> {
        Some(self.eps)
    }
}

impl<T: Ord + Clone> RankEstimator<T> for MrlSummary<T> {
    fn estimate_rank(&self, q: &T) -> u64 {
        let mut cum = 0u64;
        for b in &self.buffers {
            let w = 1u64 << b.level;
            cum += w * b.items.partition_point(|x| x <= q) as u64;
        }
        cum += self.staging.iter().filter(|x| *x <= q).count() as u64;
        cum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shuffled(n: u64, seed: u64) -> Vec<u64> {
        let mut v: Vec<u64> = (1..=n).collect();
        let mut s = seed | 1;
        for i in (1..v.len()).rev() {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (s >> 33) as usize % (i + 1);
            v.swap(i, j);
        }
        v
    }

    #[test]
    fn weight_conservation() {
        let mut mrl = MrlSummary::new(0.02, 50_000);
        for x in shuffled(37_123, 1) {
            mrl.insert(x);
        }
        assert_eq!(mrl.total_weight(), 37_123);
    }

    #[test]
    fn buffer_levels_are_distinct_after_carry() {
        let mut mrl = MrlSummary::new(0.05, 20_000);
        for x in shuffled(20_000, 2) {
            mrl.insert(x);
        }
        let mut levels: Vec<u32> = mrl.buffers.iter().map(|b| b.level).collect();
        let before = levels.len();
        levels.dedup();
        assert_eq!(levels.len(), before, "duplicate levels survived carry");
    }

    #[test]
    fn quantile_error_within_eps_on_shuffled_stream() {
        let n = 60_000u64;
        let eps = 0.01;
        let mut mrl = MrlSummary::new(eps, n);
        for x in shuffled(n, 3) {
            mrl.insert(x);
        }
        let budget = (eps * n as f64) as u64;
        for r in (1..=n).step_by(997) {
            let ans = mrl.query_rank(r).unwrap();
            assert!(
                ans.abs_diff(r) <= budget,
                "rank {r}: answer {ans}, err {} > {budget}",
                ans.abs_diff(r)
            );
        }
    }

    #[test]
    fn quantile_error_within_eps_on_sorted_stream() {
        let n = 60_000u64;
        let eps = 0.01;
        let mut mrl = MrlSummary::new(eps, n);
        for x in 1..=n {
            mrl.insert(x);
        }
        let budget = (eps * n as f64) as u64;
        for r in (1..=n).step_by(1231) {
            let ans = mrl.query_rank(r).unwrap();
            assert!(ans.abs_diff(r) <= budget, "rank {r}: answer {ans}");
        }
    }

    #[test]
    fn space_shape_is_inverse_eps_log_squared() {
        let n = 100_000u64;
        let eps = 0.01;
        let mut mrl = MrlSummary::new(eps, n);
        let mut peak = 0usize;
        for x in shuffled(n, 4) {
            mrl.insert(x);
            peak = peak.max(mrl.stored_count());
        }
        // (1/ε)·log²(εN) = 100·log²(1000) ≈ 100·99 ≈ 9 940; demand the
        // right ballpark (within small constants) and clear sublinearity.
        let shape = (1.0 / eps) * (eps * n as f64).log2().powi(2);
        assert!((peak as f64) < 2.0 * shape, "peak {peak} vs shape {shape}");
        assert!(
            peak > (shape * 0.05) as usize,
            "peak {peak} suspiciously small"
        );
    }

    #[test]
    fn rank_estimates_within_budget() {
        let n = 40_000u64;
        let eps = 0.02;
        let mut mrl = MrlSummary::new(eps, n);
        for x in shuffled(n, 5) {
            mrl.insert(x);
        }
        let budget = (eps * n as f64) as u64 + 1;
        for q in (0..=n).step_by(1999) {
            let est = mrl.estimate_rank(&q);
            assert!(est.abs_diff(q) <= budget, "rank({q}) est {est}");
        }
    }

    #[test]
    fn determinism() {
        let run = || {
            let mut mrl = MrlSummary::new(0.05, 10_000);
            for x in shuffled(10_000, 6) {
                mrl.insert(x);
            }
            mrl.item_array()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn empty_summary() {
        let mrl: MrlSummary<u64> = MrlSummary::new(0.1, 100);
        assert_eq!(mrl.quantile(0.5), None);
        assert_eq!(mrl.stored_count(), 0);
    }
}

/// Properties over seeded random streams: every case draws from a
/// fixed-seed SplitMix64, so a failure replays exactly.
#[cfg(test)]
mod properties {
    use super::*;
    use cqs_core::rng::SplitMix64;

    /// A stream of `len_lo..len_hi` values drawn from `0..max`.
    fn random_stream(rng: &mut SplitMix64, len_lo: u64, len_hi: u64, max: u64) -> Vec<u64> {
        let len = len_lo + rng.below(len_hi - len_lo);
        (0..len).map(|_| rng.below(max)).collect()
    }

    /// Distance from target rank `r` to the true rank range of `ans` in
    /// the multiset `sorted`.
    fn rank_error(sorted: &[u64], ans: u64, r: u64) -> u64 {
        let lo = sorted.partition_point(|&v| v < ans) as u64 + 1;
        let hi = sorted.partition_point(|&v| v <= ans) as u64;
        if r < lo {
            lo - r
        } else {
            r.saturating_sub(hi)
        }
    }

    #[test]
    fn weight_conservation_on_random_streams() {
        let mut rng = SplitMix64::new(0x3a1);
        for _ in 0..32 {
            let xs = random_stream(&mut rng, 1, 3000, 100_000);
            let mut mrl = MrlSummary::new(0.05, 3_000);
            for &x in &xs {
                mrl.insert(x);
            }
            assert_eq!(mrl.total_weight(), xs.len() as u64);
            assert_eq!(mrl.items_processed(), xs.len() as u64);
        }
    }

    #[test]
    fn rank_queries_within_budget_on_random_streams() {
        let mut rng = SplitMix64::new(0x3a2);
        let eps = 0.05;
        for _ in 0..32 {
            let xs = random_stream(&mut rng, 500, 2500, 10_000);
            let mut mrl = MrlSummary::new(eps, 2_500);
            for &x in &xs {
                mrl.insert(x);
            }
            let mut sorted = xs.clone();
            sorted.sort_unstable();
            let n = xs.len() as u64;
            let budget = (eps * n as f64).floor() as u64 + 1;
            for step in 1..=8u64 {
                let r = (step * n / 8).max(1);
                let err = rank_error(&sorted, mrl.query_rank(r).expect("non-empty"), r);
                assert!(err <= budget, "rank {r}: err {err}");
            }
        }
    }
}
