//! # cqs-window — sliding-window quantiles over chunked GK summaries
//!
//! The lower-bound paper's related work (via the Greenwald–Khanna survey
//! it cites) covers the *sliding-window* model: answer quantile queries
//! over only the most recent W items. This crate implements the classic
//! chunked-merge approach on top of the workspace's mergeable GK
//! summaries:
//!
//! * the window is covered by `b` sealed chunks of `W/b` items, each
//!   summarised by its own [`GkSummary`], plus one growing chunk;
//! * a query merges the chunks overlapping the window (using
//!   [`GkSummary::merge`]) and answers from the merged summary;
//! * the oldest chunk generally straddles the window boundary; its items
//!   cannot be split apart, so it is included whole, adding at most
//!   `W/b` phantom items — a rank slop of 1/b of the window, on top of
//!   the GK merge error.
//!
//! Total rank error per query is at most `(2ε + 1/b)·W`; pick `b ≈ 1/ε`
//! for a clean Θ(ε)-windowed guarantee at O((b/ε)·log(εW/b)) space.
//!
//! # Example
//!
//! ```
//! use cqs_window::SlidingWindowGk;
//!
//! let mut w = SlidingWindowGk::new(0.01, 10_000, 16);
//! for x in 0..100_000u64 {
//!     w.insert(x);
//! }
//! // Only the last 10k items (90k..100k) are in scope.
//! let med = w.quantile(0.5).unwrap();
//! assert!((93_500..=96_500).contains(&med));
//! ```

use cqs_core::ComparisonSummary;
use cqs_gk::GkSummary;

/// One sealed chunk: `end` is the stream index one past its last item.
#[derive(Clone, Debug)]
struct Chunk<T> {
    end: u64,
    summary: GkSummary<T>,
}

/// A sliding-window quantile summary (last `window` items).
#[derive(Clone, Debug)]
pub struct SlidingWindowGk<T> {
    chunks: Vec<Chunk<T>>,
    current: GkSummary<T>,
    current_start: u64,
    eps: f64,
    window: u64,
    chunk_len: u64,
    n: u64,
}

impl<T: Ord + Clone> SlidingWindowGk<T> {
    /// Creates a summary answering over the trailing `window` items,
    /// covered by `buckets` chunks.
    ///
    /// # Panics
    ///
    /// Panics unless `window ≥ buckets ≥ 2` and ε is in (0, 0.5).
    pub fn new(eps: f64, window: u64, buckets: u64) -> Self {
        assert!(eps > 0.0 && eps < 0.5, "eps must be in (0, 0.5)");
        assert!(buckets >= 2, "need at least two chunks");
        assert!(
            window >= buckets,
            "window must cover at least one item per chunk"
        );
        SlidingWindowGk {
            chunks: Vec::new(),
            current: GkSummary::new(eps),
            current_start: 0,
            eps,
            window,
            chunk_len: window / buckets,
            n: 0,
        }
    }

    /// Inserts the next stream item.
    pub fn insert(&mut self, item: T) {
        self.current.insert(item);
        self.n += 1;
        if self.n - self.current_start == self.chunk_len {
            let sealed = std::mem::replace(&mut self.current, GkSummary::new(self.eps));
            self.chunks.push(Chunk {
                end: self.n,
                summary: sealed,
            });
            self.current_start = self.n;
            self.evict();
        }
    }

    fn evict(&mut self) {
        let cutoff = self.n.saturating_sub(self.window);
        // A chunk is dead once even its newest item is outside the
        // window.
        self.chunks.retain(|c| c.end > cutoff);
    }

    /// Items seen over the whole stream.
    pub fn items_processed(&self) -> u64 {
        self.n
    }

    /// Number of items currently answerable (≤ window).
    pub fn window_len(&self) -> u64 {
        self.n.min(self.window)
    }

    /// Items currently stored across all chunk summaries.
    pub fn stored_count(&self) -> usize {
        self.chunks
            .iter()
            .map(|c| c.summary.stored_count())
            .sum::<usize>()
            + self.current.stored_count()
    }

    /// The nominal window size W.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Builds the merged view of the live window (the straddling chunk
    /// included whole).
    fn merged(&self) -> Option<GkSummary<T>> {
        let mut parts: Vec<&GkSummary<T>> = self.chunks.iter().map(|c| &c.summary).collect();
        if self.current.items_processed() > 0 {
            parts.push(&self.current);
        }
        let (first, rest) = parts.split_first()?;
        let mut acc = (*first).clone();
        for s in rest {
            acc.merge(s);
        }
        Some(acc)
    }

    /// The ϕ-quantile of the current window (boundary slop of one chunk
    /// included — see the crate docs for the error budget).
    pub fn quantile(&self, phi: f64) -> Option<T> {
        let merged = self.merged()?;
        merged.quantile(phi.clamp(0.0, 1.0))
    }

    /// Rank query against the window (1 ≤ r ≤ window_len).
    pub fn query_rank(&self, r: u64) -> Option<T> {
        let merged = self.merged()?;
        let m = merged.items_processed();
        // Map the window rank onto the merged mass (which may include
        // the straddling chunk's expired prefix).
        let w = self.window_len().max(1);
        let target = (r.clamp(1, w) as u128 * m as u128 / w as u128) as u64;
        merged.query_rank(target.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_window() {
        let w: SlidingWindowGk<u64> = SlidingWindowGk::new(0.05, 100, 4);
        assert_eq!(w.quantile(0.5), None);
        assert_eq!(w.window_len(), 0);
    }

    #[test]
    fn window_shorter_than_stream_tracks_recent_items() {
        let mut w = SlidingWindowGk::new(0.01, 10_000, 20);
        for x in 0..200_000u64 {
            w.insert(x);
        }
        // Window ≈ (190_000, 200_000]; slop: one chunk = 500 items.
        let med = w.quantile(0.5).unwrap();
        assert!(
            (194_000..=196_000).contains(&med),
            "median {med} not tracking the window"
        );
        let p10 = w.quantile(0.1).unwrap();
        assert!(p10 >= 189_000, "p10 {p10} references expired items");
    }

    #[test]
    fn distribution_shift_is_forgotten() {
        // First 50k items are huge; then 20k small ones. With W = 10k the
        // huge regime must vanish entirely from the answers.
        let mut w = SlidingWindowGk::new(0.02, 10_000, 10);
        for x in 0..50_000u64 {
            w.insert(1_000_000 + x);
        }
        for x in 0..20_000u64 {
            w.insert(x % 1_000);
        }
        let p99 = w.quantile(0.99).unwrap();
        assert!(p99 < 1_000, "stale regime leaked into p99: {p99}");
    }

    #[test]
    fn space_is_bounded_by_chunks_not_stream() {
        let mut w = SlidingWindowGk::new(0.01, 8_192, 16);
        let mut peak = 0usize;
        for x in 0..300_000u64 {
            w.insert((x * 48_271) % 65_536);
            peak = peak.max(w.stored_count());
        }
        // 16 live chunks of 512 items each, GK-compressed; far below W.
        assert!(peak < 4_000, "peak {peak} not bounded");
        assert!(w.window_len() == 8_192);
    }

    #[test]
    fn short_stream_behaves_like_plain_gk() {
        let mut w = SlidingWindowGk::new(0.02, 100_000, 10);
        let mut gk = GkSummary::new(0.02);
        for x in 0..5_000u64 {
            w.insert(x);
            gk.insert(x);
        }
        let a = w.quantile(0.5).unwrap();
        let b = gk.quantile(0.5).unwrap();
        assert!(a.abs_diff(b) <= 400, "window {a} vs plain {b}");
    }

    #[test]
    fn rank_queries_map_to_window() {
        let mut w = SlidingWindowGk::new(0.01, 1_000, 10);
        for x in 0..10_000u64 {
            w.insert(x);
        }
        // Rank 1 of the window ≈ item 9 000; rank 1000 ≈ 9 999.
        let lo = w.query_rank(1).unwrap();
        let hi = w.query_rank(1_000).unwrap();
        assert!(lo >= 8_800, "rank-1 {lo} too old");
        assert!(hi >= 9_950, "rank-W {hi} not near the newest");
        assert!(lo < hi);
    }

    #[test]
    #[should_panic(expected = "window must cover")]
    fn tiny_window_rejected() {
        SlidingWindowGk::<u64>::new(0.1, 2, 4);
    }
}

/// Properties over seeded random streams: every case draws from a
/// fixed-seed SplitMix64, so a failure replays exactly.
#[cfg(test)]
mod properties {
    use super::*;
    use cqs_core::rng::SplitMix64;

    #[test]
    fn window_median_within_combined_budget() {
        let mut rng = SplitMix64::new(0xe1);
        let (window, buckets, eps) = (4_096u64, 16u64, 0.02);
        for _ in 0..8 {
            let shift = rng.below(50_000);
            let mut w = SlidingWindowGk::new(eps, window, buckets);
            let n = 30_000u64;
            let mut vals = Vec::with_capacity(n as usize);
            for i in 0..n {
                let v = rng.below(100_000) + shift + i; // drifting values
                w.insert(v);
                vals.push(v);
            }
            // Ground truth over the exact window plus the straddling
            // chunk slop.
            let mut sorted = vals[(n - window) as usize..].to_vec();
            sorted.sort_unstable();
            let ans = w.quantile(0.5).expect("non-empty");
            let pos = sorted.partition_point(|&x| x <= ans) as i64;
            let target = (window / 2) as i64;
            // Budget: 2ε·W (merge) + W/b (chunk slop) + rounding.
            let budget = (2.0 * eps * window as f64) as i64 + (window / buckets) as i64 + 8;
            assert!(
                (pos - target).abs() <= budget,
                "median {ans}: pos {pos} vs target {target} (budget {budget})"
            );
        }
    }
}
