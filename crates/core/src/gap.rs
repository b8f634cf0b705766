//! The largest-gap quantities of Definitions 3.3 and 5.1.
//!
//! For indistinguishable streams π and ϱ and a pair of current intervals,
//! the *largest gap* is the maximum, over consecutive positions of the
//! restricted item arrays, of
//!
//! ```text
//!   rank_ϱ̄(I'_ϱ[i+1]) − rank_π̄(I'_π[i])
//! ```
//!
//! where ranks are taken within the restricted substreams (boundary items
//! included, per Definition 5.1). A correct ε-approximate summary must
//! keep the top-level gap at most 2εN (Lemma 3.4); the adversary's whole
//! purpose is to grow it as fast as the summary's space allows.

use cqs_universe::{Endpoint, Interval, Item};

use crate::model::ComparisonSummary;
use crate::state::StreamState;

/// Where and how large the largest gap is.
#[derive(Clone, Debug)]
pub struct GapInfo {
    /// The largest gap value (paper's `g`), always ≥ 1.
    pub gap: u64,
    /// Index `i` of the gap in the restricted arrays (0-based into the
    /// enclosed arrays; the paper's 1-based `i`).
    pub index: usize,
    /// `I'_π[i]` — the low extreme of the gap on the π side.
    pub pi_low: Endpoint,
    /// `I'_ϱ[i+1]` — the high extreme of the gap on the ϱ side.
    pub rho_high: Endpoint,
    /// Size of the restricted item arrays (boundaries included).
    pub restricted_len: usize,
}

/// How the argmax over equal largest gaps is resolved — the paper notes
/// "ties can be broken arbitrarily", so any policy yields a valid
/// construction; the ablation benches measure whether the choice
/// matters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TieBreak {
    /// Keep the first (lowest-index) maximal gap.
    #[default]
    LowestIndex,
    /// Keep the last (highest-index) maximal gap.
    HighestIndex,
}

/// Computes the largest gap between the two summaries' restricted item
/// arrays in the given intervals (Definition 5.1; with whole-universe
/// intervals this is Definition 3.3's `gap(π, ϱ)` under the
/// construction's rank-ordering guarantee), keeping the lowest-index
/// maximum.
///
/// Allocates one fresh rank scratch; the adversary's hot loop passes a
/// reusable one (and its tie-breaking policy) to
/// [`compute_gap_scratch`] instead.
///
/// # Panics
///
/// Panics if the restricted arrays differ in length (that would mean the
/// streams are distinguishable — the paper proves they cannot be, so for
/// a conforming summary this indicates a model violation) or have fewer
/// than two entries.
pub fn compute_gap<S: ComparisonSummary<Item>>(
    pi: &StreamState<S>,
    rho: &StreamState<S>,
    iv_pi: &Interval,
    iv_rho: &Interval,
) -> GapInfo {
    let mut scratch = GapScratch::default();
    compute_gap_scratch(pi, rho, iv_pi, iv_rho, TieBreak::LowestIndex, &mut scratch)
}

/// Reusable buffers for the gap scan: both sides' restricted ranks plus
/// the batched walk's count scratch, so the recursion's 2^k − 1 gap
/// computations share three allocations. No item is cloned into them:
/// each side's summary lends its stored items to the rank walk
/// ([`StreamState::restricted_ranks_inside`]).
#[derive(Default)]
pub struct GapScratch {
    ranks_rho: Vec<u64>,
    ranks_pi: Vec<u64>,
    les: Vec<usize>,
}

/// [`compute_gap`] with an explicit tie-breaking policy, against a
/// caller-owned [`GapScratch`].
///
/// One batched treap walk per side
/// ([`StreamState::restricted_ranks_inside`]), over items the summary
/// lends, produces the full Definition 5.1 rank sequences; the argmax is
/// then a flat zip over the two rank buffers. Only the two winning
/// extremes are cloned, each found by its interior index in one more
/// loan of its side's items ([`StreamState::stored_inside_at`]).
pub fn compute_gap_scratch<S: ComparisonSummary<Item>>(
    pi: &StreamState<S>,
    rho: &StreamState<S>,
    iv_pi: &Interval,
    iv_rho: &Interval,
    tie: TieBreak,
    scratch: &mut GapScratch,
) -> GapInfo {
    let GapScratch {
        ranks_rho,
        ranks_pi,
        les,
    } = scratch;
    rho.restricted_ranks_inside(iv_rho, les, ranks_rho);
    pi.restricted_ranks_inside(iv_pi, les, ranks_pi);

    let m = ranks_rho.len();
    assert_eq!(
        ranks_pi.len(),
        m,
        "restricted item arrays differ in size — summary is not comparison-based"
    );
    assert!(
        m >= 2,
        "restricted arrays must at least contain the two boundaries"
    );
    // The construction keeps rank_π(I'_π[i]) ≤ rank_ϱ(I'_ϱ[i])
    // (Section 4.6); verify rather than assume.
    debug_assert!(
        ranks_pi.iter().zip(ranks_rho.iter()).all(|(p, r)| p <= r),
        "rank ordering invariant violated: rank_pi > rank_rho"
    );

    let mut best = 0u64;
    let mut best_i = 0usize;
    for (i, (rank_pi, rank_rho_next)) in ranks_pi.iter().zip(ranks_rho.iter().skip(1)).enumerate() {
        // ranks_rho[i+1] ≥ ranks_pi[i] always (both sides sorted and the
        // ordering invariant); checked in debug builds above.
        let g = rank_rho_next - rank_pi;
        let wins = match tie {
            TieBreak::LowestIndex => g > best,
            TieBreak::HighestIndex => g >= best && g > 0,
        };
        if wins {
            best = g;
            best_i = i;
        }
    }

    // Map the winning indices back through the restricted array layout
    // `[lo] ++ interior ++ [hi]`: full index 0 is the low boundary,
    // m−1 the high boundary, and full index i the interior item i−1.
    // The argmax range keeps best_i ≤ m−2, so the interior lookups are
    // always in range; the boundary fallbacks are unreachable but keep
    // the function total for the panic-free driver.
    let pi_low = match best_i.checked_sub(1) {
        None => iv_pi.lo().clone(),
        Some(j) => pi
            .stored_inside_at(iv_pi, j)
            .map_or_else(|| iv_pi.hi().clone(), Endpoint::Finite),
    };
    let rho_high = if best_i + 1 == m - 1 {
        iv_rho.hi().clone()
    } else {
        rho.stored_inside_at(iv_rho, best_i)
            .map_or_else(|| iv_rho.hi().clone(), Endpoint::Finite)
    };

    GapInfo {
        gap: best,
        index: best_i,
        pi_low,
        rho_high,
        restricted_len: m,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{DecimatedSummary, ExactSummary};
    use cqs_universe::generate_increasing;

    fn feed<S: ComparisonSummary<Item>>(summary: S, n: usize) -> StreamState<S> {
        let mut st = StreamState::new(summary);
        for it in generate_increasing(&Interval::whole(), n) {
            st.push(it);
        }
        st
    }

    #[test]
    fn exact_summary_has_unit_gap() {
        let pi = feed(ExactSummary::new(), 32);
        let rho = feed(ExactSummary::new(), 32);
        let g = compute_gap(&pi, &rho, &Interval::whole(), &Interval::whole());
        // Every item stored on both sides: consecutive ranks differ by 1.
        assert_eq!(g.gap, 1);
        assert_eq!(g.restricted_len, 34); // 32 items + two sentinels
    }

    #[test]
    fn decimated_summary_has_large_gap() {
        let pi = feed(DecimatedSummary::new(4), 100);
        let rho = feed(DecimatedSummary::new(4), 100);
        let g = compute_gap(&pi, &rho, &Interval::whole(), &Interval::whole());
        // 100 items thinned to 4: consecutive stored ranks ~33 apart.
        assert!(g.gap >= 25, "expected a large gap, got {}", g.gap);
    }

    #[test]
    fn gap_is_computed_within_interval_only() {
        let pi = feed(ExactSummary::new(), 16);
        let rho = feed(ExactSummary::new(), 16);
        let items = pi.summary.item_array();
        let iv = Interval::open(items[2].clone(), items[9].clone());
        let g = compute_gap(&pi, &rho, &iv, &iv);
        assert_eq!(g.gap, 1);
        // lo + 6 inside + hi.
        assert_eq!(g.restricted_len, 8);
    }

    #[test]
    fn gap_extremes_identify_the_widest_hole() {
        // π and ϱ identical; manually thin one region by using a small
        // budget, then the argmax straddles the thinned region.
        let pi = feed(DecimatedSummary::new(6), 200);
        let rho = feed(DecimatedSummary::new(6), 200);
        let g = compute_gap(&pi, &rho, &Interval::whole(), &Interval::whole());
        // The identified extremes must be endpoints or genuinely stored.
        match (&g.pi_low, &g.rho_high) {
            (Endpoint::PosInf, _) => panic!("gap low extreme cannot be +inf"),
            (_, Endpoint::NegInf) => panic!("gap high extreme cannot be -inf"),
            _ => {}
        }
        assert!(g.index + 1 < g.restricted_len);
    }
}
