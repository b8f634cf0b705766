//! `RefineIntervals` — Pseudocode 1 of the paper.
//!
//! Given indistinguishable streams π, ϱ and their current intervals, find
//! the largest gap between the restricted item arrays and return new,
//! strictly nested intervals in the *extreme regions* of that gap:
//!
//! * for π: `(I'_π[i], next(π, I'_π[i]))` — just above the low extreme;
//! * for ϱ: `(prev(ϱ, I'_ϱ[i+1]), I'_ϱ[i+1])` — just below the high
//!   extreme.
//!
//! Neither new interval contains any existing stream item
//! (Observation 1(i)), and items drawn from them compare identically
//! against the respective item arrays (Observation 1(ii)), which is what
//! keeps the streams indistinguishable while pushing their ranks apart.

use cqs_universe::{Endpoint, Interval, Item};

use crate::gap::{compute_gap, GapInfo};
use crate::model::ComparisonSummary;
use crate::state::StreamState;

/// Output of a refinement step: the nested intervals plus the gap that
/// was used to choose them (the paper's `g'` for this node).
#[derive(Clone, Debug)]
pub struct Refinement {
    /// New interval `(α_π, β_π)` for stream π.
    pub iv_pi: Interval,
    /// New interval `(α_ϱ, β_ϱ)` for stream ϱ.
    pub iv_rho: Interval,
    /// The gap information this refinement was derived from.
    pub gap: GapInfo,
}

/// Runs `RefineIntervals(π, ϱ, (ℓ_π, r_π), (ℓ_ϱ, r_ϱ))`.
///
/// Preconditions (asserted where observable): the streams are
/// indistinguishable and only their most recent `N' ≥ 2` items lie inside
/// the given intervals.
pub fn refine_intervals<S: ComparisonSummary<Item>>(
    pi: &StreamState<S>,
    rho: &StreamState<S>,
    iv_pi: &Interval,
    iv_rho: &Interval,
) -> Refinement {
    assert!(
        pi.count_inside(iv_pi) >= 2,
        "need N' >= 2 items inside the interval"
    );
    assert_eq!(
        pi.count_inside(iv_pi),
        rho.count_inside(iv_rho),
        "intervals must contain the same number of items on both streams"
    );
    let gap = compute_gap(pi, rho, iv_pi, iv_rho);
    refine_from(pi, rho, iv_pi, iv_rho, gap)
}

/// A refinement step could not derive valid nested intervals — the gap
/// extremes contradict the stream contents (possible only when the
/// summary under attack lied about its item array or ranks).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RefineError(pub String);

impl std::fmt::Display for RefineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "refine: {}", self.0)
    }
}

/// Like [`refine_intervals`] but reuses an already computed [`GapInfo`]
/// for these streams and intervals (the adversary computes each node's
/// gap exactly once).
pub fn refine_from<S: ComparisonSummary<Item>>(
    pi: &StreamState<S>,
    rho: &StreamState<S>,
    iv_pi: &Interval,
    iv_rho: &Interval,
    gap: GapInfo,
) -> Refinement {
    match try_refine_from(pi, rho, iv_pi, iv_rho, gap) {
        Ok(r) => r,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible [`refine_from`] for the panic-free driver path: structural
/// contradictions (an empty stream behind a −∞/+∞ extreme, an extreme on
/// the wrong side) become a [`RefineError`] instead of aborting.
pub fn try_refine_from<S: ComparisonSummary<Item>>(
    pi: &StreamState<S>,
    rho: &StreamState<S>,
    iv_pi: &Interval,
    iv_rho: &Interval,
    gap: GapInfo,
) -> Result<Refinement, RefineError> {
    // New interval for π: (I'_π[i], next(π, I'_π[i])).
    let (pi_lo, pi_hi) = match &gap.pi_low {
        Endpoint::NegInf => {
            // next(π, −∞) is the stream minimum.
            let min = pi
                .min()
                .ok_or_else(|| RefineError("stream π is empty below a -inf gap extreme".into()))?;
            (Endpoint::NegInf, Endpoint::Finite(min))
        }
        Endpoint::Finite(a) => {
            let nxt = pi.next(a).map_or(Endpoint::PosInf, Endpoint::Finite);
            (Endpoint::Finite(a.clone()), nxt)
        }
        Endpoint::PosInf => {
            return Err(RefineError("gap low extreme is +inf".into()));
        }
    };

    // New interval for ϱ: (prev(ϱ, I'_ϱ[i+1]), I'_ϱ[i+1]).
    let (rho_lo, rho_hi) = match &gap.rho_high {
        Endpoint::PosInf => {
            let max = rho
                .max()
                .ok_or_else(|| RefineError("stream ϱ is empty below a +inf gap extreme".into()))?;
            (Endpoint::Finite(max), Endpoint::PosInf)
        }
        Endpoint::Finite(b) => {
            let prv = rho.prev(b).map_or(Endpoint::NegInf, Endpoint::Finite);
            (prv, Endpoint::Finite(b.clone()))
        }
        Endpoint::NegInf => {
            return Err(RefineError("gap high extreme is -inf".into()));
        }
    };

    let new_pi = Interval::new(pi_lo, pi_hi);
    let new_rho = Interval::new(rho_lo, rho_hi);

    // Observation 1(i): no existing stream item lies inside either new
    // interval — they sit between order-adjacent stream items.
    debug_assert_eq!(pi.count_inside(&new_pi), 0);
    debug_assert_eq!(rho.count_inside(&new_rho), 0);
    debug_assert!(iv_pi.encloses(&new_pi));
    debug_assert!(iv_rho.encloses(&new_rho));

    Ok(Refinement {
        iv_pi: new_pi,
        iv_rho: new_rho,
        gap,
    })
}

/// Checks Observation 1(ii): fresh items `a ∈ (α_π, β_π)` and
/// `b ∈ (α_ϱ, β_ϱ)` land at the same position of the respective item
/// arrays, i.e. `min{i | a ≤ I_π[i]} = min{i | b ≤ I_ϱ[i]}`.
///
/// Used by tests.
pub fn check_observation1<S: ComparisonSummary<Item>>(
    pi: &StreamState<S>,
    rho: &StreamState<S>,
    a: &Item,
    b: &Item,
) -> bool {
    let pos = |arr: &[Item], x: &Item| arr.iter().position(|v| x <= v);
    let ia = pi.summary.item_array();
    let ib = rho.summary.item_array();
    pos(&ia, a) == pos(&ib, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{DecimatedSummary, ExactSummary};
    use cqs_universe::{between_items, generate_increasing};

    fn feed<S: ComparisonSummary<Item>>(summary: S, n: usize) -> StreamState<S> {
        let mut st = StreamState::new(summary);
        for it in generate_increasing(&Interval::whole(), n) {
            st.push(it);
        }
        st
    }

    #[test]
    fn refinement_intervals_are_nested_and_empty() {
        let pi = feed(DecimatedSummary::new(5), 64);
        let rho = feed(DecimatedSummary::new(5), 64);
        let whole = Interval::whole();
        let r = refine_intervals(&pi, &rho, &whole, &whole);
        assert!(whole.encloses(&r.iv_pi));
        assert!(whole.encloses(&r.iv_rho));
        assert_eq!(pi.count_inside(&r.iv_pi), 0);
        assert_eq!(rho.count_inside(&r.iv_rho), 0);
        assert!(r.gap.gap >= 2, "decimated summary should have left a gap");
    }

    #[test]
    fn fresh_items_in_refined_intervals_compare_identically() {
        let pi = feed(DecimatedSummary::new(5), 64);
        let rho = feed(DecimatedSummary::new(5), 64);
        let whole = Interval::whole();
        let r = refine_intervals(&pi, &rho, &whole, &whole);
        let a = generate_increasing(&r.iv_pi, 1).pop().unwrap();
        let b = generate_increasing(&r.iv_rho, 1).pop().unwrap();
        assert!(
            check_observation1(&pi, &rho, &a, &b),
            "Observation 1(ii) violated"
        );
    }

    #[test]
    fn exact_summary_refinement_still_works() {
        // With everything stored the gap is 1, but refinement must still
        // produce valid (empty) intervals between adjacent items.
        let pi = feed(ExactSummary::new(), 16);
        let rho = feed(ExactSummary::new(), 16);
        let whole = Interval::whole();
        let r = refine_intervals(&pi, &rho, &whole, &whole);
        assert_eq!(r.gap.gap, 1);
        // The interval sits between order-adjacent items, and the
        // universe is continuous, so we can still mint items inside it.
        let fresh = generate_increasing(&r.iv_pi, 3);
        assert_eq!(fresh.len(), 3);
        for it in &fresh {
            assert!(r.iv_pi.contains(it));
        }
    }

    #[test]
    fn refinement_respects_adjacent_items() {
        let pi = feed(ExactSummary::new(), 8);
        let rho = feed(ExactSummary::new(), 8);
        let whole = Interval::whole();
        let r = refine_intervals(&pi, &rho, &whole, &whole);
        // For π the new interval is (I'_π[i], next(π, ·)): inserting the
        // midpoint keeps order between the two.
        if let (Endpoint::Finite(lo), Endpoint::Finite(hi)) = (r.iv_pi.lo(), r.iv_pi.hi()) {
            let mid = between_items(lo, hi);
            assert!(r.iv_pi.contains(&mid));
        }
    }
}
