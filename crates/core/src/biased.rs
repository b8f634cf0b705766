//! Theorem 6.5 — the Ω((1/ε)·log² εN) lower bound for biased quantiles.
//!
//! Biased (relative-error) quantile summaries must answer a ϕ-quantile
//! query with an item of rank (1±ε)·ϕN. The paper's k-phase construction
//! runs `AdvStrategy(i, …)` for i = 1..k, each phase drawing its
//! N_i = (1/ε)·2^i items from above everything seen before. Because all
//! later items are larger, the relative-error guarantee for phase-i ranks
//! stays Θ(εN_i) forever, so a correct summary retains Ω((1/ε)·i) items
//! *from each phase* — Ω((1/ε)·k²) in total.
//!
//! This module executes the phases against a live summary and audits the
//! per-phase retention at the end of the stream.

use cqs_universe::{Endpoint, Interval, Item};

use crate::adversary::{Adversary, AdversaryError};
use crate::eps::Eps;
use crate::model::ComparisonSummary;
use crate::spacegap::theorem22_bound;

/// Retention audit for one phase.
#[derive(Clone, Debug)]
pub struct PhaseAudit {
    /// Phase number i (1-based).
    pub phase: u32,
    /// Items appended in this phase, N_i = (1/ε)·2^i.
    pub n_i: u64,
    /// Arrival-position range [start, end) of the phase's items.
    pub start: u64,
    /// Exclusive end of the arrival range.
    pub end: u64,
    /// Gap within the phase's region at the end of the phase.
    pub gap_at_phase_end: u64,
    /// Items from this phase still stored when the phase ended.
    pub stored_at_phase_end: usize,
    /// Items from this phase still stored at the end of the stream.
    pub stored_at_stream_end: usize,
    /// The per-phase space bound c·(i+1)/(4ε) the theorem forces on a
    /// correct biased summary.
    pub bound: f64,
}

/// Full report of the biased-quantiles construction.
#[derive(Clone, Debug)]
pub struct BiasedReport {
    /// ε of the run.
    pub eps: Eps,
    /// Number of phases k.
    pub phases: u32,
    /// Total stream length Σ N_i = (1/ε)·(2^{k+1} − 2).
    pub total_len: u64,
    /// Per-phase audits.
    pub phase_audits: Vec<PhaseAudit>,
    /// Total items stored at the end.
    pub stored_final: usize,
    /// Running-max items stored.
    pub max_stored: usize,
    /// Σ_i bound_i — the Ω((1/ε)·k²) total a correct biased summary
    /// must meet.
    pub total_bound: f64,
}

/// Runs the k-phase biased-quantiles construction against two fresh
/// copies of a summary. Each phase is one [`Adversary::extend`], so a
/// summary that panics, leaves the comparison model (indistinguishability
/// included) or exhausts a capacity ends the run as the phase's typed
/// [`AdversaryError`].
pub fn run_biased_phases<S, F>(
    eps: Eps,
    k: u32,
    mut make: F,
) -> Result<BiasedReport, AdversaryError>
where
    S: ComparisonSummary<Item>,
    F: FnMut() -> S,
{
    let mut adv = Adversary::new(eps, make(), make());
    let mut ranges: Vec<(u64, u64)> = Vec::new();
    let mut phase_end_stats: Vec<(u64, usize)> = Vec::new();

    for i in 1..=k {
        let iv_pi = phase_interval(adv.pi().max());
        let iv_rho = phase_interval(adv.rho().max());
        let start = adv.pi().len();
        let gap = adv.extend(i, &iv_pi, &iv_rho)?;
        let end = adv.pi().len();
        ranges.push((start, end));
        let stored_now = stored_from_range(adv.pi(), start, end);
        phase_end_stats.push((gap.gap, stored_now));
    }

    let total_len = adv.pi().len();
    let stored_final = adv.pi().summary.stored_count();
    let max_stored = adv.pi().summary.max_stored();

    let mut phase_audits = Vec::with_capacity(k as usize);
    for (idx, &(start, end)) in ranges.iter().enumerate() {
        let i = idx as u32 + 1;
        let (gap_at_phase_end, stored_at_phase_end) = phase_end_stats[idx];
        phase_audits.push(PhaseAudit {
            phase: i,
            n_i: eps.stream_len(i),
            start,
            end,
            gap_at_phase_end,
            stored_at_phase_end,
            stored_at_stream_end: stored_from_range(adv.pi(), start, end),
            bound: theorem22_bound(eps, i),
        });
    }
    let total_bound = phase_audits.iter().map(|p| p.bound).sum();

    Ok(BiasedReport {
        eps,
        phases: k,
        total_len,
        phase_audits,
        stored_final,
        max_stored,
        total_bound,
    })
}

fn phase_interval(max: Option<Item>) -> Interval {
    match max {
        None => Interval::whole(),
        Some(m) => Interval::new(Endpoint::Finite(m), Endpoint::PosInf),
    }
}

fn stored_from_range<S: ComparisonSummary<Item>>(
    st: &crate::state::StreamState<S>,
    start: u64,
    end: u64,
) -> usize {
    st.summary
        .item_array()
        .iter()
        .filter(|it| {
            st.arrival_of(it)
                .map(|p| p >= start && p < end)
                .unwrap_or(false)
        })
        .count()
}

/// The relative-error rank budget for a query at rank `r`: ⌊ε·r⌋.
/// (Biased quantiles replace the uniform εN with ε·ϕN.)
pub fn biased_budget(eps: Eps, r: u64) -> u64 {
    r / eps.inverse()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ExactSummary;

    #[test]
    fn phase_lengths_follow_geometric_schedule() {
        let eps = Eps::from_inverse(4);
        let rep = run_biased_phases(eps, 4, ExactSummary::new).unwrap();
        assert_eq!(rep.phase_audits.len(), 4);
        for (i, p) in rep.phase_audits.iter().enumerate() {
            assert_eq!(p.n_i, eps.stream_len(i as u32 + 1));
            assert_eq!(p.end - p.start, p.n_i);
        }
        // Σ N_i = (1/ε)(2^{k+1} − 2) = 4·30 = 120.
        assert_eq!(rep.total_len, 120);
    }

    #[test]
    fn phases_are_order_disjoint_and_increasing() {
        let eps = Eps::from_inverse(4);
        let rep = run_biased_phases(eps, 3, ExactSummary::new).unwrap();
        for w in rep.phase_audits.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn exact_summary_retains_every_phase_fully() {
        let eps = Eps::from_inverse(4);
        let rep = run_biased_phases(eps, 3, ExactSummary::new).unwrap();
        for p in &rep.phase_audits {
            assert_eq!(p.stored_at_stream_end as u64, p.n_i);
            assert_eq!(p.gap_at_phase_end, 1);
        }
        assert_eq!(rep.stored_final as u64, rep.total_len);
    }

    #[test]
    fn total_bound_is_quadratic_in_k() {
        let eps = Eps::from_inverse(64);
        let r4 = run_biased_phases(eps, 4, ExactSummary::new)
            .unwrap()
            .total_bound;
        let r8 = run_biased_phases(eps, 8, ExactSummary::new)
            .unwrap()
            .total_bound;
        // Σ_{i≤k}(i+2) = k(k+5)/2: k=4 → 18, k=8 → 52.
        assert!((r8 / r4 - 52.0 / 18.0).abs() < 1e-9);
    }

    #[test]
    fn biased_budget_is_relative() {
        let eps = Eps::from_inverse(100);
        assert_eq!(biased_budget(eps, 50), 0);
        assert_eq!(biased_budget(eps, 100), 1);
        assert_eq!(biased_budget(eps, 100_000), 1000);
    }
}
