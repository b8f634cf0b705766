//! Theorem 6.1 — finding an approximate median is as hard as the full
//! quantile problem.
//!
//! Reduction: run the adversarial construction. Either the gap stayed
//! within 4εN — then the space-gap analysis already forces
//! Ω((1/ε)·log εN) space — or there is a quantile ϕ′ with no stored
//! 2ε-approximation; appending ≤ N items *below* everything (if ϕ′ < ½)
//! or *above* everything (if ϕ′ ≥ ½) slides that hole onto the median,
//! and the summary cannot answer an ε-approximate median query on the
//! padded stream.

use cqs_universe::{generate_increasing, Endpoint, Interval, Item};

use crate::adversary::AdversaryOutcome;
use crate::gap::compute_gap;
use crate::model::ComparisonSummary;
use crate::spacegap::space_gap_rhs;

/// Which horn of Theorem 6.1's dilemma the run landed on.
#[derive(Clone, Debug)]
pub enum MedianOutcome {
    /// Gap ≤ 4εN: the space-gap inequality lower-bounds the space.
    SpaceBound {
        /// Items stored at the end of the construction.
        stored: usize,
        /// The space-gap RHS at the measured gap.
        rhs: f64,
    },
    /// Gap > 4εN: after padding, the median query fails.
    MedianFailure {
        /// The uncovered quantile ϕ′ before padding.
        phi_prime: f64,
        /// Items appended below/above everything.
        appended: u64,
        /// Total stream length after padding.
        total_len: u64,
        /// Median target rank on the padded stream.
        median_rank: u64,
        /// Rank error of the π-copy's median answer.
        err_pi: u64,
        /// Rank error of the ϱ-copy's median answer.
        err_rho: u64,
        /// Permitted budget ⌊ε·total_len⌋.
        budget: u64,
    },
}

/// Full report of the median reduction.
#[derive(Clone, Debug)]
pub struct MedianReport {
    /// Gap at the end of the base construction.
    pub gap: u64,
    /// The 4εN threshold separating the two horns.
    pub threshold: u64,
    /// The outcome.
    pub outcome: MedianOutcome,
}

impl MedianReport {
    /// Whether the run demonstrates the theorem (either horn suffices).
    pub fn demonstrates_theorem(&self) -> bool {
        match &self.outcome {
            MedianOutcome::SpaceBound { stored, rhs } => *stored as f64 >= rhs - 1e-9,
            MedianOutcome::MedianFailure {
                err_pi,
                err_rho,
                budget,
                ..
            } => *err_pi > *budget || *err_rho > *budget,
        }
    }
}

/// Runs the median reduction on a finished adversary outcome (consuming
/// it: the failure horn appends padding items to both streams).
pub fn median_reduction<S: ComparisonSummary<Item>>(outcome: AdversaryOutcome<S>) -> MedianReport {
    quantile_reduction(outcome, 0.5)
}

/// The generalisation the paper notes in passing: the same reduction
/// works "for any other ϕ-quantile as long as ε ≪ ϕ ≪ 1 − ε". Padding
/// below everything raises the hole's quantile; padding above lowers
/// it; we pick whichever direction moves the uncovered quantile ϕ′ onto
/// the requested target ϕ.
///
/// # Panics
///
/// Panics unless `0 < phi < 1`.
pub fn quantile_reduction<S: ComparisonSummary<Item>>(
    mut outcome: AdversaryOutcome<S>,
    phi: f64,
) -> MedianReport {
    let eps = outcome.eps;
    let n = eps.stream_len(outcome.k);
    let threshold = 2 * eps.gap_bound(n); // 4εN
    let whole = Interval::whole();
    let gap = compute_gap(&outcome.pi, &outcome.rho, &whole, &whole);

    if gap.gap <= threshold {
        return MedianReport {
            gap: gap.gap,
            threshold,
            outcome: MedianOutcome::SpaceBound {
                stored: outcome.pi.summary.stored_count(),
                rhs: space_gap_rhs(eps, n, gap.gap),
            },
        };
    }

    // ϕ′·N sits mid-gap; no stored item is a 2ε-approximate ϕ′-quantile.
    let r_low = outcome.pi.rank_in(&whole, &gap.pi_low);
    let r_high = outcome.rho.rank_in(&whole, &gap.rho_high);
    let t = ((r_low + r_high) / 2).clamp(1, n);
    let phi_prime = t as f64 / n as f64;

    assert!(phi > 0.0 && phi < 1.0, "phi must be strictly inside (0, 1)");
    // Padding, generalised from the paper's median case: append m items
    // so the hole at rank t lands on rank ϕ·(N + m) of the padded stream.
    //
    //   hole below target (t < ϕN): pad below everything, which raises
    //   the hole's rank to t + m; solve t + m = ϕ(N + m), giving
    //   m = (ϕN − t)/(1 − ϕ).
    //
    //   hole at/above target: pad above everything, leaving the hole's
    //   rank at t; solve t = ϕ(N + m), giving m = t/ϕ − N.
    //
    // For the paper's ε ≪ ϕ ≪ 1 − ε regime m stays O(N); we cap at 4N
    // as a guard for extreme ϕ.
    let phi_n = phi * n as f64;
    let below = (t as f64) < phi_n;
    let m = if below {
        (((phi_n - t as f64) / (1.0 - phi)).round() as u64).min(4 * n)
    } else {
        (((t as f64) / phi - n as f64).round() as u64).min(4 * n)
    };
    let pad_interval = |st: &crate::state::StreamState<crate::model::MaxSpaceTracker<S>>| {
        if below {
            Interval::new(
                Endpoint::NegInf,
                Endpoint::Finite(st.min().expect("non-empty stream")),
            )
        } else {
            Interval::new(
                Endpoint::Finite(st.max().expect("non-empty stream")),
                Endpoint::PosInf,
            )
        }
    };
    // Each side's pad is one increasing run, appended like a leaf.
    let (iv_pi, iv_rho) = (pad_interval(&outcome.pi), pad_interval(&outcome.rho));
    outcome
        .pi
        .push_run_in(&iv_pi, &generate_increasing(&iv_pi, m as usize));
    outcome
        .rho
        .push_run_in(&iv_rho, &generate_increasing(&iv_rho, m as usize));

    let total = n + m;
    let median_rank = ((phi * total as f64) as u64).clamp(1, total);
    let budget = eps.rank_budget(total);
    let ans_pi = outcome
        .pi
        .summary
        .query_rank(median_rank)
        .expect("non-empty");
    let ans_rho = outcome
        .rho
        .summary
        .query_rank(median_rank)
        .expect("non-empty");
    let err_pi = outcome.pi.rank(&ans_pi).abs_diff(median_rank);
    let err_rho = outcome.rho.rank(&ans_rho).abs_diff(median_rank);

    MedianReport {
        gap: gap.gap,
        threshold,
        outcome: MedianOutcome::MedianFailure {
            phi_prime,
            appended: m,
            total_len: total,
            median_rank,
            err_pi,
            err_rho,
            budget,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::run_adversary;
    use crate::eps::Eps;
    use crate::reference::{DecimatedSummary, ExactSummary};

    #[test]
    fn exact_summary_lands_on_space_horn() {
        let eps = Eps::from_inverse(8);
        let out = run_adversary(eps, 4, ExactSummary::new);
        let rep = median_reduction(out);
        assert!(matches!(rep.outcome, MedianOutcome::SpaceBound { .. }));
        assert!(rep.demonstrates_theorem());
    }

    #[test]
    fn starved_summary_lands_on_failure_horn() {
        let eps = Eps::from_inverse(8);
        let out = run_adversary(eps, 6, || DecimatedSummary::new(3));
        let rep = median_reduction(out);
        match &rep.outcome {
            MedianOutcome::MedianFailure {
                err_pi,
                err_rho,
                budget,
                total_len,
                appended,
                ..
            } => {
                assert!(err_pi > budget || err_rho > budget, "median must fail");
                assert!(*appended <= eps.stream_len(6));
                assert_eq!(*total_len, eps.stream_len(6) + appended);
            }
            other => panic!("expected failure horn, got {other:?}"),
        }
        assert!(rep.demonstrates_theorem());
    }

    #[test]
    fn arbitrary_quantile_targets_also_fail() {
        // The paper's parenthetical: the reduction works for any
        // eps << phi << 1 - eps.
        let eps = Eps::from_inverse(8);
        for phi in [0.25f64, 0.4, 0.6, 0.75] {
            let out = run_adversary(eps, 6, || DecimatedSummary::new(3));
            let rep = quantile_reduction(out, phi);
            match &rep.outcome {
                MedianOutcome::MedianFailure {
                    median_rank,
                    total_len,
                    err_pi,
                    err_rho,
                    budget,
                    ..
                } => {
                    // The target rank really is the requested quantile of
                    // the padded stream…
                    let realised = *median_rank as f64 / *total_len as f64;
                    assert!(
                        (realised - phi).abs() < 0.02,
                        "phi={phi}: landed at {realised}"
                    );
                    // …and the query fails there.
                    assert!(
                        err_pi > budget || err_rho > budget,
                        "phi={phi} did not fail"
                    );
                }
                other => panic!("phi={phi}: expected failure horn, got {other:?}"),
            }
        }
    }

    #[test]
    fn padding_preserves_indistinguishability() {
        let eps = Eps::from_inverse(8);
        let out = run_adversary(eps, 6, || DecimatedSummary::new(3));
        // median_reduction internally pushes padding to both copies in
        // lockstep; afterwards the item arrays must still correspond.
        // We re-run it and inspect the states via a fresh run (the report
        // does not expose states), so instead check the weaker property:
        // the reduction ran without tripping any distinctness assertion.
        let rep = median_reduction(out);
        assert!(rep.gap > 0);
    }
}
