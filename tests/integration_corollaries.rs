//! Cross-crate integration: the Section 6 corollaries driven end-to-end
//! with real summaries.

use cqs::core::adversary::run_adversary;
use cqs::core::biased::run_biased_phases;
use cqs::core::median::{median_reduction, MedianOutcome};
use cqs::core::rank_estimation::rank_failure_witness;
use cqs::prelude::*;

#[test]
fn median_reduction_on_correct_gk_hits_space_horn() {
    let eps = Eps::from_inverse(32);
    let out = run_adversary(eps, 6, || GkSummary::<Item>::new(eps.value()));
    let rep = median_reduction(out);
    assert!(matches!(rep.outcome, MedianOutcome::SpaceBound { .. }));
    assert!(rep.demonstrates_theorem());
}

#[test]
fn median_reduction_on_capped_gk_fails_the_median() {
    let eps = Eps::from_inverse(32);
    let out = run_adversary(eps, 7, || CappedGk::<Item>::new(eps.value(), 8));
    let rep = median_reduction(out);
    match rep.outcome {
        MedianOutcome::MedianFailure {
            err_pi,
            err_rho,
            budget,
            ..
        } => {
            assert!(err_pi > budget || err_rho > budget);
        }
        other => panic!("expected median failure, got {other:?}"),
    }
}

#[test]
fn rank_estimation_witness_shows_agreeing_estimates() {
    let eps = Eps::from_inverse(32);
    let out = run_adversary(eps, 7, || CappedGk::<Item>::new(eps.value(), 8));
    let w = rank_failure_witness(&out).expect("capped summary blows the gap");
    // The paper's core mechanism: both copies answer identically…
    assert!(
        w.estimates_agree,
        "comparison-based estimator must agree: {w:?}"
    );
    // …while the true ranks straddle the gap.
    assert!(w.true_rho - w.true_pi >= w.gap - 2);
    assert!(w.demonstrates_failure());
}

#[test]
fn rank_estimation_no_witness_for_correct_gk() {
    let eps = Eps::from_inverse(32);
    let out = run_adversary(eps, 6, || GkSummary::<Item>::new(eps.value()));
    assert!(rank_failure_witness(&out).is_none());
}

#[test]
fn biased_phases_ckms_retains_every_phase() {
    let eps = Eps::from_inverse(32);
    let rep = run_biased_phases(eps, 5, || CkmsSummary::<Item>::new(eps.value()))
        .expect("the phases complete on a conforming summary");
    for p in &rep.phase_audits {
        assert!(
            p.stored_at_stream_end as f64 >= p.bound,
            "phase {}: CKMS retained {} < per-phase bound {}",
            p.phase,
            p.stored_at_stream_end,
            p.bound
        );
    }
    assert!(rep.stored_final as f64 >= rep.total_bound);
}

#[test]
fn biased_phases_uniform_gk_forgets_early_phases() {
    // The contrast motivating Theorem 6.5: a uniform summary may forget
    // early phases once N has grown; a biased summary may not.
    let eps = Eps::from_inverse(32);
    let rep = run_biased_phases(eps, 6, || GkSummary::<Item>::new(eps.value()))
        .expect("the phases complete on a conforming summary");
    let first = &rep.phase_audits[0];
    assert!(
        first.stored_at_stream_end < first.stored_at_phase_end,
        "uniform GK should have compacted phase 1 away: {} -> {}",
        first.stored_at_phase_end,
        first.stored_at_stream_end
    );
}

#[test]
fn biased_phase_streams_grow_monotonically_across_phases() {
    let eps = Eps::from_inverse(16);
    let rep = run_biased_phases(eps, 4, || GkSummary::<Item>::new(eps.value()))
        .expect("the phases complete on a conforming summary");
    // Each phase appends N_i = (1/eps)·2^i items.
    let expected: u64 = (1..=4u32).map(|i| eps.stream_len(i)).sum();
    assert_eq!(rep.total_len, expected);
}

#[test]
fn biased_phases_surface_a_phase_two_panic_as_a_typed_error() {
    let eps = Eps::from_inverse(16);
    // Phase 1 feeds N_1 = 2/ε items in one leaf; the armed step lands in
    // the second leaf of phase 2.
    let at = eps.stream_len(1) + eps.leaf_items() + 6;
    let plan = FaultPlan::none().inject(at, FaultKind::PanicOnInsert);
    let err = run_biased_phases(eps, 3, || {
        FaultySummary::new(GkSummary::<Item>::new(eps.value()), plan.clone())
    })
    .expect_err("the phase-2 panic must surface as an error");
    assert_eq!(err.verdict(), RunVerdict::SummaryPanicked);
    match &err {
        AdversaryError::SummaryPanicked {
            step,
            during,
            partial,
            ..
        } => {
            assert_eq!(*step, at);
            assert_eq!(*during, "insert");
            assert_eq!(partial.k, 2, "the error names the phase's depth");
            assert_eq!(partial.items_fed, at - 1);
            // Phase 1's root and phase 2's first leaf completed.
            let levels: Vec<u32> = partial.audits.iter().map(|a| a.level).collect();
            assert_eq!(levels, vec![1, 1]);
        }
        other => panic!("wrong variant: {other:?}"),
    }
}
