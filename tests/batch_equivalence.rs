//! Batched-insert equivalence: the bulk hot paths added for throughput
//! (the GK one-pass sorted-run merge and the adversary's batched leaves)
//! must be *observationally identical* to the per-item paths they
//! replace — same tuples, same audit trail, byte for byte. GK's
//! per-item path holds pending inserts in its fresh buffer between
//! flushes and its sorted-run path never does, so comparing the two also
//! pins every reader over pending inserts to the flushed list.

use cqs::prelude::*;
use cqs_core::adversary::Adversary;
use cqs_core::gap::{compute_gap_scratch, GapInfo, GapScratch, TieBreak};
use cqs_core::reference::ExactSummary;
use cqs_core::refine::refine_from;
use cqs_core::{Endpoint, StreamRepr, StreamState};
use cqs_gk::{GkSummary, GreedyGk};
use cqs_snapshot::SnapshotWrite;
use cqs_streams::{workload, Workload};

const SEED: u64 = 0xC0FFEE;

fn chunks_of(values: &[u64], chunk: usize) -> Vec<Vec<u64>> {
    values
        .chunks(chunk)
        .map(|c| {
            let mut run = c.to_vec();
            run.sort_unstable();
            run
        })
        .collect()
}

/// Drives one summary pair through the same stream, one via
/// `insert_sorted_run` over sorted chunks and one per item, asserting
/// identical space peaks, and after every run byte-identical snapshots
/// (tuples, n, ε, period) and identical readers, clones included.
fn assert_gk_batch_equivalent<S, F>(label: &str, make: F)
where
    S: ComparisonSummary<u64> + RankEstimator<u64> + SnapshotWrite + Clone,
    F: Fn() -> S,
{
    for which in [
        Workload::Sorted,
        Workload::Shuffled,
        Workload::Sawtooth,
        Workload::Zipf,
    ] {
        let values = workload(which, 6_000, SEED).expect("workload");
        for chunk in [3usize, 50, 512] {
            let mut batched = make();
            let mut sequential = make();
            for (i, run) in chunks_of(&values, chunk).iter().enumerate() {
                let peak_batched = batched.insert_sorted_run(run);
                let mut peak_seq = 0usize;
                for &x in run {
                    sequential.insert(x);
                    peak_seq = peak_seq.max(sequential.stored_count());
                }
                assert_eq!(
                    peak_batched, peak_seq,
                    "{label}/{which:?}/{chunk}: intra-run |I| peak diverged"
                );
                if i % 11 == 0 {
                    assert_readers_agree(&batched, &sequential, run);
                    // A clone carries the pending run and encodes the same.
                    assert_readers_agree(&batched, &sequential.clone(), run);
                }
            }
            assert_eq!(batched.items_processed(), sequential.items_processed());
            assert_eq!(
                batched.stored_count(),
                sequential.stored_count(),
                "{label}/{which:?}/{chunk}: final |I| diverged"
            );
            assert_eq!(
                batched.item_array(),
                sequential.item_array(),
                "{label}/{which:?}/{chunk}: item arrays diverged"
            );
        }
    }
}

/// Snapshot bytes and every reader agree between `a` and `b`.
fn assert_readers_agree<S>(a: &S, b: &S, probes: &[u64])
where
    S: ComparisonSummary<u64> + RankEstimator<u64> + SnapshotWrite,
{
    assert_eq!(a.to_snapshot_bytes(), b.to_snapshot_bytes(), "snapshots");
    assert_eq!(a.stored_count(), b.stored_count());
    assert_eq!(a.item_array(), b.item_array());
    let n = a.items_processed();
    for r in (0..=n + 1).step_by(n as usize / 9 + 1) {
        assert_eq!(a.query_rank(r), b.query_rank(r), "rank {r}");
    }
    for q in probes.iter().chain(&[0, u64::MAX]) {
        assert_eq!(a.estimate_rank(q), b.estimate_rank(q), "estimate {q}");
    }
    let (lo, hi) = (probes.first(), probes.last());
    let (mut va, mut vb) = (Vec::new(), Vec::new());
    a.for_each_item_between(lo, hi, &mut |&x| va.push(x));
    b.for_each_item_between(lo, hi, &mut |&x| vb.push(x));
    assert_eq!(va, vb, "between {lo:?}..{hi:?}");
}

#[test]
fn gk_banded_batch_insert_matches_sequential_tuples() {
    assert_gk_batch_equivalent("gk", || GkSummary::<u64>::new(0.01));
    // Tuple-level identity, not just item-level: (v, g, Δ) all match.
    let values = workload(Workload::Shuffled, 5_000, SEED).expect("workload");
    let mut batched = GkSummary::<u64>::new(0.02);
    let mut sequential = GkSummary::<u64>::new(0.02);
    for run in chunks_of(&values, 37) {
        batched.insert_sorted_run(&run);
        for &x in &run {
            sequential.insert(x);
        }
    }
    let (a, b) = (batched.tuples(), sequential.tuples());
    assert_eq!(a.len(), b.len());
    for (i, (ta, tb)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(ta.v, tb.v, "tuple {i} value");
        assert_eq!(ta.g, tb.g, "tuple {i} g");
        assert_eq!(ta.delta, tb.delta, "tuple {i} delta");
    }
}

#[test]
fn gk_greedy_batch_insert_matches_sequential_tuples() {
    assert_gk_batch_equivalent("gk-greedy", || GreedyGk::<u64>::new(0.01));
    let values = workload(Workload::Sawtooth, 5_000, SEED).expect("workload");
    let mut batched = GreedyGk::<u64>::new(0.02);
    let mut sequential = GreedyGk::<u64>::new(0.02);
    for run in chunks_of(&values, 41) {
        batched.insert_sorted_run(&run);
        for &x in &run {
            sequential.insert(x);
        }
    }
    let (a, b) = (batched.tuples(), sequential.tuples());
    assert_eq!(a.len(), b.len());
    for (i, (ta, tb)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(ta.v, tb.v, "tuple {i} value");
        assert_eq!(ta.g, tb.g, "tuple {i} g");
        assert_eq!(ta.delta, tb.delta, "tuple {i} delta");
    }
}

#[test]
fn gk_batch_insert_handles_duplicate_values() {
    // Equal-item groups are the subtle case: sequential inserts place
    // each new equal item *before* the previous ones.
    let mut values = Vec::new();
    for i in 0..2_000u64 {
        values.push(i % 200 + 1);
    }
    let mut batched = GkSummary::<u64>::new(0.05);
    let mut sequential = GkSummary::<u64>::new(0.05);
    for run in chunks_of(&values, 23) {
        batched.insert_sorted_run(&run);
        for &x in &run {
            sequential.insert(x);
        }
    }
    let (a, b) = (batched.tuples(), sequential.tuples());
    assert_eq!(a.len(), b.len());
    for (i, (ta, tb)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(
            (&ta.v, ta.g, ta.delta),
            (&tb.v, tb.g, tb.delta),
            "tuple {i} diverged on duplicate-heavy stream"
        );
    }
}

/// The adversary feeds each leaf through `insert_sorted_run`. On a
/// bare summary that is its bulk path; on a [`FaultySummary`] with the
/// empty plan, which keeps the trait's per-item default, it is one
/// `insert` per item. The feed must leave *no trace* in the audits:
/// every recursion-tree node's record — gaps, S_k, Claim 1, Lemma 5.2,
/// the space-gap RHS — is byte-identical across the two, as are the
/// flat report and the rank probe.
fn assert_adversary_modes_agree<S, F>(label: &str, eps_inv: u64, k: u32, make: F)
where
    S: ComparisonSummary<Item>,
    F: Fn() -> S,
{
    let eps = Eps::from_inverse(eps_inv);
    let batched = Adversary::new(eps, make(), make()).run(k);
    let per_item = Adversary::new(
        eps,
        FaultySummary::new(make(), FaultPlan::none()),
        FaultySummary::new(make(), FaultPlan::none()),
    )
    .run(k);
    assert_eq!(
        format!("{:?}", batched.audits),
        format!("{:?}", per_item.audits),
        "{label}: audit trails diverged between insert modes"
    );
    let (rb, rp) = (batched.report(), per_item.report());
    assert_eq!(
        format!("{rb:?}"),
        format!("{rp:?}"),
        "{label}: reports diverged"
    );
    assert_eq!(
        batched.rank_probe, per_item.rank_probe,
        "{label}: rank probes"
    );
}

#[test]
fn adversary_audits_identical_across_insert_modes() {
    assert_adversary_modes_agree("exact", 16, 4, ExactSummary::<Item>::new);
    assert_adversary_modes_agree("gk", 16, 4, || GkSummary::<Item>::new(1.0 / 16.0));
    assert_adversary_modes_agree("gk", 8, 5, || GkSummary::<Item>::new(1.0 / 8.0));
    assert_adversary_modes_agree("gk-greedy", 16, 4, || GreedyGk::<Item>::new(1.0 / 16.0));
    assert_adversary_modes_agree("kll", 16, 5, || KllSketch::<Item>::with_seed(64, 0xD1CE));
    assert_adversary_modes_agree("ckms", 16, 5, || CkmsSummary::<Item>::new(1.0 / 16.0));
}

/// The gap scan's `GapInfo`, rebuilt from `item_array()` and one
/// `rank_in` per entry of each side's restricted array: value, index,
/// both winning extremes and the array length.
fn reference_gap<S: ComparisonSummary<Item>>(
    pi: &StreamState<S>,
    rho: &StreamState<S>,
    iv_pi: &Interval,
    iv_rho: &Interval,
    tie: TieBreak,
) -> (u64, usize, Endpoint, Endpoint, usize) {
    let restricted = |st: &StreamState<S>, iv: &Interval| {
        let mut arr = vec![iv.lo().clone()];
        arr.extend(
            st.summary
                .item_array()
                .into_iter()
                .filter(|it| iv.contains(it))
                .map(Endpoint::Finite),
        );
        arr.push(iv.hi().clone());
        let ranks: Vec<u64> = arr.iter().map(|x| st.rank_in(iv, x)).collect();
        (arr, ranks)
    };
    let (arr_pi, ranks_pi) = restricted(pi, iv_pi);
    let (arr_rho, ranks_rho) = restricted(rho, iv_rho);
    assert_eq!(arr_pi.len(), arr_rho.len());
    let gaps: Vec<u64> = (0..arr_pi.len() - 1)
        .map(|i| ranks_rho[i + 1] - ranks_pi[i])
        .collect();
    let best = *gaps.iter().max().unwrap();
    let index = match tie {
        TieBreak::LowestIndex => gaps.iter().position(|&g| g == best),
        TieBreak::HighestIndex => gaps.iter().rposition(|&g| g == best),
    }
    .unwrap();
    (
        best,
        index,
        arr_pi[index].clone(),
        arr_rho[index + 1].clone(),
        arr_pi.len(),
    )
}

/// Checks both tie-breaking policies of `compute_gap_scratch` against
/// the reference and returns the lowest-index gap, which the recursion
/// refines on.
fn audit_against_reference<S: ComparisonSummary<Item>>(
    pi: &StreamState<S>,
    rho: &StreamState<S>,
    iv_pi: &Interval,
    iv_rho: &Interval,
    scratch: &mut GapScratch,
) -> GapInfo {
    for tie in [TieBreak::HighestIndex, TieBreak::LowestIndex] {
        let got = compute_gap_scratch(pi, rho, iv_pi, iv_rho, tie, scratch);
        let want = reference_gap(pi, rho, iv_pi, iv_rho, tie);
        assert_eq!(
            (
                got.gap,
                got.index,
                got.pi_low,
                got.rho_high,
                got.restricted_len
            ),
            want,
            "gap diverged ({tie:?}) in {iv_pi:?} / {iv_rho:?}"
        );
    }
    compute_gap_scratch(pi, rho, iv_pi, iv_rho, TieBreak::LowestIndex, scratch)
}

/// The adversary's recursion (`adv`/`leaf`), auditing every node, and
/// every leaf's refined intervals before their run arrives (empty
/// interiors).
fn adv_audited<S: ComparisonSummary<Item>>(
    k: u32,
    leaf: usize,
    pi: &mut StreamState<S>,
    rho: &mut StreamState<S>,
    iv_pi: &Interval,
    iv_rho: &Interval,
    scratch: &mut GapScratch,
) -> GapInfo {
    if k == 1 {
        if !pi.is_empty() {
            let empty = audit_against_reference(pi, rho, iv_pi, iv_rho, scratch);
            assert_eq!(empty.restricted_len, 2, "refined interval not empty");
        }
        pi.push_run_in(iv_pi, &generate_increasing(iv_pi, leaf));
        rho.push_run_in(iv_rho, &generate_increasing(iv_rho, leaf));
    } else {
        let left = adv_audited(k - 1, leaf, pi, rho, iv_pi, iv_rho, scratch);
        let refined = refine_from(pi, rho, iv_pi, iv_rho, left);
        adv_audited(
            k - 1,
            leaf,
            pi,
            rho,
            &refined.iv_pi,
            &refined.iv_rho,
            scratch,
        );
    }
    audit_against_reference(pi, rho, iv_pi, iv_rho, scratch)
}

#[test]
fn gap_winners_match_item_array_reference_on_refined_streams() {
    let whole = Interval::whole();
    for repr in [StreamRepr::Materialized, StreamRepr::Implicit] {
        let mut scratch = GapScratch::default();
        let (mut pi, mut rho) = (
            StreamState::with_repr(GkSummary::<Item>::new(1.0 / 16.0), repr),
            StreamState::with_repr(GkSummary::<Item>::new(1.0 / 16.0), repr),
        );
        adv_audited(6, 32, &mut pi, &mut rho, &whole, &whole, &mut scratch);
        let (mut pi, mut rho) = (
            StreamState::with_repr(ExactSummary::<Item>::new(), repr),
            StreamState::with_repr(ExactSummary::<Item>::new(), repr),
        );
        adv_audited(4, 8, &mut pi, &mut rho, &whole, &whole, &mut scratch);
    }
}
