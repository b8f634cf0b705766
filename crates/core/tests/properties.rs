//! The paper's inequalities on executed instances, over seeded random
//! parameters: each property draws its cases from a fixed-seed
//! `SplitMix64`, so a failure replays exactly. Also the label-midpoint
//! properties the universe's continuity rests on.

use cqs_core::adversary::run_adversary;
use cqs_core::reference::{DecimatedSummary, ExactSummary};
use cqs_core::rng::SplitMix64;
use cqs_core::spacegap::claim1_holds;
use cqs_core::state::StreamState;
use cqs_core::{quantile_failure_witness, Eps};
use cqs_universe::{between_items, between_labels, generate_increasing, Endpoint, Interval, Item};

/// A uniform draw from `lo..hi`.
fn draw(rng: &mut SplitMix64, lo: u64, hi: u64) -> u64 {
    lo + rng.below(hi - lo)
}

/// The construction's audited inequalities hold for any budgeted
/// comparison-based summary at any (small) parameterisation.
#[test]
fn adversary_invariants_hold_for_random_parameters() {
    let mut rng = SplitMix64::new(0xad1);
    for _ in 0..24 {
        let eps = Eps::from_inverse(draw(&mut rng, 4, 24));
        let k = draw(&mut rng, 1, 6) as u32;
        let budget = draw(&mut rng, 3, 40) as usize;
        let out = run_adversary(eps, k, || DecimatedSummary::<Item>::new(budget));
        assert!(
            out.equivalence_error.is_none(),
            "{:?}",
            out.equivalence_error
        );
        assert_eq!(out.pi.len(), eps.stream_len(k));
        assert_eq!(out.audits.len(), (1usize << k) - 1);
        for a in &out.audits {
            assert!(a.claim1_ok, "Claim 1 failed at level {}", a.level);
            assert!(a.lemma52_ok, "Lemma 5.2 failed at level {}", a.level);
            assert!(a.g >= 1);
            if let (Some(gp), Some(gd)) = (a.g_prime, a.g_dprime) {
                assert!(claim1_holds(a.g, gp, gd));
            }
        }
    }
}

/// The dilemma is total: every run either keeps the gap within 2εN or
/// yields a demonstrated failure witness.
#[test]
fn dilemma_is_total() {
    let mut rng = SplitMix64::new(0xad2);
    for _ in 0..24 {
        let eps = Eps::from_inverse(draw(&mut rng, 4, 16));
        let k = draw(&mut rng, 2, 6) as u32;
        let budget = draw(&mut rng, 3, 30) as usize;
        let out = run_adversary(eps, k, || DecimatedSummary::<Item>::new(budget));
        match quantile_failure_witness(&out) {
            Some(w) => assert!(
                w.demonstrates_failure(),
                "witness exists but demonstrates nothing: {w:?}"
            ),
            None => assert!(out.gap_within_correctness_ceiling()),
        }
    }
}

/// Gap monotonicity under storage: storing *more* (a bigger budget)
/// never increases the final gap.
#[test]
fn bigger_budget_never_bigger_gap() {
    let mut rng = SplitMix64::new(0xad3);
    for _ in 0..24 {
        let eps = Eps::from_inverse(draw(&mut rng, 4, 12));
        let k = draw(&mut rng, 2, 5) as u32;
        let b = draw(&mut rng, 4, 20) as usize;
        let small = run_adversary(eps, k, || DecimatedSummary::<Item>::new(b)).final_gap();
        let large = run_adversary(eps, k, || DecimatedSummary::<Item>::new(4 * b)).final_gap();
        assert!(
            large <= small,
            "budget {b}->{}: gap {small} -> {large}",
            4 * b
        );
    }
}

/// Universe continuity under arbitrary nesting: a chain of random
/// interval refinements always admits fresh in-between items.
#[test]
fn universe_supports_random_refinement_chains() {
    let mut rng = SplitMix64::new(0xad4);
    for _ in 0..24 {
        let mut iv = Interval::whole();
        for _ in 0..draw(&mut rng, 1, 40) {
            let pts = generate_increasing(&iv, 3);
            let (lo, hi) = match rng.below(4) {
                0 => (pts[0].clone(), pts[1].clone()),
                1 => (pts[1].clone(), pts[2].clone()),
                2 => (pts[0].clone(), pts[2].clone()),
                _ => (pts[0].clone(), between_items(&pts[0], &pts[1])),
            };
            assert!(lo < hi);
            iv = Interval::open(lo, hi);
        }
        // Still continuous at the end of the chain.
        let last = generate_increasing(&iv, 2);
        assert!(iv.contains(&last[0]) && iv.contains(&last[1]));
    }
}

/// ExactSummary under the adversary: gap exactly 1 and every audit node
/// sees all N_k items of its subtree stored inside its intervals.
#[test]
fn exact_summary_audits_are_tight() {
    let mut rng = SplitMix64::new(0xad5);
    for _ in 0..24 {
        let eps = Eps::from_inverse(draw(&mut rng, 2, 10));
        let k = draw(&mut rng, 1, 5) as u32;
        let out = run_adversary(eps, k, ExactSummary::<Item>::new);
        assert_eq!(out.final_gap(), 1);
        for a in &out.audits {
            assert_eq!(a.stored_inside as u64, a.n_k, "level {}", a.level);
        }
    }
}

/// `rank_in` and `count_inside` agree with a brute-force recount on
/// random decimation patterns.
#[test]
fn restricted_ranks_match_bruteforce() {
    let items = generate_increasing(&Interval::whole(), 40);
    let mut st = StreamState::new(ExactSummary::<Item>::new());
    for it in &items {
        st.push(it.clone());
    }
    let mut rng = SplitMix64::new(0xad6);
    for _ in 0..24 {
        // Interval spanned by two random positions at least two apart.
        let lo_idx = rng.index(38);
        let hi_idx = lo_idx + 2 + rng.index(38 - lo_idx);
        let iv = Interval::open(items[lo_idx].clone(), items[hi_idx].clone());
        for (pos, it) in items.iter().enumerate().take(hi_idx + 1).skip(lo_idx) {
            let r = st.rank_in(&iv, &Endpoint::Finite(it.clone()));
            // Brute force: position within the [lo..=pos] window.
            assert_eq!(r as usize, pos - lo_idx + 1);
        }
        assert_eq!(st.count_inside(&iv) as usize, hi_idx - lo_idx - 1);
    }
}

/// k = 1 degenerate tree: a single leaf, no refinement.
#[test]
fn single_leaf_tree() {
    let eps = Eps::from_inverse(4);
    let out = run_adversary(eps, 1, ExactSummary::<Item>::new);
    assert_eq!(out.audits.len(), 1);
    assert_eq!(out.pi.len(), 8);
}

/// Budget exactly at the extremes-only floor.
#[test]
fn minimal_budget_summary_survives() {
    let eps = Eps::from_inverse(4);
    let out = run_adversary(eps, 4, || DecimatedSummary::<Item>::new(2));
    assert!(out.equivalence_error.is_none());
    assert!(out.final_gap() > 1);
}

/// A summary that stores nothing inside refined intervals still has
/// well-defined (boundary-only) restricted arrays everywhere.
#[test]
fn boundary_only_restricted_arrays() {
    let eps = Eps::from_inverse(4);
    let out = run_adversary(eps, 5, || DecimatedSummary::<Item>::new(2));
    for a in &out.audits {
        assert!(a.s_k >= 2, "restricted array lost its boundaries");
    }
}

/// A valid label: non-empty, no trailing zero byte.
fn random_label(rng: &mut SplitMix64) -> Vec<u8> {
    let mut v: Vec<u8> = (0..rng.below(6)).map(|_| rng.next_u64() as u8).collect();
    v.push(1 + rng.below(255) as u8);
    v
}

/// Two distinct valid labels, in order.
fn random_pair(rng: &mut SplitMix64) -> (Vec<u8>, Vec<u8>) {
    loop {
        let (a, b) = (random_label(rng), random_label(rng));
        if a != b {
            return if a < b { (a, b) } else { (b, a) };
        }
    }
}

#[test]
fn between_any_two_valid_labels() {
    let mut rng = SplitMix64::new(0x1a1);
    for _ in 0..256 {
        let (lo, hi) = random_pair(&mut rng);
        let m = between_labels(Some(lo.as_slice()), Some(hi.as_slice()));
        assert!(m > lo, "{m:?} !> {lo:?}");
        assert!(m < hi, "{m:?} !< {hi:?}");
        assert_ne!(m.last(), Some(&0));
    }
}

#[test]
fn between_one_sided() {
    let mut rng = SplitMix64::new(0x1a2);
    for _ in 0..256 {
        let a = random_label(&mut rng);
        assert!(between_labels(Some(a.as_slice()), None) > a);
        assert!(between_labels(None, Some(a.as_slice())) < a);
    }
}

#[test]
fn repeated_bisection_from_random_pair() {
    let mut rng = SplitMix64::new(0x1a3);
    for _ in 0..64 {
        let (mut lo, hi) = random_pair(&mut rng);
        // 64 nested bisections toward hi must all succeed.
        for _ in 0..64 {
            let m = between_labels(Some(lo.as_slice()), Some(hi.as_slice()));
            assert!(lo < m && m < hi);
            lo = m;
        }
    }
}
