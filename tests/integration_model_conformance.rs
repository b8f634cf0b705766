//! Model conformance (Definition 2.1) across all summaries: a
//! comparison-based deterministic summary fed two order-isomorphic
//! streams must make identical decisions — stored positions, counts and
//! query indices must correspond under the isomorphism.

use cqs::prelude::*;

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

/// Feeds `xs` and the order-isomorphic image `f(x) = 5x + 3` to two
/// fresh copies and checks stored correspondence plus query agreement.
fn check_isomorphism<S: ComparisonSummary<u64>, F: Fn() -> S>(make: F, name: &str) {
    let xs = shuffled(20_000, 0xA5);
    let mut a = make();
    let mut b = make();
    for &x in &xs {
        a.insert(x);
        b.insert(5 * x + 3);
        assert_eq!(
            a.stored_count(),
            b.stored_count(),
            "{name}: |I| diverged mid-stream"
        );
    }
    let ia = a.item_array();
    let ib = b.item_array();
    assert_eq!(ia.len(), ib.len(), "{name}: final |I| differs");
    for (x, y) in ia.iter().zip(ib.iter()) {
        assert_eq!(5 * x + 3, *y, "{name}: stored items not isomorphic");
    }
    for r in [1u64, 57, 5_000, 10_000, 19_999, 20_000] {
        let qa = a.query_rank(r).unwrap();
        let qb = b.query_rank(r).unwrap();
        assert_eq!(5 * qa + 3, qb, "{name}: query_rank({r}) not isomorphic");
    }
}

#[test]
fn gk_banded_is_comparison_based() {
    check_isomorphism(|| GkSummary::new(0.01), "gk");
}

#[test]
fn gk_greedy_is_comparison_based() {
    check_isomorphism(|| GreedyGk::new(0.01), "gk-greedy");
}

#[test]
fn gk_capped_is_comparison_based() {
    check_isomorphism(|| CappedGk::new(0.01, 16), "gk-capped");
}

#[test]
fn mrl_is_comparison_based() {
    check_isomorphism(|| MrlSummary::new(0.01, 20_000), "mrl");
}

#[test]
fn kll_fixed_seed_is_comparison_based() {
    check_isomorphism(|| KllSketch::with_seed(128, 42), "kll");
}

#[test]
fn ckms_is_comparison_based() {
    check_isomorphism(|| CkmsSummary::new(0.01), "ckms");
}

#[test]
fn reservoir_fixed_seed_is_comparison_based() {
    check_isomorphism(
        || ReservoirSummary::with_capacity(500, 0.05, 7),
        "reservoir",
    );
}

#[test]
fn item_arrays_are_sorted_for_all_summaries() {
    let xs = shuffled(5_000, 0x77);
    macro_rules! check_sorted {
        ($make:expr, $name:expr) => {{
            let mut s = $make;
            for &x in &xs {
                s.insert(x);
            }
            let arr = s.item_array();
            assert!(
                arr.windows(2).all(|w| w[0] <= w[1]),
                "{}: item array unsorted",
                $name
            );
            assert!(
                arr.iter().all(|v| xs.contains(v)),
                "{}: item array contains non-stream items",
                $name
            );
        }};
    }
    check_sorted!(GkSummary::new(0.02), "gk");
    check_sorted!(GreedyGk::new(0.02), "gk-greedy");
    check_sorted!(MrlSummary::new(0.02, 5_000), "mrl");
    check_sorted!(KllSketch::with_seed(64, 1), "kll");
    check_sorted!(CkmsSummary::new(0.02), "ckms");
    check_sorted!(ReservoirSummary::with_capacity(100, 0.05, 2), "reservoir");
}

#[test]
fn queries_return_stored_items_only() {
    // Definition 2.1(iv): answers must come from the item array.
    let xs = shuffled(10_000, 0x99);
    macro_rules! check_answers {
        ($make:expr, $name:expr) => {{
            let mut s = $make;
            for &x in &xs {
                s.insert(x);
            }
            let arr = s.item_array();
            for r in (1..=10_000u64).step_by(919) {
                let ans = s.query_rank(r).unwrap();
                assert!(arr.contains(&ans), "{}: answer {} not stored", $name, ans);
            }
        }};
    }
    check_answers!(GkSummary::new(0.02), "gk");
    check_answers!(GreedyGk::new(0.02), "gk-greedy");
    check_answers!(MrlSummary::new(0.02, 10_000), "mrl");
    check_answers!(KllSketch::with_seed(64, 3), "kll");
    check_answers!(CkmsSummary::new(0.02), "ckms");
    check_answers!(ReservoirSummary::with_capacity(200, 0.05, 4), "reservoir");
}

/// `with_items_between` must lend, in one call, exactly the items
/// `for_each_item_between` visits, in the same order, for every pair
/// of bounds: unbounded, inside the stream, on its extremes and
/// outside it (crossed pairs included).
fn check_lend<S: ComparisonSummary<u64>>(s: &S, n: u64, name: &str) {
    let bounds = [
        None,
        Some(0),
        Some(1),
        Some(n / 3),
        Some(n / 2),
        Some(n),
        Some(n + 7),
    ];
    for lo in bounds {
        for hi in bounds {
            let mut visited = Vec::new();
            s.for_each_item_between(lo.as_ref(), hi.as_ref(), &mut |x| visited.push(*x));
            let (mut lent, mut loans) = (Vec::new(), 0);
            s.with_items_between(lo.as_ref(), hi.as_ref(), &mut |xs| {
                loans += 1;
                lent.extend(xs.iter().map(|x| **x));
            });
            assert_eq!(loans, 1, "{name}: lend called {loans} times");
            assert_eq!(
                lent, visited,
                "{name}: lent items differ in ({lo:?}, {hi:?})"
            );
        }
    }
}

#[test]
fn lent_items_match_visited_items_for_all_summaries() {
    let xs = shuffled(5_100, 0x1e4d);
    // Checked after every prefix length here. At 5 100 items GK's
    // per-item inserts since the last flush (at 5 000, a compress
    // boundary of ε = 0.001) are still pending in its fresh buffer.
    let checkpoints = [1usize, 37, 5_000, 5_100];
    macro_rules! check_lending {
        ($make:expr, $name:expr) => {{
            let mut s = $make;
            let mut fed = 0;
            for &cp in &checkpoints {
                for &x in &xs[fed..cp] {
                    s.insert(x);
                }
                fed = cp;
                check_lend(&s, xs.len() as u64, $name);
            }
            s
        }};
    }
    let gk = check_lending!(GkSummary::new(0.001), "gk");
    assert!(
        matches!(gk.tuples(), std::borrow::Cow::Owned(_)),
        "gk: no insert pending at the last checkpoint"
    );
    let greedy = check_lending!(GreedyGk::new(0.001), "gk-greedy");
    assert!(
        matches!(greedy.tuples(), std::borrow::Cow::Owned(_)),
        "gk-greedy: no insert pending at the last checkpoint"
    );
    check_lending!(GkSummary::new(0.02), "gk-eps-0.02");
    check_lending!(CappedGk::new(0.001, 400), "gk-capped");
    check_lending!(KllSketch::with_seed(64, 1), "kll");
    check_lending!(SampledKll::with_seed(64, 2), "kll-sampled");
    check_lending!(MrlSummary::new(0.02, 5_100), "mrl");
    check_lending!(CkmsSummary::new(0.02), "ckms");
    check_lending!(ReservoirSummary::with_capacity(100, 0.05, 2), "reservoir");
    check_lending!(cqs::core::reference::ExactSummary::new(), "exact");
    check_lending!(MaxSpaceTracker::new(GkSummary::new(0.001)), "tracked-gk");
    check_lending!(FaultySummary::pristine(GkSummary::new(0.001)), "faulty-gk");
    let plan = FaultPlan::none().inject(2_000, FaultKind::RankSlack(50));
    check_lending!(
        FaultySummary::new(KllSketch::with_seed(64, 4), plan),
        "faulty-kll"
    );
}

/// `FaultySummary` keeps the per-φ default of `quantiles`, so its rank
/// faults shift every φ of a grid exactly as they shift a lone read,
/// though the GK summary inside answers a grid in one walk.
#[test]
fn faulty_grid_reads_apply_rank_faults_per_phi() {
    let grid = [0.0, 0.1, 0.5, 0.9, 0.99, 1.0];
    for kind in [FaultKind::RankSlack(300), FaultKind::NonMonotoneRank] {
        let plan = FaultPlan::none().inject(1, kind);
        let mut s = FaultySummary::new(GkSummary::new(0.01), plan);
        // 5 003 items at period 50: three inserts stay pending.
        for x in shuffled(5_003, 7) {
            s.insert(x);
        }
        let mut batched = Vec::new();
        s.quantiles(&grid, &mut batched);
        let per_phi: Vec<Option<u64>> = grid.iter().map(|&phi| s.quantile(phi)).collect();
        assert_eq!(batched, per_phi, "{kind:?}");
        let mut clean = Vec::new();
        s.inner().quantiles(&grid, &mut clean);
        assert_ne!(batched, clean, "{kind:?}: the fault must move the answers");
    }
}
