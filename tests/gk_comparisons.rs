//! Comparison counts of the GK summaries, pinned.
//!
//! Comparisons are the only item operation Definition 2.1 allows a
//! summary, so how many a summary makes per insert and per read is part
//! of its cost model. Items here are `u64`s wrapped in a type that
//! counts every `cmp`/`eq` in a per-thread counter; the streams are
//! fixed-seed, so each count is exact and any change to the insert or
//! read paths that moves one shows up here.

use std::cell::Cell;
use std::cmp::Ordering;

use cqs_core::{ComparisonSummary, RankEstimator};
use cqs_gk::{GkSummary, GreedyGk};
use cqs_streams::{workload, Workload};

thread_local! {
    static CMPS: Cell<u64> = const { Cell::new(0) };
}

/// A `u64` that counts each comparison and equality test made on it.
#[derive(Clone, Copy, Debug)]
struct Counted(u64);

fn bump() {
    CMPS.with(|c| c.set(c.get() + 1));
}

impl PartialEq for Counted {
    fn eq(&self, other: &Self) -> bool {
        bump();
        self.0 == other.0
    }
}

impl Eq for Counted {}

impl PartialOrd for Counted {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Counted {
    fn cmp(&self, other: &Self) -> Ordering {
        bump();
        self.0.cmp(&other.0)
    }
}

/// Comparisons made by `f`.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = CMPS.with(Cell::get);
    let r = f();
    (r, CMPS.with(Cell::get) - before)
}

fn stream(n: u64) -> Vec<Counted> {
    workload(Workload::Shuffled, n, 0xC0FFEE)
        .expect("n > 0")
        .into_iter()
        .map(Counted)
        .collect()
}

/// Comparisons of per-item inserts, of sorted-run inserts (runs of 64),
/// of a read sweep taken with per-item inserts pending in the fresh
/// buffer, and of the same sweep with none pending.
///
/// Debug builds also check each run's order in `insert_sorted_run`, one
/// comparison per adjacent pair: 9 850 over these runs. The pins below
/// are the release counts; `sorted_runs` leaves that check out.
#[derive(Debug, PartialEq, Eq)]
struct Counts {
    per_item: u64,
    sorted_runs: u64,
    reads_pending: u64,
    reads_spliced: u64,
}

fn read_sweep<S: ComparisonSummary<Counted> + RankEstimator<Counted>>(s: &S) -> u64 {
    let n = s.items_processed();
    let ((), cmps) = counted(|| {
        for r in (1..=n).step_by(n as usize / 16) {
            s.query_rank(r);
        }
        s.item_array();
        s.for_each_item(&mut |_| {});
        s.for_each_item_between(
            Some(&Counted(n / 3)),
            Some(&Counted(2 * n / 3)),
            &mut |_| {},
        );
    });
    cmps
}

fn counts<S>(make: impl Fn() -> S) -> Counts
where
    S: ComparisonSummary<Counted> + RankEstimator<Counted>,
{
    // 10 007 items: at ε = 0.01 (period 50) 7 inserts stay pending.
    let xs = stream(10_007);
    let mut s = make();
    let ((), per_item) = counted(|| xs.iter().for_each(|&x| s.insert(x)));
    let reads_pending = read_sweep(&s);
    let mut b = make();
    let ((), sorted_runs) = counted(|| {
        for chunk in xs.chunks(64) {
            let mut run = chunk.to_vec();
            run.sort_unstable_by_key(|c| c.0);
            b.insert_sorted_run(&run);
        }
    });
    let order_checks = if cfg!(debug_assertions) { 9_850 } else { 0 };
    Counts {
        per_item,
        sorted_runs: sorted_runs - order_checks,
        reads_pending,
        reads_spliced: read_sweep(&b),
    }
}

#[test]
fn banded_gk_comparison_counts_are_pinned() {
    let c = counts(|| GkSummary::new(0.01));
    assert_eq!(
        c,
        Counts {
            per_item: 90_270,
            sorted_runs: 41_184,
            reads_pending: 1_081,
            reads_spliced: 16,
        }
    );
}

#[test]
fn greedy_gk_comparison_counts_are_pinned() {
    let c = counts(|| GreedyGk::new(0.01));
    assert_eq!(
        c,
        Counts {
            per_item: 87_528,
            sorted_runs: 38_263,
            reads_pending: 993,
            reads_spliced: 15,
        }
    );
}

/// Reads compare only while inserts are pending: with none, rank
/// queries and item visits make no comparison at all.
#[test]
fn reads_compare_only_while_a_run_is_pending() {
    let mut s = GkSummary::new(0.01);
    for &x in &stream(10_000) {
        s.insert(x);
    }
    // 10 000 is a compress boundary: nothing is pending.
    let ((), cmps) = counted(|| {
        for r in (1..=10_000).step_by(97) {
            s.query_rank(r);
        }
        s.item_array();
        s.for_each_item(&mut |_| {});
    });
    assert_eq!(cmps, 0);
    s.insert(Counted(5_000));
    let (_, cmps) = counted(|| s.query_rank(5_000));
    assert!(cmps > 0, "pending inserts are sorted by comparisons");
}

/// Comparisons of one median read after each of the first `n` inserts.
fn interleaved_reads<S: ComparisonSummary<Counted>>(mut s: S, n: usize) -> u64 {
    let mut total = 0;
    for &x in stream(10_007).iter().take(n) {
        s.insert(x);
        let (_, cmps) = counted(|| s.quantile(0.5));
        total += cmps;
    }
    total
}

/// A read after every insert of the first two compress periods (ε =
/// 0.01, period 50): each read sorts and settles the pending inserts,
/// the price of inserts that compare nothing on arrival. The walk stops
/// once no later tuple can answer better, so pending inserts above the
/// median cost no galloping search.
#[test]
fn reads_after_every_insert_of_two_periods_are_pinned() {
    assert_eq!(interleaved_reads(GkSummary::new(0.01), 100), 13_914);
    assert_eq!(interleaved_reads(GreedyGk::new(0.01), 100), 13_914);
}

/// One `quantiles` call over the export grid, with 7 inserts pending,
/// sorts and settles them once: it costs at most one full walk (a read
/// of rank n), where twelve per-φ reads sort them twelve times.
#[test]
fn a_grid_read_sorts_the_pending_inserts_once() {
    fn grid_and_per_phi<S: ComparisonSummary<Counted>>(mut s: S) -> (u64, u64) {
        stream(10_007).iter().for_each(|&x| s.insert(x));
        let grid = &cqs_service::DEFAULT_PHI_GRID;
        let mut out = Vec::new();
        let ((), batched) = counted(|| s.quantiles(grid, &mut out));
        let (per_phi, one_by_one) =
            counted(|| grid.iter().map(|&phi| s.quantile(phi)).collect::<Vec<_>>());
        let (_, full_walk) = counted(|| s.query_rank(s.items_processed()));
        assert_eq!(out, per_phi);
        assert!(batched <= full_walk, "{batched} > {full_walk}");
        (batched, one_by_one)
    }
    assert_eq!(grid_and_per_phi(GkSummary::new(0.01)), (67, 686));
    assert_eq!(grid_and_per_phi(GreedyGk::new(0.01)), (61, 628));
}

/// The benchmark's `summary-ingest` stream (2²² shuffled items, seed 1,
/// ε = 0.001), first 2¹⁸ items: per-item inserts stay within 14
/// comparisons per item.
#[test]
fn summary_ingest_stream_costs_at_most_14_comparisons_per_item() {
    let xs = workload(Workload::Shuffled, 1 << 22, 1).expect("n > 0");
    let mut s = GkSummary::new(0.001);
    let prefix = &xs[..1 << 18];
    let ((), cmps) = counted(|| prefix.iter().for_each(|&x| s.insert(Counted(x))));
    let per_item = cmps as f64 / prefix.len() as f64;
    assert!(per_item <= 14.0, "{per_item} comparisons per item");
    assert_eq!(cmps, 3_275_667);
}

/// Item and tuple sizes, pinned: every comparison reads an `Item`, and
/// `GkTuple<Item>`'s size sets how many tuples share a cache line.
#[test]
fn item_and_tuple_sizes_are_pinned() {
    use std::mem::size_of;
    assert_eq!(size_of::<cqs_universe::Item>(), 40);
    assert_eq!(size_of::<cqs_gk::GkTuple<cqs_universe::Item>>(), 56);
}
