//! Materialized-vs-implicit differential suite.
//!
//! The interval-compressed stream representation is only admissible if
//! it is *observationally identical* to the materialized treap: the
//! summary under attack sees the same items in the same order, every
//! rank/successor/predecessor query resolves to the same answer, and so
//! the whole adversary run — final gap, per-node audits, verdict —
//! must come out byte-for-byte the same. These tests pin that at
//! moderate N for every sweep target; the `#[ignore]`d members push the
//! grid to N = 10⁶ (`./ci.sh` runs it in release) and the single
//! N ≈ 1.34×10⁸ smoke cell (minutes of wall-clock — run explicitly with
//! `cargo test --release -- --ignored`). Every grid cell's report is
//! also pinned ([`PINNED`]), so the grid keeps an oracle of its own
//! beside the comparison of the two representations.

use std::collections::BTreeSet;

use cqs_bench::sweeps::{thm22_grid, thm22_large_n_smoke_grid, thm22_sweep};
use cqs_bench::{try_attack_repr, Target};
use cqs_core::{try_run_adversary_repr, Item, StreamRepr, StreamState};
use cqs_gk::GkSummary;

/// The grid's reports, one row per cell: `(1/ε, k, target, final gap,
/// max stored, label depth)`.
const PINNED: &[(u64, u32, &str, u64, usize, usize)] = &[
    (16, 4, "gk", 28, 43, 4),
    (16, 4, "gk-greedy", 28, 43, 4),
    (16, 4, "kll-fixed", 9, 105, 6),
    (16, 5, "gk", 58, 52, 5),
    (16, 5, "gk-greedy", 59, 49, 6),
    (16, 5, "kll-fixed", 32, 116, 12),
    (16, 6, "gk", 114, 60, 10),
    (16, 6, "gk-greedy", 121, 58, 8),
    (16, 6, "kll-fixed", 86, 143, 22),
    (16, 6, "gk-capped(12)", 761, 12, 19),
    (16, 7, "gk", 241, 68, 20),
    (16, 7, "gk-greedy", 248, 67, 13),
    (16, 7, "kll-fixed", 248, 143, 40),
    (32, 4, "gk", 28, 92, 5),
    (32, 4, "gk-greedy", 28, 92, 4),
    (32, 4, "kll-fixed", 9, 205, 7),
    (32, 5, "gk", 60, 106, 7),
    (32, 5, "gk-greedy", 58, 105, 6),
    (32, 5, "kll-fixed", 35, 217, 14),
    (32, 6, "gk", 123, 122, 7),
    (32, 6, "gk-greedy", 119, 121, 9),
    (32, 6, "kll-fixed", 109, 243, 27),
    (32, 7, "gk", 243, 137, 10),
    (32, 7, "gk-greedy", 249, 137, 13),
    (32, 7, "kll-fixed", 293, 271, 52),
    (32, 8, "gk", 501, 154, 22),
    (32, 8, "gk-greedy", 499, 153, 19),
    (32, 9, "gk", 998, 171, 23),
    (32, 9, "gk-greedy", 1001, 170, 26),
    (32, 10, "gk", 2018, 186, 29),
    (32, 10, "gk-greedy", 2005, 185, 36),
    (32, 11, "gk", 4039, 204, 40),
    (32, 11, "gk-greedy", 4005, 200, 67),
    (32, 12, "gk", 8097, 221, 56),
    (32, 12, "gk-greedy", 8005, 217, 129),
    (128, 4, "gk", 28, 380, 7),
    (128, 4, "gk-greedy", 29, 379, 5),
    (128, 5, "gk", 60, 442, 9),
    (128, 5, "gk-greedy", 60, 440, 7),
    (128, 6, "gk", 125, 505, 9),
    (128, 6, "gk-greedy", 123, 502, 9),
    (128, 7, "gk", 251, 571, 9),
    (128, 7, "gk-greedy", 249, 566, 11),
    (128, 8, "gk", 503, 636, 13),
    (128, 8, "gk-greedy", 501, 631, 15),
    (128, 9, "gk", 1016, 704, 19),
    (128, 9, "gk-greedy", 1014, 696, 22),
    (128, 10, "gk", 2033, 766, 24),
    (128, 10, "gk-greedy", 2030, 760, 28),
    (128, 11, "gk", 4067, 833, 34),
    (128, 11, "gk-greedy", 4062, 826, 40),
    (128, 12, "gk", 8135, 902, 54),
    (128, 12, "gk-greedy", 8126, 889, 64),
    (1024, 4, "gk", 28, 3068, 9),
    (1024, 4, "gk-greedy", 30, 3056, 6),
    (1024, 5, "gk", 60, 3578, 12),
    (1024, 5, "gk-greedy", 61, 3572, 7),
    (1024, 6, "gk", 123, 4090, 12),
    (1024, 6, "gk-greedy", 124, 4083, 10),
    (1024, 7, "gk", 250, 4600, 12),
    (1024, 7, "gk-greedy", 251, 4595, 13),
    (1024, 8, "gk", 505, 5111, 14),
    (1024, 8, "gk-greedy", 506, 5105, 16),
    (1024, 9, "gk", 1016, 5619, 17),
    (1024, 9, "gk-greedy", 1017, 5615, 18),
    (1024, 10, "gk", 2038, 6134, 20),
    (1024, 10, "gk-greedy", 2039, 6127, 21),
];

/// Runs one (ε, k, target) cell under both representations and asserts
/// the reports match exactly and match the cell's [`PINNED`] row.
fn assert_cell_identical(inv: u64, k: u32, target: Target) {
    let eps = cqs_core::Eps::from_inverse(inv);
    let classic = try_attack_repr(eps, k, target, StreamRepr::Materialized);
    let implicit = try_attack_repr(eps, k, target, StreamRepr::Implicit);
    let name = target.name();
    let pin = PINNED
        .iter()
        .find(|row| (row.0, row.1, row.2) == (inv, k, name.as_str()))
        .map(|row| (row.3, row.4, row.5));
    match (classic, implicit) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a, b, "reports diverged at 1/eps={inv} k={k} {name}");
            let got = (a.final_gap, a.max_stored, a.max_label_depth);
            assert_eq!(
                Some(got),
                pin,
                "pinned report moved at 1/eps={inv} k={k} {name}"
            );
        }
        (Err(a), Err(b)) => {
            assert_eq!(a, b, "errors diverged at 1/eps={inv} k={k} {name}");
            assert_eq!(
                pin, None,
                "pinned cell failed at 1/eps={inv} k={k} {name}: {a}"
            );
        }
        (a, b) => panic!("outcome shape diverged at 1/eps={inv} k={k} {name}: {a:?} vs {b:?}"),
    }
}

#[test]
fn implicit_matches_materialized_on_the_moderate_grid() {
    for &inv in &[16u64, 32] {
        for k in 4..=7 {
            for target in [Target::Gk, Target::GkGreedy, Target::KllFixed] {
                assert_cell_identical(inv, k, target);
            }
        }
    }
}

#[test]
fn implicit_matches_materialized_on_a_capped_summary() {
    // Capped GK goes incorrect mid-run (the failure-witness target);
    // the representations must agree on *that* trajectory too.
    assert_cell_identical(16, 6, Target::Capped(12));
}

/// The full differential grid, up to N = 1024·2¹⁰ ≈ 10⁶: both
/// representations' id-keyed lookups at scale; then the implicit
/// index's pin accounting at the largest cell. Seconds in a release
/// build, minutes in a debug one, so `./ci.sh` runs it in release.
#[test]
#[ignore = "slow in debug builds; ./ci.sh runs it in release"]
fn implicit_matches_materialized_up_to_a_million_items() {
    for (inv, ks) in [(32u64, 4..=12u32), (128, 4..=12), (1024, 4..=10)] {
        for k in ks {
            for target in [Target::Gk, Target::GkGreedy] {
                assert_cell_identical(inv, k, target);
            }
        }
    }
    assert_index_pins_only_own_labels(1024, 10);
    assert_stored_runs_hold_only_their_labels(1024, 10);
}

#[test]
fn stored_runs_hold_only_their_labels() {
    assert_stored_runs_hold_only_their_labels(32, 6);
}

/// Runs one materialized GK cell and asserts, per stream, that its
/// stored runs hold exactly the label bytes plus 4 B per item and per
/// run. Then restores the stream from snapshot-shaped pairs — each item
/// decoded into a chunk of its own — and asserts that the restored
/// runs again hold exactly the label bytes, and that every item the
/// restored index keeps or hands out views a run's chunk, so no decoded
/// item's chunk stays alive.
fn assert_stored_runs_hold_only_their_labels(inv: u64, k: u32) {
    let eps = cqs_core::Eps::from_inverse(inv);
    let make = || GkSummary::<Item>::new(eps.value());
    let outcome = try_run_adversary_repr(eps, k, StreamRepr::Materialized, make)
        .unwrap_or_else(|e| panic!("1/eps={inv} k={k}: {e}"));
    for stream in [outcome.pi, outcome.rho] {
        let mut pairs = Vec::new();
        stream.for_each_arrival(&mut |it, tag| {
            pairs.push((Item::from_label(it.label().to_vec()), tag));
        });
        let label_bytes: usize = pairs.iter().map(|(it, _)| it.depth()).sum();
        let (bytes, items, runs) = stored_runs(&stream, &mut |_| {});
        assert_eq!(items, stream.len());
        assert_eq!(
            bytes + 4 * (items + runs) as usize,
            label_bytes + 4 * (stream.len() + runs) as usize
        );
        let probes: Vec<Item> = pairs.iter().map(|(it, _)| it.clone()).collect();
        let restored = StreamState::from_snapshot_parts(stream.summary, pairs)
            .unwrap_or_else(|e| panic!("restore at 1/eps={inv} k={k}: {e}"));
        let mut chunks = BTreeSet::new();
        let (bytes, items, _) = stored_runs(&restored, &mut |b| {
            chunks.insert(b);
        });
        assert_eq!((bytes, items), (label_bytes, restored.len()));
        let mut kept: Vec<Item> = Vec::new();
        restored.for_each_index_bound(&mut |it| kept.push(it.clone()));
        kept.extend(restored.min().into_iter().chain(restored.max()));
        for q in &probes {
            kept.extend(restored.next(q).into_iter().chain(restored.prev(q)));
        }
        for it in &kept {
            assert!(
                chunks.contains(&it.pinned_bytes()),
                "{it:?} pins no run chunk"
            );
        }
    }
}

/// Sums `stream`'s stored runs as `(chunk bytes, items, runs)`, passing
/// each run's chunk bytes to `each`.
fn stored_runs<S: cqs_core::ComparisonSummary<Item>>(
    stream: &StreamState<S>,
    each: &mut dyn FnMut(usize),
) -> (usize, u64, u64) {
    let (mut bytes, mut items, mut runs) = (0, 0, 0);
    stream.for_each_stored_run(&mut |b, count| {
        each(b);
        (bytes, items, runs) = (bytes + b, items + count, runs + 1);
    });
    (bytes, items, runs)
}

/// Runs one implicit GK cell and asserts that every item both streams'
/// indexes keep — fragment bounds and generator endpoints — pins its
/// own label and none of its seal group.
fn assert_index_pins_only_own_labels(inv: u64, k: u32) {
    let eps = cqs_core::Eps::from_inverse(inv);
    let make = || GkSummary::<Item>::new(eps.value());
    let outcome = try_run_adversary_repr(eps, k, StreamRepr::Implicit, make)
        .unwrap_or_else(|e| panic!("1/eps={inv} k={k}: {e}"));
    for stream in [&outcome.pi, &outcome.rho] {
        let mut kept = 0usize;
        stream.for_each_index_bound(&mut |it| {
            assert_eq!(it.pinned_bytes(), it.label().len(), "{it:?} pins its group");
            kept += 1;
        });
        assert!(kept >= 1 << k, "only {kept} bounds kept for 2^{k} runs");
    }
}

/// Jobs-1-vs-4 determinism at the N ≈ 1.34×10⁸ smoke cell: the sweep
/// table (and hence the CSV the CI leg byte-diffs) must not depend on
/// worker-pool scheduling even at large-N scale.
#[test]
#[ignore = "~10⁸ items twice; run explicitly with --ignored"]
fn large_n_smoke_cell_is_jobs_deterministic() {
    let cells = thm22_large_n_smoke_grid();
    let serial = thm22_sweep(&cells, 1, false);
    assert!(serial.skipped.is_empty(), "{:?}", serial.skipped);
    let pooled = thm22_sweep(&cells, 4, false);
    assert_eq!(serial.table.to_csv(), pooled.table.to_csv());
}

#[test]
fn moderate_sweep_is_jobs_deterministic_for_implicit_cells() {
    // The cheap analogue of the ignored large-N check, so CI always
    // exercises implicit cells through the worker pool.
    let cells = cqs_bench::sweeps::thm22_grid_repr(
        &[16],
        4..=6,
        &[Target::Gk, Target::GkGreedy],
        StreamRepr::Implicit,
    );
    let serial = thm22_sweep(&cells, 1, false);
    assert!(serial.skipped.is_empty(), "{:?}", serial.skipped);
    let pooled = thm22_sweep(&cells, 4, false);
    assert_eq!(serial.table.to_csv(), pooled.table.to_csv());
    // And the implicit table matches the materialized table outright:
    // the representation must be invisible in every reported column.
    let classic = thm22_sweep(
        &thm22_grid(&[16], 4..=6, &[Target::Gk, Target::GkGreedy]),
        1,
        false,
    );
    assert_eq!(serial.table.to_csv(), classic.table.to_csv());
}
