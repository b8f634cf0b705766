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
//! `cargo test --release -- --ignored`).

use cqs_bench::sweeps::{thm22_grid, thm22_large_n_smoke_grid, thm22_sweep};
use cqs_bench::{try_attack_repr, Target};
use cqs_core::{try_run_adversary_repr, Item, StreamRepr};
use cqs_gk::GkSummary;

/// Runs one (ε, k, target) cell under both representations and asserts
/// the reports match exactly.
fn assert_cell_identical(inv: u64, k: u32, target: Target) {
    let eps = cqs_core::Eps::from_inverse(inv);
    let classic = try_attack_repr(eps, k, target, StreamRepr::Materialized);
    let implicit = try_attack_repr(eps, k, target, StreamRepr::Implicit);
    match (classic, implicit) {
        (Ok(a), Ok(b)) => assert_eq!(
            a,
            b,
            "reports diverged at 1/eps={inv} k={k} {}",
            target.name()
        ),
        (Err(a), Err(b)) => assert_eq!(
            a,
            b,
            "errors diverged at 1/eps={inv} k={k} {}",
            target.name()
        ),
        (a, b) => panic!(
            "outcome shape diverged at 1/eps={inv} k={k} {}: {a:?} vs {b:?}",
            target.name()
        ),
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
