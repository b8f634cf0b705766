//! Fixture-driven tests: every rule must fire on its violating fixture
//! and stay silent on the clean/suppressed ones. The fixtures under
//! `fixtures/` are scanned as text (never compiled) and are skipped by
//! the workspace walker, so they can be as broken as they like.

use cqs_xtask::lint::analysis::FileInput;
use cqs_xtask::lint::rules::{all_rules, analysis_rules};
use cqs_xtask::lint::{lint_inputs, lint_source};
use cqs_xtask::Severity;

const BAD_COMPARISON: &str = include_str!("fixtures/bad_comparison.rs");
const BAD_DETERMINISM: &str = include_str!("fixtures/bad_determinism.rs");
const BAD_ROBUSTNESS: &str = include_str!("fixtures/bad_robustness.rs");
const BAD_HOT_ALLOC: &str = include_str!("fixtures/bad_hot_alloc.rs");
const BAD_DRIVER: &str = include_str!("fixtures/bad_driver.rs");
const BAD_SNAPSHOT: &str = include_str!("fixtures/bad_snapshot_atomicity.rs");
const CLEAN: &str = include_str!("fixtures/clean.rs");
const SUPPRESSED: &str = include_str!("fixtures/suppressed.rs");

/// Lints a fixture as if it were `crates/gk/src/lib.rs` (Summary role,
/// the strictest configuration).
fn lint_as_summary(src: &str) -> Vec<cqs_xtask::lint::Diagnostic> {
    lint_source("gk", "src/lib.rs", src)
}

fn rules_fired(diags: &[cqs_xtask::lint::Diagnostic]) -> Vec<&'static str> {
    let mut v: Vec<&'static str> = diags.iter().map(|d| d.rule).collect();
    v.sort_unstable();
    v.dedup();
    v
}

#[test]
fn comparison_fixture_fires_all_three_rules() {
    let fired = rules_fired(&lint_as_summary(BAD_COMPARISON));
    for rule in ["item-arithmetic", "item-bits", "item-mint"] {
        assert!(fired.contains(&rule), "{rule} did not fire: {fired:?}");
    }
}

#[test]
fn determinism_fixture_fires_all_three_rules() {
    let diags = lint_as_summary(BAD_DETERMINISM);
    let fired = rules_fired(&diags);
    for rule in ["hash-default", "ambient-rng", "wall-clock"] {
        assert!(fired.contains(&rule), "{rule} did not fire: {fired:?}");
    }
    // HashMap appears on both the use and the field line.
    assert!(diags.iter().filter(|d| d.rule == "hash-default").count() >= 2);
}

#[test]
fn determinism_fixture_is_fine_as_a_harness() {
    // bench/cli may time and hash; ambient RNG is still out.
    let diags = lint_source("bench", "src/lib.rs", BAD_DETERMINISM);
    let fired = rules_fired(&diags);
    assert!(!fired.contains(&"hash-default"), "{fired:?}");
    assert!(!fired.contains(&"wall-clock"), "{fired:?}");
    assert!(fired.contains(&"ambient-rng"), "{fired:?}");
}

#[test]
fn robustness_fixture_fires_attr_panic_and_float_rules() {
    let diags = lint_as_summary(BAD_ROBUSTNESS);
    let fired = rules_fired(&diags);
    for rule in ["hot-path-panic", "float-eq"] {
        assert!(fired.contains(&rule), "{rule} did not fire: {fired:?}");
    }
    // unwrap() outside a hot-path fn must not fire.
    assert!(
        !diags
            .iter()
            .any(|d| d.rule == "hot-path-panic" && d.line > 17),
        "helper fn was wrongly treated as a hot path: {diags:?}"
    );
    // panic! and unwrap inside insert() both fire.
    assert!(diags.iter().filter(|d| d.rule == "hot-path-panic").count() >= 2);
}

#[test]
fn hot_alloc_fixture_fires_once_per_alloc_pattern() {
    let diags = lint_as_summary(BAD_HOT_ALLOC);
    let hits: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == "hot-path-alloc")
        .collect();
    // Exactly three: container clone in insert, format! in query_rank,
    // to_vec in merge. quantile's element clone and item_array's
    // (non-hot-path) wholesale clone stay quiet.
    assert_eq!(hits.len(), 3, "{diags:?}");
    assert!(hits.iter().all(|d| d.severity == Severity::Warning));
    for f in ["insert", "query_rank", "merge"] {
        assert!(
            hits.iter().any(|d| d.message.contains(&format!("`{f}`"))),
            "no hot-path-alloc hit inside {f}: {hits:?}"
        );
    }
}

#[test]
fn hot_alloc_does_not_apply_to_harness_crates() {
    let diags = lint_source("bench", "src/lib.rs", BAD_HOT_ALLOC);
    assert!(
        !rules_fired(&diags).contains(&"hot-path-alloc"),
        "{diags:?}"
    );
}

#[test]
fn driver_fixture_fires_on_everything_reachable_from_the_roots() {
    let diags = lint_source("core", "src/lib.rs", BAD_DRIVER);
    let hits: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == "driver-no-panic")
        .collect();
    // Exactly five: unwrap in try_run (a root), unreachable! in try_adv
    // and expect in final_rank_probe (both reached from try_run), expect
    // in audit_helper (a helper no name list mentions — only the call
    // graph finds it, via try_adv -> try_leaf), and expect in
    // quantile_failure_witness (a root). The legacy `run` and
    // helper_may_unwrap keep their unwraps: no root reaches them.
    assert_eq!(hits.len(), 5, "{diags:?}");
    assert!(hits.iter().all(|d| d.severity == Severity::Error));
    for f in [
        "try_run",
        "try_adv",
        "audit_helper",
        "final_rank_probe",
        "quantile_failure_witness",
    ] {
        assert!(
            hits.iter().any(|d| d.message.contains(&format!("`{f}`"))),
            "no driver-no-panic hit inside {f}: {hits:?}"
        );
    }
    // The call chain is spelled out in the message.
    assert!(
        hits.iter().any(|d| d
            .message
            .contains("try_run -> try_adv -> try_leaf -> audit_helper")),
        "{hits:?}"
    );
    assert!(
        !hits
            .iter()
            .any(|d| d.message.contains("`run`") || d.message.contains("`helper_may_unwrap`")),
        "unreachable fns were flagged: {hits:?}"
    );
}

#[test]
fn driver_rule_does_not_apply_outside_core() {
    for krate in ["gk", "bench", "faults"] {
        let diags = lint_source(krate, "src/lib.rs", BAD_DRIVER);
        assert!(
            !rules_fired(&diags).contains(&"driver-no-panic"),
            "driver-no-panic fired for role of `{krate}`: {diags:?}"
        );
    }
}

#[test]
fn driver_rule_covers_snapshot_restore_roots() {
    // `read_sections` is a restore entry point: corrupt bytes must come
    // back as typed RestoreError values, so a panic reachable from it —
    // even in a helper only the call graph can see — fails the gate.
    let src = "#![forbid(unsafe_code)]\n#![warn(missing_docs)]\n\
        pub fn read_sections(bytes: &[u8]) -> Vec<u8> {\n    \
        decode_one(bytes)\n}\n\
        fn decode_one(bytes: &[u8]) -> Vec<u8> {\n    \
        bytes.split_first().unwrap();\n    bytes.to_vec()\n}\n";
    let diags = lint_source("snapshot", "src/wire.rs", src);
    let hits: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == "driver-no-panic")
        .collect();
    assert_eq!(hits.len(), 1, "{diags:?}");
    assert!(hits[0].message.contains("`decode_one`"), "{hits:?}");
    // The same source in a harness crate is not a restore path.
    let diags = lint_source("bench", "src/lib.rs", src);
    assert!(
        !rules_fired(&diags).contains(&"driver-no-panic"),
        "{diags:?}"
    );
}

#[test]
fn snapshot_atomicity_fires_on_direct_checkpoint_writes() {
    let diags = lint_source("bench", "src/checkpoint.rs", BAD_SNAPSHOT);
    let hits: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == "snapshot-atomicity")
        .collect();
    // Exactly two: File::create inside save_checkpoint and fs::write on
    // ckpt_path. The plain report writer stays quiet.
    assert_eq!(hits.len(), 2, "{diags:?}");
    assert!(hits.iter().all(|d| d.severity == Severity::Error));
    assert!(
        hits.iter().any(|d| d.message.contains("`File::create`")),
        "{hits:?}"
    );
    assert!(
        hits.iter().any(|d| d.message.contains("`fs::write`")),
        "{hits:?}"
    );
}

#[test]
fn snapshot_atomicity_exempts_only_the_atomic_helper() {
    // The temp+rename helper is the one file allowed to touch disk.
    let diags = lint_source("snapshot", "crates/snapshot/src/atomic.rs", BAD_SNAPSHOT);
    assert!(
        !rules_fired(&diags).contains(&"snapshot-atomicity"),
        "{diags:?}"
    );
    // Everywhere else in the snapshot crate, every byte written is wire
    // format: all three writes fire, token or not.
    let diags = lint_source("snapshot", "crates/snapshot/src/wire.rs", BAD_SNAPSHOT);
    assert_eq!(
        diags
            .iter()
            .filter(|d| d.rule == "snapshot-atomicity")
            .count(),
        3,
        "{diags:?}"
    );
}

/// A minimal spawn site: `run_cells` hands `Cell` values to a worker
/// pool, so `Cell` must carry an `assert_send` audit in its crate.
fn pool_inputs(with_audit: bool) -> Vec<FileInput> {
    let mut src = String::from(
        "#![forbid(unsafe_code)]\n#![warn(missing_docs)]\n\
         pub struct Cell {\n    pub id: u64,\n}\n\
         pub fn run_cells(cells: Vec<Cell>) {\n    std::thread::scope(|s| {\n        \
         for c in &cells {\n            s.spawn(|| run_one(c));\n        }\n    });\n}\n\
         fn run_one(_c: &Cell) {}\n",
    );
    if with_audit {
        src.push_str(
            "fn sharding_send_audit() {\n    fn assert_send<T: Send>() {}\n    \
             assert_send::<Cell>();\n}\n",
        );
    }
    vec![FileInput {
        rel: "crates/bench/src/lib.rs".to_string(),
        crate_name: "bench".to_string(),
        role: cqs_xtask::lint::config::role_of("bench"),
        test_file: false,
        src,
    }]
}

#[test]
fn sharding_send_sync_derives_pool_types_from_the_graph() {
    let report = lint_inputs(pool_inputs(false));
    let hits: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "sharding-send-sync")
        .collect();
    assert_eq!(hits.len(), 1, "{:?}", report.diagnostics);
    assert!(hits[0].message.contains("`Cell`"), "{hits:?}");
    assert!(hits[0].message.contains("run_cells"), "{hits:?}");
    assert_eq!(hits[0].severity, Severity::Error);

    let report = lint_inputs(pool_inputs(true));
    assert!(
        !report
            .diagnostics
            .iter()
            .any(|d| d.rule == "sharding-send-sync"),
        "{:?}",
        report.diagnostics
    );
}

#[test]
fn sharding_send_sync_is_quiet_without_a_spawn_site() {
    let bare = "#![forbid(unsafe_code)]\n#![warn(missing_docs)]\npub struct Item;\n";
    assert!(
        !rules_fired(&lint_source("universe", "src/lib.rs", bare)).contains(&"sharding-send-sync")
    );
}

#[test]
fn clean_fixture_is_clean_even_as_summary() {
    let diags = lint_as_summary(CLEAN);
    assert!(diags.is_empty(), "clean fixture flagged: {diags:?}");
}

#[test]
fn suppressions_silence_each_diagnostic() {
    let diags = lint_as_summary(SUPPRESSED);
    assert!(
        diags.is_empty(),
        "suppressed fixture still flagged: {diags:?}"
    );
}

#[test]
fn diagnostics_carry_file_line_and_render() {
    let diags = lint_as_summary(BAD_DETERMINISM);
    let d = diags.iter().find(|d| d.rule == "hash-default").unwrap();
    assert_eq!(d.file, "src/lib.rs");
    assert!(d.line >= 1);
    let rendered = d.to_string();
    assert!(
        rendered.contains("error[hash-default]: src/lib.rs:"),
        "{rendered}"
    );
}

#[test]
fn registry_covers_every_fixture_rule() {
    let mut ids: Vec<&str> = all_rules().iter().map(|r| r.id).collect();
    ids.extend(analysis_rules().iter().map(|m| m.id));
    for rule in [
        "item-arithmetic",
        "item-bits",
        "item-mint",
        "hash-default",
        "ambient-rng",
        "wall-clock",
        "hot-path-panic",
        "driver-no-panic",
        "hot-path-alloc",
        "sharding-send-sync",
        "float-eq",
        "snapshot-atomicity",
        "model-purity",
        "reachable-indexing",
        "unused-allow",
        "stale-baseline",
    ] {
        assert!(ids.contains(&rule), "registry lost rule {rule}");
    }
}
