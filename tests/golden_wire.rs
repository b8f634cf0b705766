//! Golden-file pins for the `cqs-snapshot` wire format.
//!
//! The committed `tests/golden/*.cqss` fixtures are byte-for-byte
//! images of small deterministic snapshots. These tests fail on ANY
//! encoding drift — field order, framing, endianness, CRC polynomial —
//! because an incompatible writer silently strands every checkpoint a
//! user has on disk. A deliberate format change must bump
//! `cqs_snapshot::VERSION` and re-bless with
//! `UPDATE_GOLDEN=1 cargo test --test golden_wire`.

use cqs::prelude::*;
use cqs_snapshot::{SnapshotRead, SnapshotWrite, MAGIC, VERSION};
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/{name}.cqss"))
}

/// Compares `bytes` against the committed fixture, blessing it instead
/// when `UPDATE_GOLDEN=1` is set.
fn assert_matches_golden(name: &str, bytes: &[u8]) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, bytes).expect("write golden");
        return;
    }
    let golden = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing {} ({e}) — run UPDATE_GOLDEN=1 cargo test --test golden_wire",
            path.display()
        )
    });
    assert_eq!(
        bytes,
        golden.as_slice(),
        "{name}: wire bytes drifted from the committed fixture; a \
         deliberate format change must bump cqs_snapshot::VERSION and \
         re-bless with UPDATE_GOLDEN=1 cargo test --test golden_wire"
    );
}

/// The fixture streams: small, deterministic, and chosen to exercise
/// non-trivial compression inside each summary.
fn feed<S: ComparisonSummary<u64>>(mut s: S) -> S {
    // A fixed permutation of 1..=64 (bit-reversal order) — enough to
    // trigger merges/compression at eps = 0.1 without bloating the
    // committed fixture.
    for i in 0..64u64 {
        let v = (i.reverse_bits() >> 58) + 1;
        s.insert(v);
    }
    s
}

#[test]
fn gk_wire_bytes_are_stable() {
    assert_matches_golden(
        "gk_v1",
        &feed(GkSummary::<u64>::new(0.1)).to_snapshot_bytes(),
    );
}

#[test]
fn greedy_gk_wire_bytes_are_stable() {
    assert_matches_golden(
        "gk_greedy_v1",
        &feed(GreedyGk::<u64>::new(0.1)).to_snapshot_bytes(),
    );
}

#[test]
fn mrl_wire_bytes_are_stable() {
    assert_matches_golden(
        "mrl_v1",
        &feed(MrlSummary::<u64>::new(0.1, 64)).to_snapshot_bytes(),
    );
}

#[test]
fn ckms_wire_bytes_are_stable() {
    assert_matches_golden(
        "ckms_v1",
        &feed(CkmsSummary::<u64>::new(0.1)).to_snapshot_bytes(),
    );
}

#[test]
fn golden_fixtures_still_restore() {
    // The committed images must remain readable by the current build —
    // the compatibility promise the fixtures exist to enforce.
    let gk = GkSummary::<u64>::from_snapshot_bytes(
        &std::fs::read(golden_path("gk_v1")).expect("gk_v1 fixture"),
    )
    .expect("gk_v1 must restore");
    assert_eq!(gk.items_processed(), 64);
    assert_eq!(
        gk.item_array(),
        feed(GkSummary::<u64>::new(0.1)).item_array()
    );

    let mrl = MrlSummary::<u64>::from_snapshot_bytes(
        &std::fs::read(golden_path("mrl_v1")).expect("mrl_v1 fixture"),
    )
    .expect("mrl_v1 must restore");
    assert_eq!(mrl.items_processed(), 64);
}

#[test]
fn gk_fixture_reencodes_byte_identically() {
    // The fixture is taken with inserts pending (64 is not a multiple of
    // the period 5), so it also pins what a snapshot of the fresh buffer
    // holds: a restored summary writes the same bytes back.
    let bytes = std::fs::read(golden_path("gk_v1")).expect("gk_v1 fixture");
    let gk = GkSummary::<u64>::from_snapshot_bytes(&bytes).expect("gk_v1 must restore");
    assert_eq!(gk.to_snapshot_bytes(), bytes);
}

#[test]
fn golden_fixtures_carry_the_current_header() {
    // Every fixture opens with the magic and the version this build
    // writes; a bumped VERSION with stale fixtures fails here first
    // with a clearer message than a byte-diff.
    for name in ["gk_v1", "gk_greedy_v1", "mrl_v1", "ckms_v1", "qsvc_v1"] {
        let bytes = std::fs::read(golden_path(name)).expect("fixture");
        assert_eq!(&bytes[..4], &MAGIC, "{name}: magic");
        let ver = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        assert_eq!(ver, VERSION, "{name}: header version");
    }
}

/// A fixed three-key registry (4 shards, ε₀ = 0.01). `a.latency` and
/// `b.latency` take 20 and 12 batches through `parallel_ingest`, and
/// `b.latency` five per-item `record`s on top, so its fold merges
/// shards with inserts pending. `c.latency` takes one batch and one
/// `record`, both on shard 0, so it exports a one-shard fold with an
/// insert still pending.
fn qsvc_registry() -> QuantileRegistry<u64, GkSummary<u64>> {
    let reg = QuantileRegistry::new(
        ServiceConfig {
            shards: 4,
            stripes: 4,
            fold_cadence: 1 << 20,
        },
        || GkSummary::new(0.01),
    );
    let scrambled = |i: u64| (i * 48_271) % 10_007;
    let batches = |count: u64, len: u64, base: u64| -> Vec<Vec<u64>> {
        (0..count)
            .map(|b| (0..len).map(|i| scrambled(base + b * len + i)).collect())
            .collect()
    };
    parallel_ingest(&reg.handle("a.latency"), &batches(20, 100, 0), 2);
    let b = reg.handle("b.latency");
    parallel_ingest(&b, &batches(12, 150, 5_000), 2);
    for i in 0..5 {
        b.record(scrambled(9_000 + i));
    }
    let c = reg.handle("c.latency");
    parallel_ingest(&c, &batches(1, 128, 7_000), 1);
    c.record(scrambled(9_500));
    reg
}

#[test]
fn qsvc_export_bytes_are_stable() {
    let export = qsvc_registry()
        .export_quantiles(&DEFAULT_PHI_GRID)
        .expect("export");
    assert_eq!(export.keys.len(), 3);
    assert_eq!(export.keys[2].n, 129);
    let bytes = export.to_snapshot_bytes();
    assert_matches_golden("qsvc_v1", &bytes);
    let back = cqs::service::QuantileExport::<u64>::from_snapshot_bytes(&bytes).expect("restore");
    assert_eq!(back, export);
}
