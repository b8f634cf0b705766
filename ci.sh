#!/usr/bin/env bash
# The repo gate, in dependency order: style, model conformance, clippy,
# then tier-1 (build + tests). Everything runs offline — the workspace
# has zero external dependencies by design (see Cargo.toml).
#
#   ./ci.sh            # full gate
#   ./ci.sh --fast     # skip the release build (lint + tests only)
#   ./ci.sh --lint     # only fmt, the static-analysis lint gate and
#                      # clippy
#   ./ci.sh --faults   # only the fault-matrix smoke (debug build)
#   ./ci.sh --recovery # only the crash/resume smoke (release build)
#   ./ci.sh --service  # only the sharded-service smoke (release build)
#   ./ci.sh --large-n  # only the large-N smoke (one N ≈ 1.34e8
#                      # interval-compressed cell, crash/resume;
#                      # ~2 cell runs of wall-clock — minutes)
set -euo pipefail
cd "$(dirname "$0")"

clippy_step() {
    # Clippy with -D warnings is what turns the workspace's
    # `missing_docs = "warn"` (and every other warning) into a failure.
    if command -v cargo-clippy >/dev/null 2>&1 || cargo clippy --version >/dev/null 2>&1; then
        echo "==> cargo clippy -D warnings"
        cargo clippy --workspace --all-targets -q -- -D warnings
    else
        echo "==> clippy not installed; skipping (install with: rustup component add clippy)"
    fi
}

faults_smoke() {
    # Fault-injection smoke: the 8-cell matrix on GK at eps = 1/16,
    # k = 6 must map every injected fault to its documented verdict
    # (the binary exits nonzero on the first mismatch).
    cargo run "$@" -q -p cqs-cli --bin cqs-tool -- faults --inv-eps 16 --k 6
}

recovery_smoke() {
    # Crash/resume smoke: a sweep killed mid-run (the checkpoint layer
    # exits 86 after CQS_CRASH_AFTER_CELLS completed cells) and resumed
    # from its checkpoint must emit a CSV byte-identical to an
    # uninterrupted run — at every --jobs fan-out.
    local root=target/recovery-smoke
    rm -rf "$root"
    for j in 1 4; do
        CQS_RESULTS_DIR="$root/base-j$j" \
            cargo run --release -q -p cqs-bench --bin thm22_lower_bound_sweep -- \
                --smoke --jobs "$j"
        # The crashed run: expect exactly exit code 86.
        local code=0
        CQS_CRASH_AFTER_CELLS=2 CQS_RESULTS_DIR="$root/crashed-j$j" \
            cargo run --release -q -p cqs-bench --bin thm22_lower_bound_sweep -- \
                --smoke --jobs "$j" --resume "$root/ckpt-j$j" || code=$?
        if [[ $code -ne 86 ]]; then
            echo "recovery smoke: expected injected-crash exit 86, got $code" >&2
            exit 1
        fi
        # The resumed run completes from the checkpoint…
        env -u CQS_CRASH_AFTER_CELLS CQS_RESULTS_DIR="$root/crashed-j$j" \
            cargo run --release -q -p cqs-bench --bin thm22_lower_bound_sweep -- \
                --smoke --jobs "$j" --resume "$root/ckpt-j$j"
        # …and its CSV is byte-for-byte the uninterrupted one.
        diff "$root/base-j$j/thm22_lower_bound_sweep.csv" \
             "$root/crashed-j$j/thm22_lower_bound_sweep.csv"
    done
    # Crash points must not matter either: jobs-4 resumed output matches
    # the jobs-1 baseline (determinism across fan-out AND crash/resume).
    diff "$root/base-j1/thm22_lower_bound_sweep.csv" \
         "$root/crashed-j4/thm22_lower_bound_sweep.csv"
    # Storage fault matrix from the CLI: every corruption family must be
    # rejected with its typed RestoreError (exit 0 = zero silent
    # restores).
    cargo run --release -q -p cqs-cli --bin cqs-tool -- recover
}

service_smoke() {
    # Sharded-service smoke: `cqs service` drives the concurrent
    # registry end to end (multi-key parallel ingest, background merge
    # worker, one-pass export) and runs the adversary-driven
    # error-composition differential inside the command — a rank answer
    # escaping the composed shards*eps*N budget exits 7. The exported
    # snapshot must be byte-identical across ingest thread counts (the
    # --jobs determinism contract, applied to ingest).
    local root=target/service-smoke
    rm -rf "$root"
    mkdir -p "$root"
    for t in 1 4; do
        cargo run --release -q -p cqs-cli --bin cqs-tool -- service \
            --n 20000 --shards 8 --threads "$t" \
            --export "$root/export-t$t.qsvc"
    done
    cmp "$root/export-t1.qsvc" "$root/export-t4.qsvc"
}

large_n_smoke() {
    # Billion-item representation smoke: the single interval-compressed
    # N ≈ 1.34e8 cell (ε = 1/1024, k = 17, StreamRepr::Implicit) run
    # uninterrupted, then crashed right after its checkpoint write
    # (exit 86) and resumed — the resumed CSV must be byte-identical.
    # This is the only CI leg that exercises the implicit representation
    # at a size whose stored runs would need more than 10 GB.
    local root=target/large-n-smoke
    rm -rf "$root"
    mkdir -p "$root"
    CQS_RESULTS_DIR="$root/base" \
        cargo run --release -q -p cqs-bench --bin thm22_lower_bound_sweep -- \
            --large-n --smoke --jobs 1 2>&1 | tee "$root/base.log"
    # Memory ceiling: an implicit stream's index keeps O(#fragments +
    # runs) items that pin their own labels only, and retained items pin
    # a seal group of 8, so this cell peaks under 200 MB; an index that
    # pins whole seal groups again (780 MB) fails here.
    local peak_kb
    peak_kb=$(sed -n 's/^\[thm22\] peak RSS: \([0-9][0-9]*\) kB$/\1/p' "$root/base.log")
    if grep -q '^\[thm22\] peak RSS: unmeasured$' "$root/base.log"; then
        echo "large-n smoke: no /proc here, memory ceiling not checked" >&2
    elif [[ -z "$peak_kb" ]]; then
        echo "large-n smoke: the sweep printed no peak RSS line" >&2
        exit 1
    elif (( peak_kb > 400 * 1024 )); then
        echo "large-n smoke: peak RSS ${peak_kb} kB exceeds the 400 MB ceiling" >&2
        exit 1
    else
        echo "large-n smoke: peak RSS ${peak_kb} kB (ceiling 400 MB)"
    fi
    local code=0
    CQS_CRASH_AFTER_CELLS=1 CQS_RESULTS_DIR="$root/crashed" \
        cargo run --release -q -p cqs-bench --bin thm22_lower_bound_sweep -- \
            --large-n --smoke --jobs 1 --resume "$root/ckpt" || code=$?
    if [[ $code -ne 86 ]]; then
        echo "large-n smoke: expected injected-crash exit 86, got $code" >&2
        exit 1
    fi
    # The resumed run reuses the persisted cell (no recompute) and must
    # emit the exact CSV the uninterrupted run produced.
    env -u CQS_CRASH_AFTER_CELLS CQS_RESULTS_DIR="$root/crashed" \
        cargo run --release -q -p cqs-bench --bin thm22_lower_bound_sweep -- \
            --large-n --smoke --jobs 1 --resume "$root/ckpt"
    diff "$root/base/thm22_large_n_sweep.csv" \
         "$root/crashed/thm22_large_n_sweep.csv"
}

if [[ "${1:-}" == "--large-n" ]]; then
    echo "==> large-N smoke (thm22 --large-n --smoke, N ~ 1.34e8, crash/resume)"
    large_n_smoke
    echo "ci: large-n smoke green"
    exit 0
fi

if [[ "${1:-}" == "--lint" ]]; then
    echo "==> cargo fmt --check"
    cargo fmt --all -- --check
    echo "==> static-analysis lint (cargo run -p cqs-xtask -- lint)"
    cargo run -p cqs-xtask -q -- lint
    clippy_step
    echo "ci: lint green"
    exit 0
fi

if [[ "${1:-}" == "--faults" ]]; then
    echo "==> fault-matrix smoke (cqs faults, gk, eps=1/16, k=6)"
    faults_smoke
    echo "ci: faults smoke green"
    exit 0
fi

if [[ "${1:-}" == "--service" ]]; then
    echo "==> sharded-service smoke (cqs service, threads 1 & 4, export byte-diff)"
    service_smoke
    echo "ci: service smoke green"
    exit 0
fi

if [[ "${1:-}" == "--recovery" ]]; then
    echo "==> crash/resume smoke (thm22 --smoke, crash after 2 cells, jobs 1 & 4)"
    recovery_smoke
    echo "ci: recovery smoke green"
    exit 0
fi

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> model-conformance lint (cargo run -p cqs-xtask -- lint)"
cargo run -p cqs-xtask -q -- lint

clippy_step

if [[ $fast -eq 0 ]]; then
    echo "==> cargo build --release (tier-1)"
    cargo build --release
fi

echo "==> cargo test -q (tier-1; includes tests/conformance.rs = the lint gate)"
cargo test -q

if [[ $fast -eq 0 ]]; then
    echo "==> perf baseline smoke (tiny configs; schema check; --jobs 1 vs --jobs 4)"
    for j in 1 4; do
        cargo run --release -q -p cqs-bench --bin perf_baseline -- \
            --smoke --jobs "$j" --out-dir "target/bench-smoke-j$j"
        cargo run --release -q -p cqs-bench --bin perf_baseline -- \
            --verify "target/bench-smoke-j$j"
    done
    # The batched tree walks must leave every measured outcome (gaps,
    # stored sizes, equivalence verdicts) identical under any fan-out:
    # diff the smoke artifacts with the timing fields stripped.
    for f in BENCH_adversary.json BENCH_summaries.json; do
        for j in 1 4; do
            sed -E 's/"(elapsed_ms|items_per_sec)": *[0-9.e+-]+,?//' \
                "target/bench-smoke-j$j/$f" > "target/bench-smoke-j$j/$f.det"
        done
        diff "target/bench-smoke-j1/$f.det" "target/bench-smoke-j4/$f.det"
    done

    echo "==> fault-matrix smoke (cqs faults, gk, eps=1/16, k=6)"
    faults_smoke --release

    echo "==> implicit vs materialized differential up to N ~ 1e6 (release)"
    # Both representations' id-keyed run lookups at scale must give
    # byte-identical adversary reports (seconds in release).
    cargo test --release -q -p cqs-bench --test implicit_differential -- \
        --ignored --exact implicit_matches_materialized_up_to_a_million_items

    echo "==> parallel-determinism smoke (thm22 --smoke, --jobs 1 vs --jobs 4)"
    # CQS_RESULTS_DIR redirects the CSV mirrors so the committed
    # results/ artifacts are never clobbered by a smoke grid.
    rm -rf target/sweep-smoke
    CQS_RESULTS_DIR=target/sweep-smoke/serial \
        cargo run --release -q -p cqs-bench --bin thm22_lower_bound_sweep -- --smoke --jobs 1
    CQS_RESULTS_DIR=target/sweep-smoke/parallel \
        cargo run --release -q -p cqs-bench --bin thm22_lower_bound_sweep -- --smoke --jobs 4
    diff target/sweep-smoke/serial/thm22_lower_bound_sweep.csv \
         target/sweep-smoke/parallel/thm22_lower_bound_sweep.csv

    echo "==> crash/resume smoke (thm22 --smoke, crash after 2 cells, jobs 1 & 4)"
    recovery_smoke

    echo "==> sharded-service smoke (cqs service, threads 1 & 4, export byte-diff)"
    service_smoke

    # The benchmark package (perfbench/, its own workspace) links the
    # crates by path; nothing above compiles it, so an API change that
    # breaks the benchmark would otherwise surface only in a benchmark run.
    echo "==> benchmark smoke (cargo test --manifest-path perfbench/Cargo.toml)"
    cargo test --offline -q --manifest-path perfbench/Cargo.toml
fi

echo "ci: all green"
