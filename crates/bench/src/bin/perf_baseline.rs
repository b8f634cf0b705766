//! `perf_baseline` — the JSON perf baseline runner.
//!
//! Times (a) full adversary runs (`AdvStrategy` at ε ∈ {1/64, 1/256},
//! k up to 12) and (b) raw summary update throughput (per-item vs
//! sorted-run inserts), then records the numbers in
//! `BENCH_adversary.json` / `BENCH_summaries.json` at the workspace
//! root so every PR leaves a measured trajectory.
//!
//! ```text
//! cargo run -p cqs-bench --release --bin perf_baseline -- --phase pre_change
//! cargo run -p cqs-bench --release --bin perf_baseline -- --phase post_change --merge
//! cargo run -p cqs-bench --release --bin perf_baseline -- --smoke --out-dir target/bench-smoke
//! cargo run -p cqs-bench --release --bin perf_baseline -- --verify target/bench-smoke
//! cargo run -p cqs-bench --release --bin perf_baseline -- --large-n --merge
//! cargo run -p cqs-bench --release --bin perf_baseline -- --sharded --merge
//! ```
//!
//! `--large-n` switches the adversary phase (default phase name
//! `large_n`) to the interval-compressed scaling ladder — ε = 1/1024
//! with N climbing 10⁶ → 1.7×10⁷ → 1.3×10⁸ on implicit streams — and
//! records only `BENCH_adversary.json` (the summary workloads are
//! N-independent and would just be re-measured noise).
//!
//! `--merge` appends this invocation's runs to the existing files
//! (that is how before/after numbers end up side by side in one PR);
//! `--verify DIR` re-parses the files in DIR and checks the schema —
//! the CI smoke step runs exactly that.
//!
//! `--jobs N` fans the adversary configs out over the `cqs_bench::exec`
//! worker pool. The default is **1** (unlike the sweep binaries): this
//! binary's job is honest per-config timings, and concurrent runs
//! contend for cores. The JSON `runs` array is in config order for any
//! `--jobs`; only the interleaving of progress lines changes.
//!
//! `--resume DIR` checkpoints the adversary phase to `DIR/perf.ckpt`
//! after every timed config; a rerun reuses intact stored results and
//! replays the rest (corrupt checkpoints are rejected with typed
//! verdicts, never restored). `CQS_CRASH_AFTER_CELLS=k` injects a
//! mid-run crash (exit code 86) for the CI recovery leg.
//!
//! The summaries file also records a `snapshot_roundtrip` mode — the
//! cost of one `cqs-snapshot` serialize + restore cycle per summary —
//! so `--verify` guards against checkpointing regressing the hot path.
//!
//! A `sharded_ingest` mode times the `cqs-service` registry over a
//! threads × shards grid: the 1×1 cell is the unsharded baseline
//! (phase `pre_change`), the threaded 8-shard cells are the service
//! path (phase `post_change`), and every row records the host core
//! count so single-core hosts are not mistaken for scaling failures.
//! `--verify` requires the mode and its grid keys to be present.
//! `--sharded` runs the grid alone and records only
//! `BENCH_summaries.json` (that is how the committed sharded rows are
//! refreshed without re-timing every other section).

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use cqs_bench::checkpoint::{
    crash_policy_from_env, grid_fingerprint, run_cells_checkpointed, CheckpointConfig,
    CheckpointedRun, CrashPolicy,
};
use cqs_bench::exec::{parse_jobs, run_cells, CellOutcome};
use cqs_bench::json::{parse, Json};
use cqs_bench::{try_attack_repr, Target};
use cqs_core::{ComparisonSummary, Eps, MergeableSummary, StreamRepr};
use cqs_gk::{GkSummary, GreedyGk};
use cqs_service::{parallel_ingest, QuantileRegistry, ServiceConfig};
use cqs_snapshot::{RestoreError, SnapshotRead, SnapshotWrite};
use cqs_streams::{workload, Workload};

const ADVERSARY_FILE: &str = "BENCH_adversary.json";
const SUMMARIES_FILE: &str = "BENCH_summaries.json";
const ADVERSARY_SCHEMA: &str = "cqs-bench/adversary/v1";
const SUMMARIES_SCHEMA: &str = "cqs-bench/summaries/v1";

struct Opts {
    phase: String,
    merge: bool,
    out_dir: PathBuf,
    smoke: bool,
    large_n: bool,
    sharded_only: bool,
    verify: Option<PathBuf>,
    jobs: usize,
    resume: Option<PathBuf>,
}

fn workspace_root() -> PathBuf {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    root.canonicalize().unwrap_or(root)
}

fn parse_opts() -> Result<Opts, String> {
    let mut opts = Opts {
        phase: String::new(),
        merge: false,
        out_dir: workspace_root(),
        smoke: false,
        large_n: false,
        sharded_only: false,
        verify: None,
        jobs: 1,
        resume: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--phase" => opts.phase = args.next().ok_or("--phase needs a value")?,
            "--merge" => opts.merge = true,
            "--smoke" => opts.smoke = true,
            "--large-n" => opts.large_n = true,
            "--sharded" => opts.sharded_only = true,
            "--jobs" => opts.jobs = parse_jobs(&args.next().ok_or("--jobs needs a value")?)?,
            "--out-dir" => {
                opts.out_dir = PathBuf::from(args.next().ok_or("--out-dir needs a value")?)
            }
            "--verify" => {
                opts.verify = Some(PathBuf::from(args.next().ok_or("--verify needs a value")?))
            }
            "--resume" => {
                opts.resume = Some(PathBuf::from(
                    args.next().ok_or("--resume needs a checkpoint directory")?,
                ))
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if opts.phase.is_empty() {
        opts.phase = if opts.large_n {
            "large_n".into()
        } else if opts.smoke {
            "smoke".into()
        } else {
            "current".into()
        };
    }
    Ok(opts)
}

/// One timed adversary configuration.
fn adversary_run(phase: &str, target: Target, eps_inv: u64, k: u32, repr: StreamRepr) -> Json {
    let eps = Eps::from_inverse(eps_inv);
    let started = Instant::now();
    let report =
        try_attack_repr(eps, k, target, repr).unwrap_or_else(|e| panic!("{}: {e}", target.name()));
    let elapsed = started.elapsed();
    // Both streams are fed: the adversary appends N items to π and N to ϱ.
    let items = 2 * report.n;
    let secs = elapsed.as_secs_f64().max(1e-9);
    let ips = items as f64 / secs;
    println!(
        "  adversary {:>10}  1/eps={:<4} k={:<2}  n={:>8}  {:>8.1} ms  {:>12.0} items/s",
        target.name(),
        eps_inv,
        k,
        report.n,
        secs * 1e3,
        ips
    );
    Json::Obj(vec![
        ("phase".into(), Json::Str(phase.into())),
        ("target".into(), Json::Str(target.name())),
        (
            "repr".into(),
            Json::Str(
                match repr {
                    StreamRepr::Materialized => "materialized",
                    StreamRepr::Implicit => "implicit",
                }
                .into(),
            ),
        ),
        ("eps_inverse".into(), Json::Num(eps_inv as f64)),
        ("k".into(), Json::Num(k as f64)),
        ("n".into(), Json::Num(report.n as f64)),
        ("items".into(), Json::Num(items as f64)),
        ("elapsed_ms".into(), Json::Num(secs * 1e3)),
        ("items_per_sec".into(), Json::Num(ips)),
        ("final_gap".into(), Json::Num(report.final_gap as f64)),
        ("max_stored".into(), Json::Num(report.max_stored as f64)),
        (
            "max_label_depth".into(),
            Json::Num(report.max_label_depth as f64),
        ),
        ("equivalence_ok".into(), Json::Bool(report.equivalence_ok)),
    ])
}

/// One timed summary-throughput configuration. `chunk == 1` means plain
/// per-item inserts; larger chunks sort each window and feed it through
/// `insert_sorted_run` (the batched entry point under test).
fn summary_run<S: ComparisonSummary<u64>>(
    phase: &str,
    name: &str,
    mut summary: S,
    wl: Workload,
    values: &[u64],
    chunk: usize,
) -> Json {
    let mode = if chunk <= 1 { "per_item" } else { "sorted_run" };
    let started = Instant::now();
    if chunk <= 1 {
        for &v in values {
            summary.insert(v);
        }
    } else {
        let mut buf: Vec<u64> = Vec::with_capacity(chunk);
        for window in values.chunks(chunk) {
            buf.clear();
            buf.extend_from_slice(window);
            buf.sort_unstable();
            summary.insert_sorted_run(&buf);
        }
    }
    let elapsed = started.elapsed();
    let secs = elapsed.as_secs_f64().max(1e-9);
    let ips = values.len() as f64 / secs;
    println!(
        "  summary {:>10}  {:<9} {:<11} n={:>7}  {:>8.1} ms  {:>12.0} items/s",
        name,
        wl.name(),
        mode,
        values.len(),
        secs * 1e3,
        ips
    );
    Json::Obj(vec![
        ("phase".into(), Json::Str(phase.into())),
        ("summary".into(), Json::Str(name.into())),
        ("workload".into(), Json::Str(wl.name().into())),
        ("mode".into(), Json::Str(mode.into())),
        ("chunk".into(), Json::Num(chunk as f64)),
        ("n".into(), Json::Num(values.len() as f64)),
        ("elapsed_ms".into(), Json::Num(secs * 1e3)),
        ("items_per_sec".into(), Json::Num(ips)),
        (
            "final_stored".into(),
            Json::Num(summary.stored_count() as f64),
        ),
    ])
}

/// One timed sharded-service ingest configuration: `values`, cut into
/// `batch`-sized batches, drive a fresh [`QuantileRegistry`] through
/// [`parallel_ingest`] with the given worker-thread count, then one
/// fold. Ingest wall time is the headline (items/s); the untimed fold
/// supplies the honest stored-count and composed-ε figures. Placement
/// is positional (batch `b` → shard `b mod S`), so `final_stored` and
/// `composed_eps` are byte-identical for every `threads` value — only
/// the timing columns move. `cores` records the host's available
/// parallelism: on a single-core host the threaded rows measure
/// scheduling overhead, not scaling, and the ≥4x target needs ≥8 cores.
///
/// The `threads = shards = 1` cell is tagged phase `pre_change` (the
/// unsharded ingest the service replaces); every other cell is
/// `post_change`. Both land in one invocation so they share machine
/// state, which is what makes the speedup column honest.
fn sharded_run(values: &[u64], batch: usize, shards: usize, threads: usize) -> Json {
    let phase = if shards == 1 && threads == 1 {
        "pre_change"
    } else {
        "post_change"
    };
    let batches: Vec<Vec<u64>> = values.chunks(batch).map(|c| c.to_vec()).collect();
    let reg: QuantileRegistry<u64, GkSummary<u64>> = QuantileRegistry::new(
        ServiceConfig {
            shards,
            stripes: 4,
            fold_cadence: u64::MAX,
        },
        || GkSummary::new(0.01),
    );
    let handle = reg.handle("bench");
    let started = Instant::now();
    let ingested = parallel_ingest(&handle, &batches, threads);
    let elapsed = started.elapsed();
    let folded = handle
        .folded()
        .expect("identically-built shards merge")
        .expect("non-empty stream");
    let composed = folded.eps_bound().unwrap_or(0.0);
    assert_eq!(ingested, values.len() as u64, "sharded ingest lost items");
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let secs = elapsed.as_secs_f64().max(1e-9);
    let ips = values.len() as f64 / secs;
    println!(
        "  sharded {:>10}  threads={:<2} shards={:<2} n={:>7}  {:>8.1} ms  {:>12.0} items/s  (eps {:.3})",
        "gk", threads, shards, values.len(), secs * 1e3, ips, composed
    );
    Json::Obj(vec![
        ("phase".into(), Json::Str(phase.into())),
        ("summary".into(), Json::Str("gk".into())),
        ("workload".into(), Json::Str("shuffled".into())),
        ("mode".into(), Json::Str("sharded_ingest".into())),
        ("chunk".into(), Json::Num(batch as f64)),
        ("threads".into(), Json::Num(threads as f64)),
        ("shards".into(), Json::Num(shards as f64)),
        ("cores".into(), Json::Num(cores as f64)),
        ("n".into(), Json::Num(values.len() as f64)),
        ("elapsed_ms".into(), Json::Num(secs * 1e3)),
        ("items_per_sec".into(), Json::Num(ips)),
        (
            "final_stored".into(),
            Json::Num(folded.stored_count() as f64),
        ),
        ("composed_eps".into(), Json::Num(composed)),
    ])
}

/// The sharded-ingest section: the threads × shards grid. The 1×1
/// cell is the unsharded ingest baseline (phase `pre_change`); the
/// threaded 8-shard cells are the service path (phase `post_change`)
/// — see [`sharded_run`].
fn sharded_section(smoke: bool) -> Vec<Json> {
    println!("== sharded service ingest ==");
    let (shard_n, shard_batch, grid): (u64, usize, &[(usize, usize)]) = if smoke {
        (5_000, 256, &[(1, 1), (4, 8)])
    } else {
        (400_000, 4096, &[(1, 1), (1, 8), (2, 8), (4, 8), (8, 8)])
    };
    let shard_values = workload(Workload::Shuffled, shard_n, 42).expect("n > 0");
    grid.iter()
        .map(|&(threads, shards)| sharded_run(&shard_values, shard_batch, shards, threads))
        .collect()
}

/// Prints the sharded-ingest speedup: the last `pre_change` row
/// (threads = shards = 1) against the best threaded row, the
/// acceptance figure for the sharded service.
fn report_sharded_speedup(runs: &[Json]) {
    let ips = |r: &Json| r.get("items_per_sec").and_then(Json::as_f64);
    let sharded: Vec<&Json> = runs
        .iter()
        .filter(|r| r.get("mode").and_then(Json::as_str) == Some("sharded_ingest"))
        .collect();
    let pre = sharded
        .iter()
        .filter(|r| r.get("phase").and_then(Json::as_str) == Some("pre_change"))
        .filter_map(|r| ips(r))
        .next_back();
    let post = sharded
        .iter()
        .filter(|r| r.get("phase").and_then(Json::as_str) == Some("post_change"))
        .filter_map(|r| ips(r))
        .fold(None::<f64>, |acc, v| Some(acc.map_or(v, |a| a.max(v))));
    if let (Some(pre), Some(post)) = (pre, post) {
        println!(
            "  sharded speedup: {:>10.0} -> {:>10.0} items/s  ({:.2}x, 1x1 -> best threaded cell)",
            pre,
            post,
            post / pre
        );
    }
}

/// One timed snapshot/restore overhead configuration: the summary is
/// filled once, then round-tripped through the `cqs-snapshot` wire
/// format `rounds` times. Recorded as mode `snapshot_roundtrip` in the
/// summaries file so `--verify` can insist checkpointing stays off the
/// hot path's back.
fn snapshot_run<S>(phase: &str, name: &str, mut summary: S, values: &[u64], rounds: usize) -> Json
where
    S: ComparisonSummary<u64> + SnapshotWrite + SnapshotRead,
{
    for &v in values {
        summary.insert(v);
    }
    let mut bytes_len = 0usize;
    let started = Instant::now();
    for _ in 0..rounds {
        let bytes = summary.to_snapshot_bytes();
        bytes_len = bytes.len();
        let restored = S::from_snapshot_bytes(&bytes).expect("self-written snapshot restores");
        assert_eq!(restored.stored_count(), summary.stored_count());
    }
    let elapsed = started.elapsed();
    let secs = elapsed.as_secs_f64().max(1e-9);
    // Items covered per second of snapshot+restore work: the honest
    // "how much stream does one checkpoint cycle cost" figure.
    let ips = (values.len() * rounds) as f64 / secs;
    println!(
        "  snapshot {:>9}  {:<9} {:<11} n={:>7}  {:>8.1} ms  {:>12.0} items/s  ({} bytes)",
        name,
        "roundtrip",
        "snapshot",
        values.len(),
        secs * 1e3,
        ips,
        bytes_len
    );
    Json::Obj(vec![
        ("phase".into(), Json::Str(phase.into())),
        ("summary".into(), Json::Str(name.into())),
        ("workload".into(), Json::Str("shuffled".into())),
        ("mode".into(), Json::Str("snapshot_roundtrip".into())),
        ("chunk".into(), Json::Num(rounds as f64)),
        ("n".into(), Json::Num(values.len() as f64)),
        ("elapsed_ms".into(), Json::Num(secs * 1e3)),
        ("items_per_sec".into(), Json::Num(ips)),
        (
            "final_stored".into(),
            Json::Num(summary.stored_count() as f64),
        ),
        ("snapshot_bytes".into(), Json::Num(bytes_len as f64)),
    ])
}

/// Loads `path` (when merging) or starts a fresh document, appends
/// `new_runs` to its `runs` array, and writes it back.
fn write_runs(path: &Path, schema: &str, merge: bool, new_runs: Vec<Json>) -> Result<(), String> {
    let mut doc = if merge && path.exists() {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if doc.get("schema").and_then(Json::as_str) != Some(schema) {
            return Err(format!(
                "{}: schema mismatch, refusing to merge",
                path.display()
            ));
        }
        doc
    } else {
        Json::Obj(vec![
            ("schema".into(), Json::Str(schema.into())),
            ("unit".into(), Json::Str("items_per_sec".into())),
            ("runs".into(), Json::Arr(Vec::new())),
        ])
    };
    match doc.get_mut("runs") {
        Some(Json::Arr(runs)) => runs.extend(new_runs),
        _ => return Err(format!("{}: no runs array", path.display())),
    }
    std::fs::write(path, doc.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("[json] {}", path.display());
    Ok(())
}

/// Prints pre→post speedups for adversary configs present in both
/// phases (the headline acceptance number lives here).
fn report_speedups(doc: &Json) {
    let Some(runs) = doc.get("runs").and_then(Json::as_arr) else {
        return;
    };
    let key = |r: &Json| {
        Some((
            r.get("target")?.as_str()?.to_string(),
            r.get("eps_inverse")?.as_f64()? as u64,
            r.get("k")?.as_f64()? as u32,
        ))
    };
    let ips_of = |r: &Json, phase: &str| {
        (r.get("phase")?.as_str()? == phase)
            .then(|| r.get("items_per_sec")?.as_f64())
            .flatten()
    };
    let mut seen: Vec<(String, u64, u32)> = Vec::new();
    for r in runs {
        let Some(k) = key(r) else { continue };
        if seen.contains(&k) {
            continue;
        }
        seen.push(k.clone());
        let pre = runs
            .iter()
            .filter_map(|r| (key(r)? == k).then(|| ips_of(r, "pre_change")).flatten())
            .next_back();
        let post = runs
            .iter()
            .filter_map(|r| (key(r)? == k).then(|| ips_of(r, "post_change")).flatten())
            .next_back();
        if let (Some(pre), Some(post)) = (pre, post) {
            println!(
                "  speedup {:>10}  1/eps={:<4} k={:<2}  {:>10.0} -> {:>10.0} items/s  ({:.2}x)",
                k.0,
                k.1,
                k.2,
                pre,
                post,
                post / pre
            );
        }
    }
}

/// `--verify`: re-parse the artifacts and check the schema the CI smoke
/// step (and any future tooling) depends on.
fn verify(dir: &Path) -> Result<(), String> {
    for (file, schema, required) in [
        (
            ADVERSARY_FILE,
            ADVERSARY_SCHEMA,
            &[
                "phase",
                "target",
                "eps_inverse",
                "k",
                "n",
                "elapsed_ms",
                "items_per_sec",
            ][..],
        ),
        (
            SUMMARIES_FILE,
            SUMMARIES_SCHEMA,
            &[
                "phase",
                "summary",
                "workload",
                "mode",
                "n",
                "elapsed_ms",
                "items_per_sec",
            ][..],
        ),
    ] {
        let path = dir.join(file);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = parse(&text).map_err(|e| format!("{}: parse error: {e}", path.display()))?;
        if doc.get("schema").and_then(Json::as_str) != Some(schema) {
            return Err(format!("{file}: missing or wrong schema (want {schema})"));
        }
        let runs = doc
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or(format!("{file}: missing runs array"))?;
        if runs.is_empty() {
            return Err(format!("{file}: runs array is empty"));
        }
        for (i, run) in runs.iter().enumerate() {
            for req in required {
                if run.get(req).is_none() {
                    return Err(format!("{file}: run {i} lacks key {req:?}"));
                }
            }
        }
        if file == SUMMARIES_FILE {
            if !runs
                .iter()
                .any(|r| r.get("mode").and_then(Json::as_str) == Some("snapshot_roundtrip"))
            {
                return Err(format!(
                    "{file}: no snapshot_roundtrip runs — snapshot overhead is not being tracked"
                ));
            }
            // Sharded rows additionally carry the grid coordinates; a
            // missing key here means the service benchmark quietly
            // stopped recording where on the grid a number came from.
            let sharded: Vec<&Json> = runs
                .iter()
                .filter(|r| r.get("mode").and_then(Json::as_str) == Some("sharded_ingest"))
                .collect();
            if sharded.is_empty() {
                return Err(format!(
                    "{file}: no sharded_ingest runs — service ingest is not being tracked"
                ));
            }
            for run in sharded {
                for req in ["threads", "shards", "cores", "composed_eps"] {
                    if run.get(req).is_none() {
                        return Err(format!("{file}: a sharded_ingest run lacks key {req:?}"));
                    }
                }
            }
        }
        println!("[verify] {} ok ({} runs)", path.display(), runs.len());
    }
    Ok(())
}

fn run(opts: &Opts) -> Result<(), String> {
    if let Some(dir) = &opts.verify {
        return verify(dir);
    }
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("{}: {e}", opts.out_dir.display()))?;
    let phase = opts.phase.as_str();

    if opts.sharded_only {
        // The sharded grid is a summaries-only phase (its rows name
        // their own pre/post phases); re-timing the adversary and
        // plain-summary sections alongside it would just append noise.
        let runs = sharded_section(opts.smoke);
        report_sharded_speedup(&runs);
        return write_runs(
            &opts.out_dir.join(SUMMARIES_FILE),
            SUMMARIES_SCHEMA,
            opts.merge,
            runs,
        );
    }

    println!("== adversary throughput (phase: {phase}) ==");
    use StreamRepr::{Implicit, Materialized};
    let adversary_configs: &[(Target, u64, u32, StreamRepr)] = if opts.large_n {
        // The interval-compressed scaling ladder: fixed ε = 1/1024,
        // N climbing 1.0e6 → 1.7e7 → 1.3e8. Items/s should stay flat
        // (the implicit representation is O(log)-per-operation in the
        // *fragment* count, not N) while max_stored traces the
        // Ω((1/ε)·log εN) shape.
        &[
            (Target::Gk, 1024, 10, Implicit),
            (Target::Gk, 1024, 14, Implicit),
            (Target::Gk, 1024, 17, Implicit),
        ]
    } else if opts.smoke {
        &[(Target::Gk, 8, 4, Materialized)]
    } else {
        &[
            (Target::Gk, 64, 8, Materialized),
            (Target::Gk, 64, 10, Materialized),
            (Target::Gk, 64, 12, Materialized),
            (Target::GkGreedy, 64, 12, Materialized),
            (Target::Gk, 256, 8, Materialized),
            (Target::Gk, 256, 10, Materialized),
            (Target::Gk, 256, 12, Materialized),
        ]
    };
    // Fan the configs over the worker pool; results come back in config
    // order, so the JSON runs array is deterministic for any --jobs.
    let outcomes = match &opts.resume {
        None => run_cells(
            adversary_configs,
            opts.jobs,
            |_, &(t, e, k, repr)| adversary_run(phase, t, e, k, repr),
            |_| {},
        ),
        Some(dir) => {
            // Checkpointed: completed configs persist as rendered JSON
            // rows and a rerun reuses every intact one. The render →
            // parse → render cycle is byte-stable, so resumed artifacts
            // match uninterrupted ones exactly (modulo nothing).
            let mut cfg = CheckpointConfig::in_dir(dir, "perf");
            cfg.crash = crash_policy_from_env()?;
            if let CrashPolicy::Exit(k) = cfg.crash {
                eprintln!("[perf] crash injection armed: exiting after {k} persisted configs");
            }
            let fp = grid_fingerprint(adversary_configs.iter().map(|(t, e, k, repr)| {
                // Materialized configs keep the historical fingerprint
                // text so old checkpoints stay restorable.
                match repr {
                    Materialized => format!("perf {} 1/{e} k={k} phase={phase}", t.name()),
                    Implicit => {
                        format!("perf {} 1/{e} k={k} phase={phase} repr=implicit", t.name())
                    }
                }
            }));
            let sweep = run_cells_checkpointed(
                adversary_configs,
                opts.jobs,
                &cfg,
                fp,
                |_, &(t, e, k, repr)| adversary_run(phase, t, e, k, repr),
                |json| Some(json.render().into_bytes()),
                |bytes| {
                    let text = std::str::from_utf8(bytes).map_err(|_| RestoreError::Malformed {
                        section: "CELL".to_string(),
                        detail: "stored run is not UTF-8".to_string(),
                    })?;
                    parse(text).map_err(|e| RestoreError::Malformed {
                        section: "CELL".to_string(),
                        detail: e,
                    })
                },
                |_| {},
            );
            if sweep.resume.reused > 0 {
                eprintln!(
                    "[perf] resumed: {}/{} adversary configs reused from {}",
                    sweep.resume.reused,
                    sweep.resume.total,
                    cfg.path.display()
                );
            }
            for ev in &sweep.resume.events {
                eprintln!("[perf] recovery: {ev}");
            }
            match sweep.run {
                CheckpointedRun::Complete(outcomes) => outcomes,
                CheckpointedRun::Halted { completed } => {
                    return Err(format!("adversary phase halted after {completed} configs"))
                }
            }
        }
    };
    let mut adversary_runs: Vec<Json> = Vec::with_capacity(adversary_configs.len());
    for (cfg, outcome) in adversary_configs.iter().zip(outcomes) {
        match outcome {
            CellOutcome::Done(json) => adversary_runs.push(json),
            CellOutcome::Panicked(msg) => {
                return Err(format!("adversary config {cfg:?} panicked: {msg}"))
            }
        }
    }

    if opts.large_n {
        // The large-N ladder is an adversary-only phase: re-timing the
        // 200k-item summary workloads would add nothing but noise to
        // BENCH_summaries.json.
        let adv_path = opts.out_dir.join(ADVERSARY_FILE);
        write_runs(&adv_path, ADVERSARY_SCHEMA, opts.merge, adversary_runs)?;
        let text = std::fs::read_to_string(&adv_path).map_err(|e| e.to_string())?;
        report_speedups(&parse(&text)?);
        return Ok(());
    }

    println!("== summary update throughput (phase: {phase}) ==");
    let (n, workloads): (u64, &[Workload]) = if opts.smoke {
        (5_000, &[Workload::Shuffled])
    } else {
        (
            200_000,
            &[Workload::Sorted, Workload::Shuffled, Workload::Zipf],
        )
    };
    let mut summary_runs = Vec::new();
    for &wl in workloads {
        let values = workload(wl, n, 42).expect("n > 0");
        for chunk in [1usize, 1024] {
            summary_runs.push(summary_run(
                phase,
                "gk",
                GkSummary::new(0.01),
                wl,
                &values,
                chunk,
            ));
            summary_runs.push(summary_run(
                phase,
                "gk-greedy",
                GreedyGk::new(0.01),
                wl,
                &values,
                chunk,
            ));
        }
    }

    println!("== snapshot/restore overhead (phase: {phase}) ==");
    let (snap_n, rounds) = if opts.smoke {
        (5_000, 5)
    } else {
        (200_000, 50)
    };
    let snap_values = workload(Workload::Shuffled, snap_n, 42).expect("n > 0");
    summary_runs.push(snapshot_run(
        phase,
        "gk",
        GkSummary::new(0.01),
        &snap_values,
        rounds,
    ));
    summary_runs.push(snapshot_run(
        phase,
        "gk-greedy",
        GreedyGk::new(0.01),
        &snap_values,
        rounds,
    ));

    summary_runs.extend(sharded_section(opts.smoke));
    report_sharded_speedup(&summary_runs);

    let adv_path = opts.out_dir.join(ADVERSARY_FILE);
    write_runs(&adv_path, ADVERSARY_SCHEMA, opts.merge, adversary_runs)?;
    write_runs(
        &opts.out_dir.join(SUMMARIES_FILE),
        SUMMARIES_SCHEMA,
        opts.merge,
        summary_runs,
    )?;

    let text = std::fs::read_to_string(&adv_path).map_err(|e| e.to_string())?;
    report_speedups(&parse(&text)?);
    Ok(())
}

fn main() -> ExitCode {
    let opts = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perf_baseline: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perf_baseline: {e}");
            ExitCode::FAILURE
        }
    }
}
