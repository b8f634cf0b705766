//! `service-mixed`: the sharded registry under skewed multi-key ingest,
//! with point reads and a full export after every round.
//!
//! Each round groups its batches by key, resolves each key's handle and
//! feeds the group through `parallel_ingest` on one thread. It then reads a few random
//! keys through their handles — the first read of a key written since
//! its last fold refolds it, later reads hit the fold cache — and ends
//! with `export_quantiles` plus the QSVC encode. Key choice is Zipf-like,
//! so hot keys refold every round while cold ones stay cached, and the
//! 64 keys × 8 shards of GK state exceed L2.
//!
//! The exports are checked after the timed pass: every QSVC encoding
//! must decode to its export, and the final export must answer within
//! each key's composed-ε budget against exact per-key ranks from set-up.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use cqs_core::rng::SplitMix64;
use cqs_core::{ComparisonSummary, MergeError, MergeableSummary};
use cqs_gk::GkSummary;
use cqs_service::{
    parallel_ingest, QuantileExport, QuantileRegistry, ServiceConfig, DEFAULT_PHI_GRID,
};
use cqs_snapshot::{SnapshotRead, SnapshotWrite};
use cqs_streams::{workload, Workload};

use crate::metrics::{median, proc_status_mb, repeat, timed_setup, Checks, Outcome};
use crate::trace::{self, span, totals, Counted, Traced};
use crate::Config;

const SHARDS: usize = 8;
const STRIPES: usize = 16;
/// Keys read after each round's ingest.
const READ_KEYS: usize = 4;
/// Ingest threads. `parallel_ingest` spawns its workers afresh for every
/// key group, about two thousand times a pass; on a host with two shared
/// cores that timed the scheduler and spread `items_per_s` by 15–21%
/// between runs of the same code. One thread ingests inline, and the
/// export bytes are the same for any thread count.
const INGEST_THREADS: usize = 1;

struct Params {
    n: u64,
    batch: usize,
    keys: usize,
    round_batches: usize,
    eps: f64,
}

fn params(cfg: &Config) -> Params {
    if cfg.smoke {
        Params {
            n: 1 << 15,
            batch: 64,
            keys: 8,
            round_batches: 64,
            eps: 0.01,
        }
    } else {
        Params {
            n: 1 << 23,
            batch: 1024,
            keys: 64,
            round_batches: 256,
            eps: 0.001,
        }
    }
}

/// One round of ingest: batches grouped per key index, plus the keys
/// read afterwards.
struct Round {
    groups: Vec<(usize, Vec<Vec<u64>>)>,
    reads: Vec<usize>,
}

struct Input {
    names: Vec<String>,
    rounds: Vec<Round>,
    /// Every value recorded under each key, sorted: exact ranks for the
    /// final export.
    truth: Vec<Vec<u64>>,
}

fn setup(p: &Params, seed: u64) -> Input {
    let values = workload(Workload::Shuffled, p.n, seed).expect("n > 0");
    let mut rng = SplitMix64::new(seed);
    // Key i is chosen with weight 1/(i+1).
    let mut cdf: Vec<f64> = (0..p.keys).map(|i| 1.0 / (i + 1) as f64).collect();
    let total: f64 = cdf.iter().sum();
    let mut acc = 0.0;
    for w in &mut cdf {
        acc += *w / total;
        *w = acc;
    }
    let mut truth = vec![Vec::new(); p.keys];
    let mut rounds = Vec::new();
    for round in values.chunks(p.batch * p.round_batches) {
        let mut groups: BTreeMap<usize, Vec<Vec<u64>>> = BTreeMap::new();
        for batch in round.chunks(p.batch) {
            let u = rng.next_f64();
            let key = cdf.partition_point(|&c| c < u).min(p.keys - 1);
            truth[key].extend_from_slice(batch);
            groups.entry(key).or_default().push(batch.to_vec());
        }
        let reads = (0..READ_KEYS).map(|_| rng.index(p.keys)).collect();
        rounds.push(Round {
            groups: groups.into_iter().collect(),
            reads,
        });
    }
    for t in &mut truth {
        t.sort_unstable();
    }
    Input {
        names: (0..p.keys).map(|i| format!("key{i:02}")).collect(),
        rounds,
        truth,
    }
}

fn registry<T, S>(make: impl Fn() -> S + Send + Sync + 'static) -> QuantileRegistry<T, S>
where
    T: Ord + Clone,
    S: ComparisonSummary<T>,
{
    let config = ServiceConfig {
        shards: SHARDS,
        stripes: STRIPES,
        fold_cadence: u64::MAX,
    };
    QuantileRegistry::new(config, make)
}

struct PassResult {
    wall_s: f64,
    exports: Vec<(QuantileExport<u64>, Vec<u8>)>,
    merge_errors: Vec<MergeError>,
    /// Σ stored items over the keys' folded summaries after the pass.
    stored: usize,
}

/// One timed pass over all rounds on a fresh registry.
fn pass<S>(
    p: &Params,
    input: &Input,
    make: impl Fn() -> S + Send + Sync + 'static,
    read_us: &mut Vec<f64>,
    export_ms: &mut Vec<f64>,
) -> PassResult
where
    S: MergeableSummary<u64> + Clone + Send,
{
    let reg = registry(make);
    let mut exports = Vec::with_capacity(input.rounds.len());
    let mut merge_errors = Vec::new();
    let t0 = Instant::now();
    for round in &input.rounds {
        for (key, batches) in &round.groups {
            let h = span("service.handle", 1, || reg.handle(&input.names[*key]));
            let items = (batches.len() * p.batch) as u64;
            span("service.ingest", items, || {
                parallel_ingest(&h, batches, INGEST_THREADS)
            });
        }
        for &key in &round.reads {
            for &phi in &DEFAULT_PHI_GRID {
                let q0 = Instant::now();
                let read = span("service.read", 1, || {
                    reg.handle(&input.names[key]).quantile(phi)
                });
                read_us.push(q0.elapsed().as_secs_f64() * 1e6);
                if let Err(e) = black_box(read) {
                    merge_errors.push(e);
                }
            }
        }
        let e0 = Instant::now();
        match span("service.export", 1, || {
            reg.export_quantiles(&DEFAULT_PHI_GRID)
        }) {
            Ok(export) => {
                let bytes = trace::span_with("snapshot.encode", || {
                    let b = export.to_snapshot_bytes();
                    let len = b.len() as u64;
                    (b, len)
                });
                export_ms.push(e0.elapsed().as_secs_f64() * 1e3);
                exports.push((export, bytes));
            }
            Err(e) => merge_errors.push(e),
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let mut stored = 0;
    for name in &input.names {
        match reg.folded(name) {
            Ok(s) => stored += s.map_or(0, |s| s.stored_count()),
            Err(e) => merge_errors.push(e),
        }
    }
    PassResult {
        wall_s,
        exports,
        merge_errors,
        stored,
    }
}

/// Checks a pass: no merge refusals, every encoding decodes to its
/// export, and the final export is within each key's composed-ε budget.
/// Returns the worst rank error as a share of its budget.
fn check(input: &Input, r: &PassResult, checks: &mut Checks) -> f64 {
    checks.check("merge", r.merge_errors.is_empty(), || {
        format!(
            "{} merge refusals, first: {}",
            r.merge_errors.len(),
            r.merge_errors[0]
        )
    });
    for (export, bytes) in &r.exports {
        let decoded = QuantileExport::<u64>::from_snapshot_bytes(bytes);
        checks.check("qsvc_roundtrip", decoded.as_ref() == Ok(export), || {
            "QSVC decode differs from the export".into()
        });
    }
    let mut worst = 0f64;
    let Some((last, _)) = r.exports.last() else {
        checks.check("final_export", false, || "no export completed".into());
        return worst;
    };
    for row in &last.keys {
        let Some(truth) = input
            .names
            .iter()
            .position(|name| *name == row.key)
            .and_then(|k| input.truth.get(k))
        else {
            checks.check("final_export_keys", false, || {
                format!("unknown key {} in the export", row.key)
            });
            continue;
        };
        let n = truth.len() as u64;
        checks.check("final_export_n", row.n == n, || {
            format!("{}: exported n {} != recorded {n}", row.key, row.n)
        });
        if n == 0 {
            continue;
        }
        let eps = row.eps_bound.unwrap_or(0.0);
        let budget = ((eps * n as f64).floor() as u64).max(1);
        for (&phi, value) in DEFAULT_PHI_GRID.iter().zip(&row.values) {
            let target = ((phi * n as f64).floor() as u64).clamp(1, n);
            let err = value.map_or(u64::MAX, |v| {
                (truth.partition_point(|&x| x <= v) as u64).abs_diff(target)
            });
            checks.check("rank_budget", err <= budget, || {
                format!("{} phi {phi}: rank error {err} > budget {budget}", row.key)
            });
            worst = worst.max(err as f64 / budget as f64);
        }
    }
    worst
}

pub fn run(cfg: &Config) -> Outcome {
    let p = params(cfg);
    let eps = p.eps;
    let gk = move || GkSummary::<u64>::new(eps);
    let mut o = Outcome::default();
    let (input, setup) = timed_setup(|| setup(&p, cfg.seed));
    o.rss_after_setup_mb = proc_status_mb("VmRSS");
    o.set_median("setup_s", setup);

    let (mut read_us, mut export_ms) = (Vec::new(), Vec::new());
    let warm = pass(&p, &input, gk, &mut read_us, &mut export_ms);
    let mut err_ratio = check(&input, &warm, &mut o.checks);
    drop(warm);
    read_us.clear();
    export_ms.clear();

    let mut rates = Vec::new();
    let mut walls = Vec::new();
    let mut stored = Vec::new();
    let (reps, measured_s) = repeat(cfg.untraced_seconds(), 2, |_| {
        let r = pass(&p, &input, gk, &mut read_us, &mut export_ms);
        walls.push(r.wall_s);
        rates.push(p.n as f64 / r.wall_s);
        stored.push(r.stored as f64);
        err_ratio = err_ratio.max(check(&input, &r, &mut o.checks));
    });
    o.reps = reps;
    o.measured_s = measured_s;
    o.set_untraced(rates, stored, &read_us);
    o.set_percentile("export_ms_p50", &export_ms, 0.50);
    o.set_percentile("export_ms_p95", &export_ms, 0.95);
    if cfg.trace {
        err_ratio = err_ratio.max(traced(cfg, &p, &input, median(&walls), &mut o));
    }
    o.values.insert("rank_err_ratio", err_ratio);
    o
}

/// Traced passes over [`Traced`] shards, then one counted ingest over
/// comparison-counting items. Returns the worst rank-error ratio seen.
fn traced(cfg: &Config, p: &Params, input: &Input, untraced_wall: f64, o: &mut Outcome) -> f64 {
    let eps = p.eps;
    let threads = INGEST_THREADS as f64;
    let mut err_ratio = 0f64;
    let mut per_rep = Vec::new();
    trace::set_enabled(true);
    repeat(cfg.seconds / 2.0, 1, |i| {
        trace::set_rep(i as u32);
        let make = move || Traced(GkSummary::<u64>::new(eps));
        let r = span("rep", 0, || {
            pass(p, input, make, &mut Vec::new(), &mut Vec::new())
        });
        let spans = trace::take_spans();
        err_ratio = err_ratio.max(check(input, &r, &mut o.checks));
        let t = totals(&spans);
        let root = t.get("rep");
        let wall = root.total_s;
        let exports = r.exports.len() as f64;
        // An export clones each non-empty key's cached fold once, and
        // once more for every key it has to refold.
        let export_ids: Vec<u64> = spans
            .iter()
            .filter(|s| s.name == "service.export")
            .map(|s| s.id)
            .collect();
        let export_clones = spans
            .iter()
            .filter(|s| s.name == "summary.clone" && export_ids.contains(&s.parent))
            .count();
        let nonempty_rows: usize = r
            .exports
            .iter()
            .map(|(e, _)| e.keys.iter().filter(|row| row.n > 0).count())
            .sum();
        let (ingest, insert) = (t.get("service.ingest"), t.get("summary.insert"));
        let mut v = vec![
            ("trace.overhead_frac", wall / untraced_wall - 1.0),
            ("trace.span_coverage", 1.0 - root.self_s / wall),
            // Ingest's wall time, and the summed thread time of its
            // inserts.
            ("service.ingest_s", ingest.total_s),
            ("service.ingest_frac", ingest.total_s / wall),
            (
                "service.ingest_busy_frac",
                insert.total_s / (ingest.total_s * threads),
            ),
            ("summary.insert_s", insert.total_s),
            ("summary.insert_frac", insert.total_s / wall),
            ("summary.items_inserted", insert.units as f64),
            ("summary.merges", t.get("summary.merge").count as f64),
            ("summary.clones", t.get("summary.clone").count as f64),
            (
                "snapshot.bytes",
                t.get("snapshot.encode").units as f64 / exports,
            ),
            (
                "service.dirty_keys_per_export",
                export_clones.saturating_sub(nonempty_rows) as f64 / exports,
            ),
        ];
        for (layer, s_name, frac_name) in [
            ("service.handle", "service.handle_s", "service.handle_frac"),
            ("service.read", "service.read_s", "service.read_frac"),
            ("service.export", "service.export_s", "service.export_frac"),
            ("summary.merge", "summary.merge_s", "summary.merge_frac"),
            ("summary.clone", "summary.clone_s", "summary.clone_frac"),
            ("summary.query", "summary.query_s", "summary.query_frac"),
            (
                "snapshot.encode",
                "snapshot.encode_s",
                "snapshot.encode_frac",
            ),
        ] {
            let self_s = t.get(layer).self_s;
            v.push((s_name, self_s));
            v.push((frac_name, self_s / wall));
        }
        per_rep.push(v);
        o.spans.extend(spans);
    });
    o.set_rep_medians(&per_rep);

    // Counted pass: ingest only, on one thread, so each span's comparison
    // count covers exactly the work nested in it.
    let reg = registry(move || Traced(GkSummary::<Counted>::new(eps)));
    for round in &input.rounds {
        for (key, batches) in &round.groups {
            let h = reg.handle(&input.names[*key]);
            let counted: Vec<Vec<Counted>> = batches
                .iter()
                .map(|b| b.iter().copied().map(Counted).collect())
                .collect();
            span("service.ingest", 0, || parallel_ingest(&h, &counted, 1));
        }
    }
    let spans = trace::take_spans();
    trace::set_enabled(false);
    let t = totals(&spans);
    let (ingest, insert) = (t.get("service.ingest"), t.get("summary.insert"));
    let n = p.n as f64;
    o.values
        .insert("summary.cmp_per_item", insert.cmps as f64 / n);
    o.values.insert(
        "service.sort_cmp_per_item",
        (ingest.cmps - insert.cmps) as f64 / n,
    );
    err_ratio
}
