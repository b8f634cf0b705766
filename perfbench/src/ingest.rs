//! `summary-ingest`: per-item GK inserts of a shuffled `u64` stream,
//! with a φ-grid quantile sweep every block.
//!
//! The summary layer runs alone here, on `u64` items, with a working set
//! (about 1.5k tuples at ε = 0.001) that fits in cache — so a change to
//! GK's insert or query path shows strongly, and this is the only
//! workload on the per-item insert path. Each sweep's answers are
//! checked afterwards against exact prefix ranks from a Fenwick tree
//! allocated in set-up.

use std::hint::black_box;
use std::time::Instant;

use cqs_core::ComparisonSummary;
use cqs_gk::GkSummary;
use cqs_service::DEFAULT_PHI_GRID;
use cqs_streams::{workload, Workload};

use crate::metrics::{median, proc_status_mb, repeat, timed_setup, Checks, Outcome};
use crate::trace::{self, span, totals, Counted};
use crate::Config;

struct Params {
    n: u64,
    eps: f64,
    block: usize,
}

fn params(cfg: &Config) -> Params {
    if cfg.smoke {
        Params {
            n: 1 << 14,
            eps: 0.01,
            block: 1 << 10,
        }
    } else {
        Params {
            n: 1 << 22,
            eps: 0.001,
            block: 1 << 14,
        }
    }
}

struct Input {
    /// A permutation of 1..=n.
    values: Vec<u64>,
    /// Fenwick tree over 1..=n for the exact prefix ranks.
    fenwick: Vec<u32>,
}

fn setup(p: &Params, seed: u64) -> Input {
    let values = workload(Workload::Shuffled, p.n, seed).expect("n > 0");
    // Written, not just allocated, so its pages count as set-up memory.
    let fenwick = (0..=p.n).map(|_| black_box(0u32)).collect();
    Input { values, fenwick }
}

/// One sweep's answers: the prefix length and the answer per φ.
struct Sweep {
    prefix: u64,
    answers: Vec<Option<u64>>,
}

struct RepResult {
    wall_s: f64,
    peak_stored: usize,
    sweeps: Vec<Sweep>,
}

/// One repetition over items of type `T`; `wrap`/`unwrap` convert from
/// and to the `u64` stream values.
fn rep<T: Ord + Clone>(
    p: &Params,
    values: &[u64],
    wrap: impl Fn(u64) -> T,
    unwrap: impl Fn(&T) -> u64,
    latencies_us: &mut Vec<f64>,
) -> RepResult {
    let mut s = GkSummary::<T>::new(p.eps);
    let mut peak_stored = 0usize;
    let mut sweeps = Vec::with_capacity(values.len() / p.block);
    let t0 = Instant::now();
    for (b, block) in values.chunks(p.block).enumerate() {
        span("summary.insert", block.len() as u64, || {
            for &v in block {
                s.insert(wrap(v));
                peak_stored = peak_stored.max(s.stored_count());
            }
        });
        let answers = span("summary.query", DEFAULT_PHI_GRID.len() as u64, || {
            DEFAULT_PHI_GRID
                .iter()
                .map(|&phi| {
                    let q0 = Instant::now();
                    let a = black_box(s.quantile(phi));
                    latencies_us.push(q0.elapsed().as_secs_f64() * 1e6);
                    a.as_ref().map(&unwrap)
                })
                .collect()
        });
        sweeps.push(Sweep {
            prefix: (b * p.block + block.len()) as u64,
            answers,
        });
    }
    RepResult {
        wall_s: t0.elapsed().as_secs_f64(),
        peak_stored,
        sweeps,
    }
}

/// Checks every sweep answer against its exact rank in the stream
/// prefix; returns the worst error as a share of the ⌊εm⌋ budget.
fn check(p: &Params, input: &mut Input, r: &RepResult, checks: &mut Checks) -> f64 {
    let fen = &mut input.fenwick;
    fen.iter_mut().for_each(|c| *c = 0);
    let n = fen.len() - 1;
    let mut fed = 0usize;
    let mut worst = 0f64;
    for sweep in &r.sweeps {
        for &v in &input.values[fed..sweep.prefix as usize] {
            let mut i = v as usize;
            while i <= n {
                fen[i] += 1;
                i += i & i.wrapping_neg();
            }
        }
        fed = sweep.prefix as usize;
        let m = sweep.prefix;
        let budget = ((p.eps * m as f64).floor() as u64).max(1);
        for (&phi, answer) in DEFAULT_PHI_GRID.iter().zip(&sweep.answers) {
            let target = ((phi * m as f64).floor() as u64).clamp(1, m);
            let err = match *answer {
                Some(v) => {
                    let (mut rank, mut i) = (0u64, v as usize);
                    while i > 0 {
                        rank += u64::from(fen[i]);
                        i &= i - 1;
                    }
                    rank.abs_diff(target)
                }
                None => u64::MAX,
            };
            checks.check("rank_budget", err <= budget, || {
                format!("prefix {m}, phi {phi}: rank error {err} > budget {budget}")
            });
            worst = worst.max(err as f64 / budget as f64);
        }
    }
    worst
}

pub fn run(cfg: &Config) -> Outcome {
    let p = params(cfg);
    let mut o = Outcome::default();
    let (mut input, setup) = timed_setup(|| setup(&p, cfg.seed));
    o.rss_after_setup_mb = proc_status_mb("VmRSS");
    o.set_median("setup_s", setup);

    let mut lat = Vec::new();
    let warm = rep(&p, &input.values, |v| v, |v| *v, &mut lat);
    let mut err_ratio = check(&p, &mut input, &warm, &mut o.checks);
    lat.clear();

    let mut rates = Vec::new();
    let mut walls = Vec::new();
    let mut stored = Vec::new();
    let (reps, measured_s) = repeat(cfg.untraced_seconds(), 2, |_| {
        let r = rep(&p, &input.values, |v| v, |v| *v, &mut lat);
        walls.push(r.wall_s);
        rates.push(p.n as f64 / r.wall_s);
        stored.push(r.peak_stored as f64);
        err_ratio = err_ratio.max(check(&p, &mut input, &r, &mut o.checks));
    });
    o.reps = reps;
    o.measured_s = measured_s;
    o.set_untraced(rates, stored, &lat);
    if cfg.trace {
        err_ratio = err_ratio.max(traced(cfg, &p, &mut input, median(&walls), &mut o));
    }
    o.values.insert("rank_err_ratio", err_ratio);
    o
}

/// Traced reps, then one counted rep over comparison-counting items.
/// Returns the worst rank-error ratio they saw.
fn traced(cfg: &Config, p: &Params, input: &mut Input, untraced_wall: f64, o: &mut Outcome) -> f64 {
    let mut err_ratio = 0f64;
    let mut per_rep = Vec::new();
    trace::set_enabled(true);
    repeat(cfg.seconds / 2.0, 1, |i| {
        trace::set_rep(i as u32);
        let r = span("rep", 0, || {
            rep(p, &input.values, |v| v, |v| *v, &mut Vec::new())
        });
        let spans = trace::take_spans();
        err_ratio = err_ratio.max(check(p, input, &r, &mut o.checks));
        let t = totals(&spans);
        let (root, ins, q) = (
            t.get("rep"),
            t.get("summary.insert"),
            t.get("summary.query"),
        );
        per_rep.push(vec![
            ("trace.overhead_frac", root.total_s / untraced_wall - 1.0),
            ("trace.span_coverage", 1.0 - root.self_s / root.total_s),
            ("summary.insert_s", ins.self_s),
            ("summary.insert_frac", ins.self_s / root.total_s),
            ("summary.items_inserted", ins.units as f64),
            ("summary.query_s", q.self_s),
            ("summary.query_frac", q.self_s / root.total_s),
        ]);
        o.spans.extend(spans);
    });
    o.set_rep_medians(&per_rep);

    let r = rep(p, &input.values, Counted, |c| c.0, &mut Vec::new());
    let spans = trace::take_spans();
    trace::set_enabled(false);
    err_ratio = err_ratio.max(check(p, input, &r, &mut o.checks));
    let t = totals(&spans);
    let (ins, q) = (t.get("summary.insert"), t.get("summary.query"));
    o.values
        .insert("summary.cmp_per_item", ins.cmps as f64 / ins.units as f64);
    o.values
        .insert("summary.cmp_per_query", q.cmps as f64 / q.units as f64);
    err_ratio
}
