//! `adv-mid` / `adv-implicit`: the Theorem 2.2 construction against
//! banded GK, in the materialized and the interval-compressed stream
//! representation.
//!
//! The timed unit is one `Adversary::new(..).with_stream_repr(..).run(k)`
//! — what `cqs_bench::attack_repr` runs — counting the 2N items fed to
//! the two summary copies. After each run the benchmark reads the
//! attacked π copy on a φ grid; those reads give `read_us_*`.
//!
//! The traced run splits a run two ways. The real `Adversary::run` over
//! [`Traced`] summaries gives the summary's share; a replay of the
//! adversary's recursion from its public building blocks, with a span
//! around each call, splits the rest into label minting, stream
//! indexing, gap scans, refinement and the equivalence check. The replay
//! must reproduce the real report exactly, and its wall time must stay
//! close to the real run's (`adversary.replay_drift_frac`), or the
//! split describes some other computation.

use std::hint::black_box;
use std::time::Instant;

use cqs_core::gap::{GapInfo, GapScratch, TieBreak};
use cqs_core::refine::refine_from;
use cqs_core::spacegap::{claim1_holds, space_gap_holds, space_gap_rhs};
use cqs_core::state::EquivalenceChecker;
use cqs_core::{
    compute_gap_scratch, Adversary, AdversaryOutcome, AdversaryReport, ComparisonSummary, Eps,
    Interval, Item, MaxSpaceTracker, NodeAudit, StreamRepr, StreamState,
};
use cqs_gk::GkSummary;
use cqs_universe::{generate_increasing, generate_increasing_grouped};

use crate::metrics::{self, median, proc_status_mb, repeat, timed_setup, Outcome};
use crate::trace::{self, span, span_with, totals, Traced};
use crate::Config;

/// Seal group of implicit-stream leaf runs; must equal the adversary's
/// `LEAF_SEAL_GROUP` for the replay to mint the same items.
const LEAF_SEAL_GROUP: usize = 32;
/// The adversary's reservation cap (`Adversary::reserve_streams`).
const RESERVE_CAP: u64 = 1 << 21;
/// Quantile reads of the attacked summary after each run.
const READS_PER_REP: usize = 1024;
/// Adversary builds per set-up sample.
const SETUP_BATCH: usize = 4096;

struct Cell {
    eps: Eps,
    k: u32,
    repr: StreamRepr,
    /// The report's `(final_gap, max_stored, max_label_depth)`: the
    /// construction is seed-independent, so they are pinned per cell.
    pins: (u64, usize, usize),
}

fn cell(cfg: &Config, repr: StreamRepr) -> Cell {
    if cfg.smoke {
        Cell {
            eps: Eps::from_inverse(16),
            k: 6,
            repr,
            pins: (114, 60, 10),
        }
    } else {
        Cell {
            eps: Eps::from_inverse(256),
            k: 12,
            repr,
            pins: (8145, 1795, 56),
        }
    }
}

fn gk(eps: Eps) -> GkSummary<Item> {
    GkSummary::new(eps.value())
}

fn adversary<S: ComparisonSummary<Item>>(c: &Cell, make: impl Fn() -> S) -> Adversary<S> {
    Adversary::new(c.eps, make(), make()).with_stream_repr(c.repr)
}

/// One timed run; returns the outcome and its wall time.
fn timed_run<S: ComparisonSummary<Item>>(
    c: &Cell,
    make: impl Fn() -> S,
) -> (AdversaryOutcome<S>, f64) {
    let t0 = Instant::now();
    let out = adversary(c, make).run(c.k);
    (out, t0.elapsed().as_secs_f64())
}

/// Checks one run's report against the construction's guarantees and
/// the cell's pins.
fn check_report(checks: &mut metrics::Checks, rep: &AdversaryReport, pins: (u64, usize, usize)) {
    checks.check("equivalence", rep.equivalence_ok, || {
        "the two summary copies diverged".into()
    });
    checks.check("claim1", rep.claim1_violations == 0, || {
        format!("{} Claim 1 violations", rep.claim1_violations)
    });
    checks.check("gap_ceiling", rep.final_gap <= rep.gap_ceiling, || {
        format!("final gap {} > 2εN = {}", rep.final_gap, rep.gap_ceiling)
    });
    let got = (rep.final_gap, rep.max_stored, rep.max_label_depth);
    checks.check("pins", got == pins, || {
        format!("(final_gap, max_stored, max_label_depth) = {got:?}, pinned {pins:?}")
    });
}

/// Reads the π copy on a φ grid, timing each read; checks every answer
/// against the εN rank budget and returns the worst error over budget.
fn reads<S: ComparisonSummary<Item>>(
    out: &AdversaryOutcome<S>,
    latencies_us: &mut Vec<f64>,
    checks: &mut metrics::Checks,
) -> f64 {
    let n = out.pi.len();
    let budget = out.eps.rank_budget(n).max(1);
    let mut worst = 0u64;
    for i in 0..READS_PER_REP {
        let phi = (i as f64 + 0.5) / READS_PER_REP as f64;
        let t0 = Instant::now();
        let answer = black_box(out.pi.summary.quantile(phi));
        latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let target = ((phi * n as f64).floor() as u64).clamp(1, n);
        match answer {
            Some(item) => worst = worst.max(out.pi.rank_error(&item, target)),
            None => worst = u64::MAX,
        }
    }
    checks.check("read_rank_budget", worst <= budget, || {
        format!("read rank error {worst} > budget {budget}")
    });
    worst as f64 / budget as f64
}

pub fn run(cfg: &Config, repr: StreamRepr) -> Outcome {
    let c = cell(cfg, repr);
    let mut o = Outcome::default();
    // Building an adversary takes well under a microsecond, so each
    // set-up sample times a batch of builds.
    let (_, setup) = timed_setup(|| {
        for _ in 0..SETUP_BATCH {
            black_box(adversary(&c, || gk(c.eps)));
        }
    });
    o.rss_after_setup_mb = proc_status_mb("VmRSS");
    let per_build = setup.iter().map(|s| s / SETUP_BATCH as f64).collect();
    o.set_median("setup_s", per_build);

    // Warm-up: untimed, checked.
    let (warm, _) = timed_run(&c, || gk(c.eps));
    check_report(&mut o.checks, &warm.report(), c.pins);
    drop(warm);

    let items = (2 * c.eps.stream_len(c.k)) as f64;
    let mut rates = Vec::new();
    let mut walls = Vec::new();
    let mut read_lat = Vec::new();
    let mut stored = Vec::new();
    let mut err_ratio = 0f64;
    let (reps, measured_s) = repeat(cfg.untraced_seconds(), 2, |_| {
        let (out, wall) = timed_run(&c, || gk(c.eps));
        walls.push(wall);
        rates.push(items / wall);
        let rep = out.report();
        stored.push(rep.max_stored as f64);
        check_report(&mut o.checks, &rep, c.pins);
        err_ratio = err_ratio.max(reads(&out, &mut read_lat, &mut o.checks));
    });
    o.reps = reps;
    o.measured_s = measured_s;
    o.set_untraced(rates, stored, &read_lat);
    o.values.insert("rank_err_ratio", err_ratio);
    if cfg.trace {
        traced(cfg, &c, median(&walls), &mut o);
    }
    o
}

/// Traced reps: the real run over [`Traced`] summaries, then the replay;
/// per-layer values are medians over reps.
fn traced(cfg: &Config, c: &Cell, untraced_wall: f64, o: &mut Outcome) {
    let make = || Traced(gk(c.eps));
    let mut per_rep = Vec::new();
    repeat(cfg.seconds / 2.0, 1, |i| {
        trace::set_rep(i as u32);
        trace::set_enabled(true);
        let real = span("adversary.run", 0, || adversary(c, make).run(c.k));
        let real_spans = trace::take_spans();
        // Keep only the report, so the replay starts from the same heap
        // state the real run did.
        let (rr, real_audits) = (real.report(), real.audits.clone());
        drop(real);
        let replayed = replay(c, make);
        let replay_spans = trace::take_spans();
        trace::set_enabled(false);

        let pr = replayed.report();
        check_report(&mut o.checks, &rr, c.pins);
        o.checks.check(
            "replay_equals_real",
            rr == pr && real_audits == replayed.audits,
            || format!("replay report {pr:?} != real report {rr:?}"),
        );
        drop(replayed);

        let (real_t, replay_t) = (totals(&real_spans), totals(&replay_spans));
        let (run, rp) = (real_t.get("adversary.run"), replay_t.get("replay"));
        let (ins, scan) = (real_t.get("summary.insert"), real_t.get("summary.scan"));
        let mut v = vec![
            ("trace.overhead_frac", run.total_s / untraced_wall - 1.0),
            ("trace.span_coverage", 1.0 - rp.self_s / rp.total_s),
            (
                "adversary.replay_drift_frac",
                (rp.total_s - run.total_s).abs() / run.total_s,
            ),
            ("summary.insert_s", ins.total_s),
            ("summary.insert_frac", ins.total_s / run.total_s),
            ("summary.items_inserted", ins.units as f64),
            ("summary.scan_s", scan.total_s),
            ("summary.scan_frac", scan.total_s / run.total_s),
            ("summary.items_scanned", scan.units as f64),
            ("adversary.driver_s", run.self_s),
            ("adversary.driver_frac", run.self_s / run.total_s),
        ];
        for (layer, s_name, frac_name, units_name) in [
            (
                "universe.mint",
                "universe.mint_s",
                "universe.mint_frac",
                Some("universe.items_minted"),
            ),
            (
                "state.index",
                "state.index_s",
                "state.index_frac",
                Some("state.runs_indexed"),
            ),
            ("gap", "gap.self_s", "gap.self_frac", Some("gap.calls")),
            ("refine", "refine.self_s", "refine.self_frac", None),
            (
                "equiv",
                "equiv.self_s",
                "equiv.self_frac",
                Some("equiv.calls"),
            ),
        ] {
            let t = replay_t.get(layer);
            v.push((s_name, t.self_s));
            v.push((frac_name, t.self_s / rp.total_s));
            if let Some(units_name) = units_name {
                v.push((units_name, t.units as f64));
            }
        }
        per_rep.push(v);
        o.spans.extend(real_spans);
        o.spans.extend(replay_spans);
    });
    o.set_rep_medians(&per_rep);
}

/// The adversary's recursion (`adv` / `leaf` / `audit_node` in
/// `cqs_core::adversary`), rebuilt from public calls with a span around
/// each layer.
struct Replay<S> {
    pi: StreamState<MaxSpaceTracker<S>>,
    rho: StreamState<MaxSpaceTracker<S>>,
    eps: Eps,
    repr: StreamRepr,
    audits: Vec<NodeAudit>,
    equivalence_error: Option<String>,
    scratch: GapScratch,
    equiv: EquivalenceChecker,
}

fn replay<S: ComparisonSummary<Item>>(c: &Cell, make: impl Fn() -> S) -> AdversaryOutcome<S> {
    span("replay", 0, || {
        // Building and pre-sizing the two stream indexes; units count
        // runs, so this span adds none.
        let mut r = span("state.index", 0, || {
            let tracked = |s| StreamState::with_repr(MaxSpaceTracker::new(s), c.repr);
            let mut r = Replay {
                pi: tracked(make()),
                rho: tracked(make()),
                eps: c.eps,
                repr: c.repr,
                audits: Vec::new(),
                equivalence_error: None,
                scratch: GapScratch::default(),
                equiv: EquivalenceChecker::new(),
            };
            let reserve = c.eps.stream_len(c.k).min(RESERVE_CAP) as usize;
            r.pi.reserve_items(reserve);
            r.rho.reserve_items(reserve);
            r
        });
        let whole = Interval::whole();
        r.adv(c.k, &whole, &whole);
        AdversaryOutcome {
            pi: r.pi,
            rho: r.rho,
            eps: r.eps,
            k: c.k,
            audits: r.audits,
            equivalence_error: r.equivalence_error,
            rank_probe: None,
        }
    })
}

impl<S: ComparisonSummary<Item>> Replay<S> {
    fn adv(&mut self, k: u32, iv_pi: &Interval, iv_rho: &Interval) -> GapInfo {
        let (g_prime, g_dprime) = if k == 1 {
            self.leaf(iv_pi, iv_rho);
            (None, None)
        } else {
            let left = self.adv(k - 1, iv_pi, iv_rho);
            let refined = span("refine", 1, || {
                refine_from(&self.pi, &self.rho, iv_pi, iv_rho, left.clone())
            });
            let right = self.adv(k - 1, &refined.iv_pi, &refined.iv_rho);
            (Some(left.gap), Some(right.gap))
        };
        self.audit_node(k, iv_pi, iv_rho, g_prime, g_dprime)
    }

    fn audit_node(
        &mut self,
        k: u32,
        iv_pi: &Interval,
        iv_rho: &Interval,
        g_prime: Option<u64>,
        g_dprime: Option<u64>,
    ) -> GapInfo {
        let gap_now = span("gap", 1, || {
            compute_gap_scratch(
                &self.pi,
                &self.rho,
                iv_pi,
                iv_rho,
                TieBreak::LowestIndex,
                &mut self.scratch,
            )
        });
        let n_k = self.eps.try_stream_len(k).unwrap_or(u64::MAX);
        let s_k = gap_now.restricted_len;
        let claim1_ok = match (g_prime, g_dprime) {
            (Some(gp), Some(gd)) => claim1_holds(gap_now.gap, gp, gd),
            _ => true,
        };
        self.audits.push(NodeAudit {
            level: k,
            n_k,
            g: gap_now.gap,
            g_prime,
            g_dprime,
            s_k,
            stored_inside: s_k.saturating_sub(2),
            claim1_ok,
            lemma52_ok: space_gap_holds(self.eps, n_k, gap_now.gap, s_k),
            space_gap_rhs: space_gap_rhs(self.eps, n_k, gap_now.gap),
        });
        gap_now
    }

    fn leaf(&mut self, iv_pi: &Interval, iv_rho: &Interval) {
        let n = self.eps.leaf_items() as usize;
        let repr = self.repr;
        let (items_pi, items_rho) = span_with("universe.mint", || {
            let mint = |iv: &Interval| match repr {
                StreamRepr::Materialized => generate_increasing(iv, n),
                StreamRepr::Implicit => generate_increasing_grouped(iv, n, LEAF_SEAL_GROUP),
            };
            if iv_pi == iv_rho {
                let shared = mint(iv_pi);
                ((shared.clone(), shared), n as u64)
            } else {
                ((mint(iv_pi), mint(iv_rho)), 2 * n as u64)
            }
        });
        // Each run is released inside its span, once the index holds it.
        let (pi, rho) = (&mut self.pi, &mut self.rho);
        span("state.index", 1, move || pi.push_run_in(iv_pi, &items_pi));
        span("state.index", 1, move || {
            rho.push_run_in(iv_rho, &items_rho)
        });
        if self.equivalence_error.is_none() {
            let (a, b) = (
                self.pi.summary.stored_count(),
                self.rho.summary.stored_count(),
            );
            if a != b {
                self.equivalence_error = Some(format!("|I| diverged: {a} vs {b}"));
            }
        }
        if self.equivalence_error.is_none() {
            if let Err(e) = span("equiv", 1, || self.equiv.check(&self.pi, &self.rho)) {
                self.equivalence_error = Some(e);
            }
        }
    }
}
