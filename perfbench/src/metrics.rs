//! The metric table, run-level statistics, and the per-workload result.
//!
//! `BENCHMARK.json` lists the same metrics; the smoke test checks that
//! every metric it names is printed with the unit and bound given here.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::trace::Span;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "higher" => Some(Better::Higher),
            "lower" => Some(Better::Lower),
            _ => None,
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression; per-layer metrics have
    /// none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Reported by every workload on an untraced run. The timing bounds are
/// wide because the host's speed drifts by 10–15% over tens of minutes
/// (README.md, "Noise").
pub const END_TO_END: &[MetricDef] = &[
    e2e("items_per_s", "items/s", Higher, 0.2),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.05),
    e2e("stored_peak", "items", Lower, 0.05),
];

/// Reported by every workload on a traced run; a layer the workload
/// does not exercise reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    // Read latencies, measured on the untraced repetitions. They repeat
    // only within 18% (median) and 34% (p99) from run to run, too loose
    // for a regression bound.
    layer("read_us_p50", "us", Lower),
    layer("read_us_p99", "us", Lower),
    layer("ops_failed_frac", "ratio", Lower),
    layer("rank_err_ratio", "ratio", Lower),
    layer("mem.rss_delta_mb", "MB", Lower),
    layer("trace.overhead_frac", "ratio", Lower),
    layer("trace.span_coverage", "ratio", Higher),
    layer("summary.insert_s", "s", Lower),
    layer("summary.insert_frac", "ratio", Lower),
    layer("summary.items_inserted", "items", Lower),
    layer("summary.scan_s", "s", Lower),
    layer("summary.scan_frac", "ratio", Lower),
    layer("summary.items_scanned", "items", Lower),
    layer("summary.query_s", "s", Lower),
    layer("summary.query_frac", "ratio", Lower),
    layer("summary.cmp_per_item", "cmp/item", Lower),
    layer("summary.cmp_per_query", "cmp/query", Lower),
    layer("summary.merge_s", "s", Lower),
    layer("summary.merge_frac", "ratio", Lower),
    layer("summary.merges", "count", Lower),
    layer("summary.clone_s", "s", Lower),
    layer("summary.clone_frac", "ratio", Lower),
    layer("summary.clones", "count", Lower),
    layer("adversary.driver_s", "s", Lower),
    layer("adversary.driver_frac", "ratio", Lower),
    layer("adversary.replay_drift_frac", "ratio", Lower),
    layer("universe.mint_s", "s", Lower),
    layer("universe.mint_frac", "ratio", Lower),
    layer("universe.items_minted", "items", Lower),
    layer("state.index_s", "s", Lower),
    layer("state.index_frac", "ratio", Lower),
    layer("state.runs_indexed", "count", Lower),
    layer("gap.self_s", "s", Lower),
    layer("gap.self_frac", "ratio", Lower),
    layer("gap.calls", "count", Lower),
    layer("refine.self_s", "s", Lower),
    layer("refine.self_frac", "ratio", Lower),
    layer("equiv.self_s", "s", Lower),
    layer("equiv.self_frac", "ratio", Lower),
    layer("equiv.calls", "count", Lower),
    layer("service.handle_s", "s", Lower),
    layer("service.handle_frac", "ratio", Lower),
    layer("service.ingest_s", "s", Lower),
    layer("service.ingest_frac", "ratio", Lower),
    layer("service.ingest_busy_frac", "ratio", Higher),
    layer("service.sort_cmp_per_item", "cmp/item", Lower),
    layer("service.read_s", "s", Lower),
    layer("service.read_frac", "ratio", Lower),
    layer("service.export_s", "s", Lower),
    layer("service.export_frac", "ratio", Lower),
    layer("service.dirty_keys_per_export", "keys", Lower),
    layer("snapshot.encode_s", "s", Lower),
    layer("snapshot.encode_frac", "ratio", Lower),
    layer("snapshot.bytes", "bytes", Lower),
    layer("export_ms_p50", "ms", Lower),
    layer("export_ms_p95", "ms", Lower),
];

/// The metrics a run reports: end-to-end untraced, per-layer traced.
pub fn reported(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, as Python's
/// `statistics.quantiles(xs, n=4)` (its default exclusive method)
/// computes them.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x, x);
    }
    let (n, m) = (4usize, ld + 1);
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    (cut(1), cut(2), cut(3))
}

/// Nearest-rank percentile, `p` in (0, 1].
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Named correctness checks: attempted and failed counts per name, plus
/// the first few failure descriptions.
#[derive(Default)]
pub struct Checks {
    pub counts: BTreeMap<&'static str, (u64, u64)>,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl FnOnce() -> String) {
        let c = self.counts.entry(name).or_default();
        c.0 += 1;
        if !ok {
            c.1 += 1;
            if self.failures.len() < 8 {
                self.failures.push(format!("{name}: {}", detail()));
            }
        }
    }

    pub fn attempted(&self) -> u64 {
        self.counts.values().map(|c| c.0).sum()
    }

    pub fn failed(&self) -> u64 {
        self.counts.values().map(|c| c.1).sum()
    }
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Reported value per metric.
    pub values: BTreeMap<&'static str, f64>,
    /// The samples behind a value: one per timed repetition, or one per
    /// operation for latencies.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    pub checks: Checks,
    /// Timed repetitions.
    pub reps: usize,
    /// Wall time of the timed phase.
    pub measured_s: f64,
    /// Resident memory once set-up finished.
    pub rss_after_setup_mb: f64,
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Records what every workload measures on its untraced
    /// repetitions: per-rep throughput and stored-item peak, and
    /// per-read latencies.
    pub fn set_untraced(&mut self, rates: Vec<f64>, stored: Vec<f64>, read_us: &[f64]) {
        self.set_median("items_per_s", rates);
        self.set_median("stored_peak", stored);
        self.set_percentile("read_us_p50", read_us, 0.50);
        self.set_percentile("read_us_p99", read_us, 0.99);
    }

    /// Records what is measured the same way for every workload, once
    /// it has finished: memory peaks and the failed-check share.
    pub fn finish(&mut self) {
        let peak = proc_status_mb("VmHWM");
        self.values.insert("peak_rss_mb", peak);
        self.values
            .insert("mem.rss_delta_mb", peak - self.rss_after_setup_mb);
        let attempted = self.checks.attempted().max(1) as f64;
        self.values
            .insert("ops_failed_frac", self.checks.failed() as f64 / attempted);
    }

    /// Records `samples` under `name` and reports their median.
    pub fn set_median(&mut self, name: &'static str, samples: Vec<f64>) {
        self.values.insert(name, median(&samples));
        self.samples.insert(name, samples);
    }

    /// Reports, per metric, the median over traced repetitions; each
    /// repetition lists the same metrics in the same order.
    pub fn set_rep_medians(&mut self, per_rep: &[Vec<(&'static str, f64)>]) {
        let Some(first) = per_rep.first() else {
            return;
        };
        for (j, &(name, _)) in first.iter().enumerate() {
            self.set_median(name, per_rep.iter().map(|r| r[j].1).collect());
        }
    }

    /// Records per-operation latencies under `name` and reports their
    /// `p` percentile.
    pub fn set_percentile(&mut self, name: &'static str, samples: &[f64], p: f64) {
        self.values.insert(name, percentile(samples, p));
        self.samples.insert(name, samples.to_vec());
    }
}

/// A `kB` field of `/proc/self/status`, in MB (0 where unavailable).
pub fn proc_status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `make` repeatedly — at least five times, and until a second has
/// gone by or 101 runs are done — keeping only the last result alive at
/// any time. Returns it with every run's duration. Set-up allocates and
/// faults in fresh memory each time, which makes single runs noisy.
pub fn timed_setup<T>(mut make: impl FnMut() -> T) -> (T, Vec<f64>) {
    let begun = Instant::now();
    let mut times = Vec::new();
    let mut kept = None;
    while times.len() < 5 || (begun.elapsed().as_secs_f64() < 1.0 && times.len() < 101) {
        drop(kept.take());
        let t0 = Instant::now();
        kept = Some(make());
        times.push(t0.elapsed().as_secs_f64());
    }
    (kept.expect("setup ran at least once"), times)
}

/// Runs `rep(i)` for i = 0, 1, … until `seconds` have elapsed and at
/// least `min_reps` ran; returns the count and the elapsed wall time.
pub fn repeat(seconds: f64, min_reps: usize, mut rep: impl FnMut(usize)) -> (usize, f64) {
    let begun = Instant::now();
    let mut n = 0;
    while n < min_reps || begun.elapsed().as_secs_f64() < seconds {
        rep(n);
        n += 1;
    }
    (n, begun.elapsed().as_secs_f64())
}

#[cfg(test)]
// The expected values are exact in binary floating point.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 0.5), 50.0);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
