//! Rendering a workload's outcome: the human `workload metric value
//! unit` lines, the one-line JSON result, the detailed per-workload
//! record that goes into `results.json`, and the run's provenance.

use std::process::Command;

use cqs_bench::json::Json;

use crate::metrics::{self, quartiles, Outcome};
use crate::Config;

/// Per-operation latency samples beyond this count are summarised, not
/// listed, in `results.json`.
const MAX_LISTED_SAMPLES: usize = 1000;

fn num(x: f64) -> Json {
    Json::Num(if x.is_finite() { x } else { 0.0 })
}

/// The value of every reported metric, in table order; a metric the
/// workload has no value for reads 0.
pub fn reported_values(o: &Outcome, trace: bool) -> Vec<(&'static metrics::MetricDef, f64)> {
    metrics::reported(trace)
        .iter()
        .map(|m| {
            let v = o.values.get(m.name).copied().unwrap_or(0.0);
            (m, if v.is_finite() { v } else { 0.0 })
        })
        .collect()
}

pub fn print_lines(workload: &str, o: &Outcome, trace: bool) {
    for (m, v) in reported_values(o, trace) {
        println!("{workload} {} {v} {}", m.name, m.unit);
    }
    for f in &o.checks.failures {
        println!("{workload} check-failed {f}");
    }
}

/// The last stdout line: `{"correct", "attempted", "failed", "metrics"}`
/// on one line.
pub fn result_line(o: &Outcome, trace: bool) -> String {
    let metrics: Vec<String> = reported_values(o, trace)
        .iter()
        .map(|(m, v)| {
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.checks.failed() == 0,
        o.checks.attempted().max(1),
        o.checks.failed(),
        metrics.join(", ")
    )
}

/// The detailed record of one workload run.
pub fn workload_json(workload: &str, o: &Outcome, trace: bool) -> Json {
    let metrics = reported_values(o, trace)
        .into_iter()
        .map(|(m, v)| {
            let samples = o.samples.get(m.name).map_or(&[][..], Vec::as_slice);
            let (q1, med, q3) = if samples.is_empty() {
                (v, v, v)
            } else {
                quartiles(samples)
            };
            let mut fields = vec![
                ("name".to_string(), Json::Str(m.name.into())),
                ("unit".to_string(), Json::Str(m.unit.into())),
                ("better".to_string(), Json::Str(m.better.as_str().into())),
                ("bound".to_string(), m.bound.map_or(Json::Null, num)),
                ("value".to_string(), num(v)),
                ("n".to_string(), Json::Num(samples.len().max(1) as f64)),
                ("median".to_string(), num(med)),
                ("q1".to_string(), num(q1)),
                ("q3".to_string(), num(q3)),
            ];
            if samples.len() <= MAX_LISTED_SAMPLES {
                let listed = samples.iter().map(|&x| num(x)).collect();
                fields.push(("samples".to_string(), Json::Arr(listed)));
            }
            Json::Obj(fields)
        })
        .collect();
    let checks = o
        .checks
        .counts
        .iter()
        .map(|(name, &(attempted, failed))| {
            (
                name.to_string(),
                Json::Obj(vec![
                    ("attempted".into(), Json::Num(attempted as f64)),
                    ("failed".into(), Json::Num(failed as f64)),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("name".into(), Json::Str(workload.into())),
        ("reps".into(), Json::Num(o.reps as f64)),
        ("run_s".into(), num(o.measured_s)),
        ("correct".into(), Json::Bool(o.checks.failed() == 0)),
        ("attempted".into(), Json::Num(o.checks.attempted() as f64)),
        ("failed".into(), Json::Num(o.checks.failed() as f64)),
        ("checks".into(), Json::Obj(checks)),
        (
            "failures".into(),
            Json::Arr(
                o.checks
                    .failures
                    .iter()
                    .map(|f| Json::Str(f.clone()))
                    .collect(),
            ),
        ),
        ("metrics".into(), Json::Arr(metrics)),
    ])
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("model name")?.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and how the results were produced. `compare` refuses to pair
/// runs whose host or settings differ.
pub fn provenance(cfg: &Config) -> Json {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::Obj(vec![
        (
            "git_rev".into(),
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc".into(), Json::Str(command_line("rustc", &["-V"]))),
        ("cores".into(), Json::Num(cores as f64)),
        ("cpu_model".into(), Json::Str(cpu_model())),
        ("seed".into(), Json::Num(cfg.seed as f64)),
        ("seconds".into(), num(cfg.seconds)),
        ("trace".into(), Json::Bool(cfg.trace)),
        ("smoke".into(), Json::Bool(cfg.smoke)),
    ])
}
