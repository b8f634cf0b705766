//! `perf` — the repository benchmark.
//!
//! ```text
//! perf --workload W --seed S --seconds T --trace 0|1 [--smoke] [--out DIR]
//! perf --seed S --out DIR [--seconds T] [--trace] [--smoke]
//! perf compare --base DIR... --head DIR...
//! ```
//!
//! The first form runs one workload in this process. It prints one
//! `workload metric value unit` line per metric and, as the last line,
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. With `--out` it also leaves its detailed record (and,
//! traced, its spans in `trace.jsonl`) in DIR.
//!
//! The second form runs every workload in turn, each in a fresh child
//! process of this binary, and gathers their records with the run's
//! provenance into `DIR/results.json`. The third compares such
//! directories (see `compare.rs`). README.md describes the workloads
//! and metrics.

mod adversary;
mod compare;
mod ingest;
mod metrics;
mod report;
mod service;
mod trace;

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use cqs_bench::json::{parse, Json};
use cqs_core::StreamRepr;

/// Run-wide settings.
pub struct Config {
    pub seed: u64,
    /// Length of the timed phase of each workload.
    pub seconds: f64,
    /// Report per-layer metrics from traced repetitions instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Tiny inputs for tests: ε = 1/16, k = 6 and short streams.
    pub smoke: bool,
}

impl Config {
    /// Length of the untraced timed phase: the whole run when untraced.
    /// A traced run spends a quarter on it, for the baseline of
    /// `trace.overhead_frac`, and half on traced repetitions.
    pub fn untraced_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 4.0
        } else {
            self.seconds
        }
    }
}

const DEFAULT_SECONDS: f64 = 20.0;

pub const WORKLOADS: &[&str] = &["adv-mid", "adv-implicit", "summary-ingest", "service-mixed"];

fn run_workload(name: &str, cfg: &Config) -> Option<metrics::Outcome> {
    Some(match name {
        "adv-mid" => adversary::run(cfg, StreamRepr::Materialized),
        "adv-implicit" => adversary::run(cfg, StreamRepr::Implicit),
        "summary-ingest" => ingest::run(cfg),
        "service-mixed" => service::run(cfg),
        _ => return None,
    })
}

struct Args {
    workload: Option<String>,
    out: Option<PathBuf>,
    cfg: Config,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        out: None,
        cfg: Config {
            seed: 1,
            seconds: DEFAULT_SECONDS,
            trace: false,
            smoke: false,
        },
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => {
                a.cfg.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.cfg.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--out" => a.out = Some(PathBuf::from(value("--out")?)),
            "--smoke" => a.cfg.smoke = true,
            "--trace" => {
                a.cfg.trace = it
                    .next_if(|v| *v == "0" || *v == "1")
                    .is_none_or(|v| v == "1")
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if !(a.cfg.seconds >= 0.0 && a.cfg.seconds.is_finite()) {
        return Err("--seconds must be a finite number >= 0".into());
    }
    if let Some(w) = a.workload.as_deref().filter(|w| !WORKLOADS.contains(w)) {
        return Err(format!("unknown workload {w:?} (known: {WORKLOADS:?})"));
    }
    Ok(a)
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs one workload in this process.
fn run_one(name: &str, cfg: &Config, out: Option<&Path>) -> Result<(), String> {
    let mut o = run_workload(name, cfg).ok_or(format!("unknown workload {name:?}"))?;
    o.finish();
    report::print_lines(name, &o, cfg.trace);
    if let Some(dir) = out {
        let record = report::workload_json(name, &o, cfg.trace);
        write(&dir.join(format!("{name}.json")), &record.render())?;
        if !o.spans.is_empty() {
            let path = dir.join("trace.jsonl");
            let mut f = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            let mut text = String::new();
            for s in &o.spans {
                text.push_str(&s.to_json_line(name));
                text.push('\n');
            }
            f.write_all(text.as_bytes())
                .and_then(|()| f.flush())
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    println!("{}", report::result_line(&o, cfg.trace));
    Ok(())
}

/// Runs every selected workload in a fresh child process and gathers
/// the records into `DIR/results.json`. Returns whether every workload
/// ran and passed its checks.
fn run_all(a: &Args, dir: &Path) -> Result<bool, String> {
    fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let trace_file = dir.join("trace.jsonl");
    if trace_file.exists() {
        fs::remove_file(&trace_file).map_err(|e| format!("{}: {e}", trace_file.display()))?;
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut records = Vec::new();
    let mut all_ok = true;
    for &w in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w, "--seed", &a.cfg.seed.to_string()])
            .args(["--seconds", &a.cfg.seconds.to_string()])
            .args(["--trace", if a.cfg.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(dir);
        if a.cfg.smoke {
            cmd.arg("--smoke");
        }
        let out = cmd.output().map_err(|e| format!("spawning {w}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for l in lines {
            println!("{l}");
        }
        std::io::stderr()
            .write_all(&out.stderr)
            .map_err(|e| format!("stderr: {e}"))?;
        let Some(result) = parse(last).ok().filter(|_| out.status.success()) else {
            eprintln!("perf: workload {w} failed ({})", out.status);
            all_ok = false;
            continue;
        };
        all_ok &= result.get("correct") == Some(&Json::Bool(true));
        let path = dir.join(format!("{w}.json"));
        let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        records.push(parse(&text).map_err(|e| format!("{}: {e}", path.display()))?);
        fs::remove_file(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let results = Json::Obj(vec![
        ("schema".into(), Json::Str(compare::SCHEMA.into())),
        ("provenance".into(), report::provenance(&a.cfg)),
        ("workloads".into(), Json::Arr(records)),
    ]);
    let path = dir.join("results.json");
    write(&path, &results.render())?;
    println!("[results] {}", path.display());
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&args[1..]);
    }
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (&a.workload, &a.out) {
        (Some(w), out) => run_one(w, &a.cfg, out.as_deref()).map(|()| true),
        (None, Some(dir)) => run_all(&a, dir),
        (None, None) => Err("give --workload W, or --out DIR to run every workload".into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}
