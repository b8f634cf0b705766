//! `perf compare --base DIR... --head DIR...`
//!
//! Compares runs of a parent commit (base) with runs of a change (head),
//! each DIR holding one `results.json`. Runs are paired by seed. For
//! every workload × metric it reports each side's median and quartiles,
//! the fraction of pairs the head won (ties count for neither side),
//! and a verdict:
//!
//! - `improved`: the head won at least nine tenths of the pairs and the
//!   medians differ, in its favour, by more than the base's quartile
//!   spread;
//! - `unresolved`: the run-to-run spread of either side is wider than
//!   the metric's bound and the two sides' ranges overlap;
//! - `regressed`: the head's median is worse than the base's by more
//!   than the bound (per-layer metrics, which have none: the head lost
//!   nine tenths of the pairs by more than the base spread);
//! - `unchanged`: anything else.
//!
//! It refuses to pair runs from different hosts, with different
//! settings, or on different seeds. Exit code: 0, 1 when any metric
//! regressed, 2 on a refusal or unreadable input.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use cqs_bench::json::{parse, Json};

use crate::metrics::{quartiles, Better};

pub const SCHEMA: &str = "cqs-perf/results/v1";

/// One metric value of one run, with how it is judged.
#[derive(Clone, Debug)]
struct Value {
    value: f64,
    unit: String,
    better: Better,
    bound: Option<f64>,
}

/// One `results.json`.
struct Run {
    dir: PathBuf,
    seed: u64,
    /// CPU model and core count.
    host: String,
    /// Everything besides the seed that shapes the numbers.
    settings: String,
    values: BTreeMap<(String, String), Value>,
}

fn field<'a>(j: &'a Json, key: &str, ctx: &str) -> Result<&'a Json, String> {
    j.get(key).ok_or(format!("{ctx}: missing {key:?}"))
}

fn text(j: &Json, key: &str, ctx: &str) -> Result<String, String> {
    match field(j, key, ctx)? {
        Json::Str(s) => Ok(s.clone()),
        Json::Num(x) => Ok(x.to_string()),
        Json::Bool(b) => Ok(b.to_string()),
        _ => Err(format!("{ctx}: {key:?} is not a scalar")),
    }
}

fn load(dir: &Path) -> Result<Run, String> {
    let path = dir.join("results.json");
    let ctx = path.display().to_string();
    let doc = std::fs::read_to_string(&path)
        .map_err(|e| format!("{ctx}: {e}"))
        .and_then(|t| parse(&t).map_err(|e| format!("{ctx}: {e}")))?;
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("{ctx}: not a {SCHEMA} file"));
    }
    let prov = field(&doc, "provenance", &ctx)?;
    let seed = field(prov, "seed", &ctx)?
        .as_f64()
        .ok_or(format!("{ctx}: seed is not a number"))? as u64;
    let host = format!(
        "{} x{}",
        text(prov, "cpu_model", &ctx)?,
        text(prov, "cores", &ctx)?
    );
    let settings = ["seconds", "trace", "smoke", "rustc"]
        .iter()
        .map(|k| Ok(format!("{k}={}", text(prov, k, &ctx)?)))
        .collect::<Result<Vec<_>, String>>()?
        .join(" ");
    let mut values = BTreeMap::new();
    let workloads = field(&doc, "workloads", &ctx)?.as_arr().unwrap_or(&[]);
    for w in workloads {
        let wname = text(w, "name", &ctx)?;
        for m in field(w, "metrics", &ctx)?.as_arr().unwrap_or(&[]) {
            let mname = text(m, "name", &ctx)?;
            let bad = || format!("{ctx}: {wname}/{mname} is malformed");
            let value = Value {
                value: field(m, "value", &ctx)?.as_f64().ok_or_else(bad)?,
                unit: text(m, "unit", &ctx)?,
                better: Better::parse(&text(m, "better", &ctx)?).ok_or_else(bad)?,
                bound: field(m, "bound", &ctx)?.as_f64(),
            };
            values.insert((wname.clone(), mname), value);
        }
    }
    Ok(Run {
        dir: dir.to_path_buf(),
        seed,
        host,
        settings,
        values,
    })
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges paired samples (`base[i]` and `head[i]` share a seed). Returns
/// the fraction of pairs the head won and the verdict.
pub fn judge(base: &[f64], head: &[f64], better: Better, bound: Option<f64>) -> (f64, Verdict) {
    // Positive when the head reads better.
    let gain = |b: f64, h: f64| match better {
        Better::Higher => h - b,
        Better::Lower => b - h,
    };
    let pairs = base.len().min(head.len()).max(1) as f64;
    let share = |sign: f64| {
        let zipped = base.iter().zip(head);
        zipped.filter(|(b, h)| sign * gain(**b, **h) > 0.0).count() as f64 / pairs
    };
    let (won, lost) = (share(1.0), share(-1.0));
    let (bq1, bmed, bq3) = quartiles(base);
    let (hq1, hmed, hq3) = quartiles(head);
    let base_spread = bq3 - bq1;
    let median_gain = gain(bmed, hmed);
    if won >= 0.9 && median_gain > base_spread {
        return (won, Verdict::Improved);
    }
    let verdict = match bound {
        Some(bound) => {
            let rel = |q1: f64, q3: f64, med: f64| (q3 - q1) / med.abs().max(f64::MIN_POSITIVE);
            let spread = rel(bq1, bq3, bmed).max(rel(hq1, hq3, hmed));
            let range = |xs: &[f64]| {
                let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                (lo, hi)
            };
            let ((blo, bhi), (hlo, hhi)) = (range(base), range(head));
            let overlap = blo.max(hlo) <= bhi.min(hhi);
            if spread > bound && overlap {
                Verdict::Unresolved
            } else if -median_gain > bound * bmed.abs() {
                Verdict::Regressed
            } else {
                Verdict::Unchanged
            }
        }
        None if lost >= 0.9 && -median_gain > base_spread => Verdict::Regressed,
        None => Verdict::Unchanged,
    };
    (won, verdict)
}

/// One row of the comparison.
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub base: (f64, f64, f64),
    pub head: (f64, f64, f64),
    pub won: f64,
    pub verdict: Verdict,
}

fn same<T: PartialEq + std::fmt::Display>(
    runs: &[&Run],
    what: &str,
    get: impl Fn(&Run) -> T,
) -> Result<(), String> {
    let first = get(runs[0]);
    for r in &runs[1..] {
        let other = get(r);
        if other != first {
            return Err(format!(
                "refusing to compare: {what} differs ({} has {first}, {} has {other})",
                runs[0].dir.display(),
                r.dir.display()
            ));
        }
    }
    Ok(())
}

fn compare_runs(base: &mut [Run], head: &mut [Run]) -> Result<Vec<Row>, String> {
    if base.is_empty() || head.is_empty() {
        return Err("need at least one --base and one --head directory".into());
    }
    let all: Vec<&Run> = base.iter().chain(head.iter()).collect();
    same(&all, "host", |r| r.host.clone())?;
    same(&all, "settings", |r| r.settings.clone())?;
    base.sort_by_key(|r| r.seed);
    head.sort_by_key(|r| r.seed);
    let seeds = |rs: &[Run]| rs.iter().map(|r| r.seed.to_string()).collect::<Vec<_>>();
    if seeds(base) != seeds(head) {
        return Err(format!(
            "refusing to compare: base seeds [{}] differ from head seeds [{}]",
            seeds(base).join(","),
            seeds(head).join(",")
        ));
    }
    let mut rows = Vec::new();
    for (key, first) in &base[0].values {
        let collect = |rs: &[Run]| {
            rs.iter()
                .map(|r| {
                    r.values.get(key).map(|v| v.value).ok_or(format!(
                        "{}: no {}/{}",
                        r.dir.display(),
                        key.0,
                        key.1
                    ))
                })
                .collect::<Result<Vec<f64>, String>>()
        };
        let (b, h) = (collect(base)?, collect(head)?);
        let (won, verdict) = judge(&b, &h, first.better, first.bound);
        rows.push(Row {
            workload: key.0.clone(),
            metric: key.1.clone(),
            unit: first.unit.clone(),
            base: quartiles(&b),
            head: quartiles(&h),
            won,
            verdict,
        });
    }
    Ok(rows)
}

fn parse_dirs(args: &[String]) -> Result<(Vec<PathBuf>, Vec<PathBuf>), String> {
    let (mut base, mut head) = (Vec::new(), Vec::new());
    let mut side: Option<&mut Vec<PathBuf>> = None;
    for arg in args {
        match arg.as_str() {
            "--base" => side = Some(&mut base),
            "--head" => side = Some(&mut head),
            dir => match side.as_mut() {
                Some(list) => list.push(PathBuf::from(dir)),
                None => return Err(format!("{dir}: expected --base or --head first")),
            },
        }
    }
    Ok((base, head))
}

pub fn main(args: &[String]) -> ExitCode {
    let rows = parse_dirs(args).and_then(|(b, h)| {
        let mut base = b.iter().map(|d| load(d)).collect::<Result<Vec<_>, _>>()?;
        let mut head = h.iter().map(|d| load(d)).collect::<Result<Vec<_>, _>>()?;
        compare_runs(&mut base, &mut head)
    });
    let rows = match rows {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("perf compare: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<15} {:<30} {:>40} {:>40} {:>5}  verdict",
        "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "won"
    );
    let side = |(q1, med, q3): (f64, f64, f64), unit: &str| {
        format!("{med:.4e} [{q1:.4e}, {q3:.4e}] {unit}")
    };
    let mut regressed = false;
    for r in &rows {
        regressed |= r.verdict == Verdict::Regressed;
        println!(
            "{:<15} {:<30} {:>40} {:>40} {:>5.2}  {}",
            r.workload,
            r.metric,
            side(r.base, &r.unit),
            side(r.head, &r.unit),
            r.won,
            r.verdict.as_str()
        );
    }
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(name: &str) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures/compare")
            .join(name)
    }

    fn runs(names: &[&str]) -> Vec<Run> {
        names
            .iter()
            .map(|n| load(&fixture(n)).expect("fixture loads"))
            .collect()
    }

    fn verdicts(rows: &[Row]) -> BTreeMap<&str, (f64, Verdict)> {
        rows.iter()
            .map(|r| (r.metric.as_str(), (r.won, r.verdict)))
            .collect()
    }

    #[test]
    fn fixtures_get_each_verdict() {
        let mut base = runs(&["base-1", "base-2", "base-3"]);
        let mut head = runs(&["head-3", "head-1", "head-2"]);
        let rows = compare_runs(&mut base, &mut head).expect("comparable");
        let v = verdicts(&rows);
        assert_eq!(v["items_per_s"], (1.0, Verdict::Improved));
        assert_eq!(v["read_us_p50"], (0.0, Verdict::Regressed));
        assert_eq!(v["read_us_p99"].1, Verdict::Unresolved);
        assert_eq!(v["stored_peak"], (0.0, Verdict::Unchanged));
        assert_eq!(v["summary.merges"].1, Verdict::Regressed);
        assert!(rows.iter().all(|r| r.workload == "adv-mid"));
    }

    #[test]
    fn refuses_other_hosts_seeds_and_settings() {
        for (odd, why) in [
            ("other-host", "host"),
            ("other-seed", "seeds"),
            ("other-settings", "settings"),
        ] {
            let mut base = runs(&["base-1", "base-2", "base-3"]);
            let mut head = runs(&["head-1", "head-2", odd]);
            let err = compare_runs(&mut base, &mut head)
                .err()
                .unwrap_or_else(|| panic!("{odd} was accepted"));
            assert!(err.contains(why), "{odd}: {err}");
        }
    }

    #[test]
    fn judge_counts_ties_for_neither_side() {
        let (won, v) = judge(&[100.0, 101.0], &[100.0, 101.0], Better::Higher, Some(0.1));
        assert_eq!((won, v), (0.0, Verdict::Unchanged));
        // The same ties with a spread wider than the bound stay open.
        let (_, v) = judge(&[1.0, 2.0], &[1.0, 2.0], Better::Higher, Some(0.1));
        assert_eq!(v, Verdict::Unresolved);
    }
}
