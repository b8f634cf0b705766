//! Smoke test of the `perf` benchmark: tiny inputs (ε = 1/16, k = 6,
//! short streams), every workload, untraced and traced, twice each.

// Deterministic metrics must repeat bit for bit.
#![allow(clippy::float_cmp)]

use std::path::{Path, PathBuf};
use std::process::Command;

use cqs_bench::json::{parse, Json};

const WORKLOADS: [&str; 4] = ["adv-mid", "adv-implicit", "summary-ingest", "service-mixed"];

/// Metrics that must read the same on two runs of one seed.
const DETERMINISTIC: [&str; 15] = [
    "stored_peak",
    "rank_err_ratio",
    "summary.items_inserted",
    "summary.items_scanned",
    "summary.cmp_per_item",
    "summary.cmp_per_query",
    "summary.merges",
    "summary.clones",
    "universe.items_minted",
    "state.runs_indexed",
    "gap.calls",
    "equiv.calls",
    "service.sort_cmp_per_item",
    "service.dirty_keys_per_export",
    "snapshot.bytes",
];

struct Run {
    stdout: String,
    results: Json,
}

fn smoke(dir: &Path, trace: bool) -> Run {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perf"));
    cmd.args(["--smoke", "--seed", "1", "--seconds", "0", "--out"])
        .arg(dir);
    if trace {
        cmd.arg("--trace");
    }
    let out = cmd.output().expect("perf runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "perf failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(dir.join("results.json")).expect("results.json written");
    Run {
        stdout,
        results: parse(&text).expect("results.json parses"),
    }
}

fn workload<'a>(run: &'a Run, name: &str) -> &'a Json {
    run.results
        .get("workloads")
        .and_then(Json::as_arr)
        .and_then(|ws| {
            ws.iter()
                .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
        })
        .unwrap_or_else(|| panic!("no {name} record"))
}

fn metric<'a>(run: &'a Run, w: &str, m: &str) -> &'a Json {
    workload(run, w)
        .get("metrics")
        .and_then(Json::as_arr)
        .and_then(|ms| {
            ms.iter()
                .find(|x| x.get("name").and_then(Json::as_str) == Some(m))
        })
        .unwrap_or_else(|| panic!("{w}: no {m} metric"))
}

fn value(run: &Run, w: &str, m: &str) -> f64 {
    metric(run, w, m)
        .get("value")
        .and_then(Json::as_f64)
        .expect("numeric value")
}

/// Asserts `stdout` has a `workload metric value unit` line.
fn assert_printed(stdout: &str, w: &str, name: &str, unit: &str) {
    let printed = stdout.lines().any(|l| {
        let f: Vec<&str> = l.split(' ').collect();
        f.len() == 4 && f[0] == w && f[1] == name && f[2].parse::<f64>().is_ok() && f[3] == unit
    });
    assert!(printed, "no `{w} {name} <value> {unit}` line in:\n{stdout}");
}

#[test]
fn smoke_runs_report_every_benchmark_metric_and_pass_their_checks() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    let bench =
        parse(&std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
    let names: Vec<&str> = bench
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(names, WORKLOADS);

    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perf-smoke");
    let runs = [
        smoke(&tmp.join("e2e-a"), false),
        smoke(&tmp.join("e2e-b"), false),
        smoke(&tmp.join("trace-a"), true),
        smoke(&tmp.join("trace-b"), true),
    ];

    for (section, run) in [("end_to_end", &runs[0]), ("per_layer", &runs[2])] {
        let defs = bench.get(section).and_then(Json::as_arr).expect(section);
        for w in WORKLOADS {
            for def in defs {
                let name = def.get("name").and_then(Json::as_str).expect("name");
                let unit = def.get("unit").and_then(Json::as_str).expect("unit");
                assert_printed(&run.stdout, w, name, unit);
                let m = metric(run, w, name);
                assert_eq!(m.get("unit"), def.get("unit"), "{w} {name}");
                assert_eq!(m.get("better"), def.get("better"), "{w} {name}");
                let bound = def.get("bound").cloned().unwrap_or(Json::Null);
                assert_eq!(m.get("bound"), Some(&bound), "{w} {name}");
            }
        }
    }

    for run in &runs {
        for w in WORKLOADS {
            let rec = workload(run, w);
            assert_eq!(rec.get("failed"), Some(&Json::Num(0.0)), "{w}: {rec:?}");
            assert_eq!(rec.get("correct"), Some(&Json::Bool(true)), "{w}");
        }
    }

    let trace = &runs[2];
    for w in WORKLOADS {
        assert_eq!(value(trace, w, "ops_failed_frac"), 0.0, "{w}");
        let coverage = value(trace, w, "trace.span_coverage");
        assert!(coverage >= 0.95, "{w}: span coverage {coverage}");
        for (a, b) in [(&runs[0], &runs[1]), (&runs[2], &runs[3])] {
            for m in DETERMINISTIC {
                let present = |r: &Run| {
                    workload(r, w)
                        .get("metrics")
                        .and_then(Json::as_arr)
                        .is_some_and(|ms| {
                            ms.iter()
                                .any(|x| x.get("name").and_then(Json::as_str) == Some(m))
                        })
                };
                if present(a) {
                    assert_eq!(
                        value(a, w, m),
                        value(b, w, m),
                        "{w} {m} differs across seed-1 runs"
                    );
                }
            }
        }
    }

    // The replay of the adversary's recursion reproduced the real report
    // on every traced repetition, in both stream representations.
    for w in ["adv-mid", "adv-implicit"] {
        let check = workload(trace, w)
            .get("checks")
            .and_then(|c| c.get("replay_equals_real"))
            .expect("replay check recorded");
        let attempted = check.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
        assert!(attempted >= 1.0, "{w}: replay never checked");
        assert_eq!(check.get("failed"), Some(&Json::Num(0.0)), "{w}");
    }
}
