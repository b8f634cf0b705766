//! T1 — Theorem 2.2: the main lower bound, measured.
//!
//! Sweeps ε and k = log₂(εN), running the adversarial construction
//! against banded GK, greedy GK and fixed-seed KLL (a legally
//! derandomized randomized sketch). For every run it reports:
//!
//! * the final gap vs the Lemma 3.4 ceiling 2εN (a correct summary must
//!   stay under it);
//! * the peak item-array size vs Theorem 2.2's bound c·(k+2)/(4ε);
//! * GK's own upper-bound shape (1/ε)·(log₂ εN + 1) for context;
//! * Claim 1 / Lemma 5.2 violations across all 2^k − 1 recursion nodes.
//!
//! Expected shape (the paper's content): stored space grows linearly in
//! k at fixed ε and linearly in 1/ε at fixed k, sandwiched between the
//! lower-bound line and the GK upper-bound line.
//!
//! The grid cells are independent adversary runs, so they fan out over
//! the `cqs_bench::exec` worker pool; rows come back in input order, so
//! the table and its CSV mirror are byte-identical for every `--jobs`.
//!
//! With `--resume <dir>` progress persists to `<dir>/thm22.ckpt` after
//! every cell and a rerun reuses every intact stored result, so a
//! crashed sweep picks up where it left off and still emits the exact
//! CSV an uninterrupted run would (corrupt checkpoints are rejected
//! with typed verdicts and the affected cells replayed). The CI
//! recovery leg injects crashes via `CQS_CRASH_AFTER_CELLS=k` (exit
//! code 86 after k freshly persisted cells).
//!
//! With `--large-n` the grid switches to interval-compressed
//! (`StreamRepr::Implicit`) cells at ε = 1/1024 climbing to
//! N = 1024·2¹⁷ ≈ 1.34×10⁸ — past where the materialized treap's u32
//! per-item arena tops out — and the CSV mirror goes to
//! `results/thm22_large_n_sweep.csv`. `--large-n --smoke` is the single
//! N ≈ 1.34e8 cell the CI crash/resume leg byte-diffs.
//!
//! On exit the process's peak resident set (`VmHWM` from
//! `/proc/self/status`) goes to stderr as `[thm22] peak RSS: <n> kB`, or
//! `[thm22] peak RSS: unmeasured` where `/proc` is absent — never into
//! the CSV, which must stay byte-identical across runs. `./ci.sh
//! --large-n` holds the smoke cell to a ceiling with it.
//!
//! Run: `cargo run -p cqs-bench --release --bin thm22_lower_bound_sweep`
//!      `[-- [--jobs N] [--smoke] [--large-n] [--resume DIR]]`
//! (`--jobs 0` or absent = available parallelism; `--smoke` runs a
//! small CI grid. Set `CQS_RESULTS_DIR` to redirect the CSV mirror.)

use std::path::PathBuf;
use std::process::ExitCode;

use cqs_bench::checkpoint::{crash_policy_from_env, CheckpointConfig, CrashPolicy};
use cqs_bench::emit;
use cqs_bench::exec::{default_jobs, parse_jobs};
use cqs_bench::sweeps::{
    thm22_full_grid, thm22_large_n_grid, thm22_large_n_smoke_grid, thm22_smoke_grid, thm22_sweep,
    thm22_sweep_checkpointed, Thm22Sweep, Thm22SweepRun,
};

fn main() -> ExitCode {
    let mut jobs = default_jobs();
    let mut smoke = false;
    let mut large_n = false;
    let mut resume: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let parsed = match arg.as_str() {
            "--jobs" => match args.next() {
                Some(v) => parse_jobs(&v).map(|j| jobs = j),
                None => Err("--jobs needs a value".into()),
            },
            "--smoke" => {
                smoke = true;
                Ok(())
            }
            "--large-n" => {
                large_n = true;
                Ok(())
            }
            "--resume" => match args.next() {
                Some(dir) => {
                    resume = Some(PathBuf::from(dir));
                    Ok(())
                }
                None => Err("--resume needs a checkpoint directory".into()),
            },
            other => Err(format!("unknown argument: {other}")),
        };
        if let Err(e) = parsed {
            eprintln!("thm22_lower_bound_sweep: {e}");
            return ExitCode::FAILURE;
        }
    }

    let (cells, grid_name) = match (large_n, smoke) {
        // The CI crash/resume leg: one interval-compressed N ≈ 1.34e8
        // cell, cheap enough (in cell count, not wall-clock) to byte-
        // diff a crashed-and-resumed run against an uninterrupted one.
        (true, true) => (thm22_large_n_smoke_grid(), " (large-N smoke cell)"),
        (true, false) => (thm22_large_n_grid(), " (large-N grid)"),
        (false, true) => (thm22_smoke_grid(), " (smoke grid)"),
        (false, false) => (thm22_full_grid(), ""),
    };
    eprintln!(
        "[thm22] {} cells on {} worker(s){}",
        cells.len(),
        jobs,
        grid_name
    );
    let sweep = match resume {
        None => thm22_sweep(&cells, jobs, true),
        Some(dir) => {
            let mut cfg = CheckpointConfig::in_dir(&dir, "thm22");
            cfg.crash = match crash_policy_from_env() {
                Ok(policy) => policy,
                Err(e) => {
                    eprintln!("thm22_lower_bound_sweep: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match run_checkpointed(&cells, jobs, &cfg) {
                Some(sweep) => sweep,
                None => return ExitCode::FAILURE,
            }
        }
    };

    if large_n {
        emit(
            "Theorem 2.2 — large-N sweep (interval-compressed streams, N up to ~1.34e8)",
            &sweep.table,
            "thm22_large_n_sweep.csv",
        );
    } else {
        emit(
            "Theorem 2.2 — lower-bound sweep (space vs c(k+2)/(4eps) on adversarial streams)",
            &sweep.table,
            "thm22_lower_bound_sweep.csv",
        );
    }
    println!(
        "\nevery correct run met the Theorem 2.2 bound: {}",
        if sweep.all_ok {
            "YES"
        } else {
            "NO (investigate!)"
        }
    );
    if !sweep.skipped.is_empty() {
        println!("\nskipped {} config(s):", sweep.skipped.len());
        for s in &sweep.skipped {
            println!("  {s}");
        }
    }
    match peak_rss_kb() {
        Some(kb) => eprintln!("[thm22] peak RSS: {kb} kB"),
        None => eprintln!("[thm22] peak RSS: unmeasured"),
    }
    cqs_bench::exit_status()
}

/// The process's peak resident set in kB (`VmHWM`), where `/proc` has it.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

fn run_checkpointed(
    cells: &[cqs_bench::sweeps::Thm22Cell],
    jobs: usize,
    cfg: &CheckpointConfig,
) -> Option<Thm22Sweep> {
    if let CrashPolicy::Exit(k) = cfg.crash {
        eprintln!("[thm22] crash injection armed: exiting after {k} freshly persisted cells");
    }
    let (run, resume) = thm22_sweep_checkpointed(cells, jobs, true, cfg);
    if resume.reused > 0 {
        eprintln!(
            "[thm22] resumed: {}/{} cells reused from {}",
            resume.reused,
            resume.total,
            cfg.path.display()
        );
    }
    for ev in &resume.events {
        eprintln!("[thm22] recovery: {ev}");
    }
    match run {
        Thm22SweepRun::Complete(sweep) => Some(sweep),
        Thm22SweepRun::Halted { completed } => {
            eprintln!("[thm22] halted after {completed} cells (in-process crash injection)");
            None
        }
    }
}
