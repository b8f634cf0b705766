//! # cqs-bench — experiment harness
//!
//! Shared plumbing for the experiment binaries (`src/bin/*.rs`), one per
//! figure/theorem of the paper (see DESIGN.md's per-experiment index).
//!
//! Every binary prints an aligned table and mirrors it to
//! `results/<experiment>.csv` at the workspace root, so
//! EXPERIMENTS.md's numbers are regenerable with
//! `cargo run -p cqs-bench --release --bin <name>`.

pub mod checkpoint;
pub mod exec;
pub mod json;
pub mod sweeps;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};

use cqs_core::adversary::{
    run_adversary, try_run_adversary_repr, AdversaryOutcome, AdversaryReport,
};
use cqs_core::{ComparisonSummary, Eps, Item, StreamRepr};
use cqs_gk::{CappedGk, GkSummary, GreedyGk};
use cqs_kll::KllSketch;
use cqs_streams::Table;

/// Which summary the adversary attacks in a sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    /// Banded Greenwald–Khanna.
    Gk,
    /// Greedy Greenwald–Khanna.
    GkGreedy,
    /// Fixed-seed KLL (the derandomized randomized sketch).
    KllFixed,
    /// Space-capped GK with the given item budget.
    Capped(usize),
}

impl Target {
    /// Display name.
    pub fn name(self) -> String {
        match self {
            Target::Gk => "gk".into(),
            Target::GkGreedy => "gk-greedy".into(),
            Target::KllFixed => "kll-fixed".into(),
            Target::Capped(b) => format!("gk-capped({b})"),
        }
    }
}

/// [`try_attack`] for targets expected to conform: the same run, with
/// an adversary error raised as a panic.
pub fn attack(eps: Eps, k: u32, target: Target) -> AdversaryReport {
    try_attack(eps, k, target).unwrap_or_else(|e| panic!("{}: {e}", target.name()))
}

/// Runs the full adversarial construction against the chosen target and
/// returns the flat report. A crashing or model-violating config yields
/// an `Err` (with the full error rendered) instead of killing a whole
/// sweep; the sweep binaries skip-and-record such configs.
pub fn try_attack(eps: Eps, k: u32, target: Target) -> Result<AdversaryReport, String> {
    try_attack_repr(eps, k, target, StreamRepr::Materialized)
}

/// [`try_attack`] with an explicit stream representation — the one
/// target dispatcher. `StreamRepr::Implicit` keeps the adversary's
/// order indexes interval-compressed — memory sublinear in N — which is
/// what lets the large-N sweep grids drive cells at N = 10⁸–10⁹.
pub fn try_attack_repr(
    eps: Eps,
    k: u32,
    target: Target,
    repr: StreamRepr,
) -> Result<AdversaryReport, String> {
    fn go<S: ComparisonSummary<Item>>(
        eps: Eps,
        k: u32,
        repr: StreamRepr,
        make: impl FnMut() -> S,
    ) -> Result<AdversaryReport, String> {
        try_run_adversary_repr(eps, k, repr, make)
            .map(|o| o.report())
            .map_err(|e| format!("{} [{}]", e, e.verdict()))
    }
    match target {
        Target::Gk => go(eps, k, repr, || GkSummary::<Item>::new(eps.value())),
        Target::GkGreedy => go(eps, k, repr, || GreedyGk::<Item>::new(eps.value())),
        Target::KllFixed => {
            let kcap = (4 * eps.inverse() as usize).max(8);
            go(eps, k, repr, || KllSketch::<Item>::with_seed(kcap, 0xD1CE))
        }
        Target::Capped(b) => go(eps, k, repr, || CappedGk::<Item>::new(eps.value(), b)),
    }
}

/// Runs the adversary and returns the full outcome (streams + audits)
/// for a capped GK target — used by the failure-witness experiments.
pub fn attack_capped_outcome(eps: Eps, k: u32, budget: usize) -> AdversaryOutcome<CappedGk<Item>> {
    run_adversary(eps, k, move || CappedGk::<Item>::new(eps.value(), budget))
}

/// Runs the adversary and returns the full outcome for banded GK.
pub fn attack_gk_outcome(eps: Eps, k: u32) -> AdversaryOutcome<GkSummary<Item>> {
    run_adversary(eps, k, || GkSummary::<Item>::new(eps.value()))
}

/// Resolves `results/<file>` at the workspace root, or `<dir>/<file>`
/// when the `CQS_RESULTS_DIR` environment variable is set (CI smoke
/// runs redirect there so they never clobber the committed CSVs).
pub fn results_path(file: &str) -> PathBuf {
    if let Some(dir) = std::env::var_os("CQS_RESULTS_DIR") {
        return PathBuf::from(dir).join(file);
    }
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    root.canonicalize()
        .unwrap_or(root)
        .join("results")
        .join(file)
}

/// How many CSV mirrors failed to write in this process (see [`emit`]).
static MIRROR_FAILURES: AtomicUsize = AtomicUsize::new(0);

/// Number of [`emit`] calls whose CSV mirror failed so far.
pub fn mirror_failures() -> usize {
    MIRROR_FAILURES.load(Ordering::Relaxed)
}

/// Exit code for an experiment binary: failure when any CSV mirror
/// failed to write, so `run_all_experiments` (and CI) cannot green-light
/// a sweep whose `results/` artifacts are missing. Every experiment
/// `main` ends with `cqs_bench::exit_status()`.
pub fn exit_status() -> ExitCode {
    let n = mirror_failures();
    if n == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("[csv] {n} mirror(s) failed — results/ artifacts are incomplete");
        ExitCode::FAILURE
    }
}

/// Prints a table under a titled banner and mirrors it to
/// `results/<csv_name>`. A failed mirror is reported on stderr *and*
/// counted, so [`exit_status`] turns it into a nonzero exit — the table
/// on stdout remains the experiment's primary output, but CI must not
/// treat a sweep with missing `results/` artifacts as fully successful.
pub fn emit(title: &str, table: &Table, csv_name: &str) {
    println!("\n=== {title} ===\n");
    print!("{}", table.render());
    let path = results_path(csv_name);
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match cqs_streams::write_csv(table, &path) {
        Ok(()) => println!("\n[csv] {}", path.display()),
        Err(e) => {
            MIRROR_FAILURES.fetch_add(1, Ordering::Relaxed);
            eprintln!("\n[csv] failed to write {}: {e}", path.display());
        }
    }
}

/// Formats a float with 1 decimal place (experiment tables).
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Formats a float with 3 decimal places.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Drives any summary over a `u64` workload, returning (peak stored,
/// final stored, max rank error over a grid of `grid` targets).
///
/// Values must be a permutation-like stream where the true rank of a
/// value can be computed by sorting — the function sorts a copy for
/// ground truth.
pub fn drive_u64<S: ComparisonSummary<u64>>(
    summary: &mut S,
    values: &[u64],
    grid: usize,
) -> DriveStats {
    let mut peak = 0usize;
    for &v in values {
        summary.insert(v);
        peak = peak.max(summary.stored_count());
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let n = sorted.len() as u64;
    let mut max_err = 0u64;
    for j in 0..=grid as u64 {
        let r = (1 + j * (n - 1) / grid as u64).clamp(1, n);
        if let Some(ans) = summary.query_rank(r) {
            // True rank range of ans in the (multi)set.
            let lo = sorted.partition_point(|&x| x < ans) as u64 + 1;
            let hi = sorted.partition_point(|&x| x <= ans) as u64;
            let err = if r < lo { lo - r } else { r.saturating_sub(hi) };
            max_err = max_err.max(err);
        }
    }
    DriveStats {
        peak_stored: peak,
        final_stored: summary.stored_count(),
        max_rank_error: max_err,
    }
}

/// Outcome of [`drive_u64`].
#[derive(Clone, Copy, Debug)]
pub struct DriveStats {
    /// Largest |I| observed.
    pub peak_stored: usize,
    /// |I| at end of stream.
    pub final_stored: usize,
    /// Worst rank error over the query grid.
    pub max_rank_error: u64,
}

/// Compile-time audit that the sweep vocabulary is pool-safe: cells go
/// out to `run_cells` workers, outcomes/completions/JSON rows and the
/// assembled sweep come back. Never called — the `sharding-send-sync`
/// lint rule derives this list from the spawn-site call graph and keeps
/// the lines from being deleted.
#[allow(dead_code)]
fn sharding_send_audit<R: Send + Sync>() {
    fn assert_send<T: Send>() {}
    assert_send::<Target>();
    assert_send::<exec::CellOutcome<R>>();
    assert_send::<exec::Completion<'_, R>>();
    assert_send::<json::Json>();
    assert_send::<sweeps::Thm22Cell>();
    assert_send::<sweeps::Thm22Sweep>();
    // Checkpointing vocabulary: the persisting report wrapper runs on
    // pool workers, so everything it touches must cross threads.
    assert_send::<checkpoint::SweepCheckpoint>();
    assert_send::<checkpoint::CrashPolicy>();
    assert_send::<checkpoint::CheckpointConfig>();
    assert_send::<checkpoint::CkptOutcome<'_, R>>();
    assert_send::<checkpoint::CkptProgress<'_, R>>();
    assert_send::<checkpoint::CheckpointedRun<R>>();
    assert_send::<checkpoint::CheckpointedSweep<R>>();
    assert_send::<checkpoint::ResumeInfo>();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attack_dispatches_all_targets() {
        let eps = Eps::from_inverse(8);
        for t in [
            Target::Gk,
            Target::GkGreedy,
            Target::KllFixed,
            Target::Capped(8),
        ] {
            let rep = attack(eps, 3, t);
            assert_eq!(rep.n, eps.stream_len(3), "{:?}", t);
            assert!(rep.equivalence_ok, "{:?} broke indistinguishability", t);
        }
    }

    #[test]
    fn drive_reports_sane_stats() {
        let vals: Vec<u64> = (1..=1000).collect();
        let mut gk = GkSummary::new(0.05);
        let stats = drive_u64(&mut gk, &vals, 20);
        assert!(stats.peak_stored >= stats.final_stored.min(stats.peak_stored));
        assert!(stats.max_rank_error <= 50);
    }

    #[test]
    fn results_path_lands_in_workspace_results() {
        let p = results_path("x.csv");
        assert!(p.to_string_lossy().contains("results"));
    }

    #[test]
    fn failed_mirror_is_counted_and_fails_exit_status() {
        // Block the mirror by routing CQS_RESULTS_DIR *under a file* —
        // create_dir_all and the write both fail with NotADirectory.
        // (The override value still contains "results", so the sibling
        // results_path test stays valid while this env var is set.)
        let blocker = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target")
            .join("mirror-blocker");
        std::fs::write(&blocker, b"not a directory").unwrap();
        std::env::set_var("CQS_RESULTS_DIR", blocker.join("results-sub"));
        let before = mirror_failures();
        let mut t = Table::new(&["a"]);
        t.row(&["1"]);
        emit("mirror failure test", &t, "never_lands.csv");
        std::env::remove_var("CQS_RESULTS_DIR");
        assert!(mirror_failures() > before, "mirror failure not counted");
        // ExitCode has no PartialEq; compare the Debug rendering.
        assert_eq!(
            format!("{:?}", exit_status()),
            format!("{:?}", ExitCode::FAILURE)
        );
    }
}
