//! Command implementations (pure: reader in, string out) so everything
//! is unit-testable without spawning processes.

use std::fmt;
use std::fmt::Write as _;
use std::io::BufRead;

use cqs_bench::exec::{default_jobs, run_cells, CellOutcome};
use cqs_ckms::CkmsSummary;
use cqs_core::adversary::run_adversary;
use cqs_core::failure::quantile_failure_witness;
use cqs_core::{
    Adversary, AdversaryBudget, ComparisonSummary, Eps, Item, MergeableSummary, RunVerdict,
};
use cqs_faults::{
    apply_storage_fault, storage_fault_matrix, FaultKind, FaultPlan, FaultySummary, StorageFault,
};
use cqs_gk::{CappedGk, GkSummary, GreedyGk};
use cqs_kll::KllSketch;
use cqs_mrl::MrlSummary;
use cqs_sampling::ReservoirSummary;
use cqs_streams::{OrdF64, Table};

use cqs_service::{parallel_ingest, QuantileExport, QuantileRegistry, ServiceConfig};

use crate::args::{
    AdversaryArgs, CompareArgs, FaultsArgs, QuantilesArgs, RecoverArgs, ServiceArgs, SummaryKind,
};

/// A user-facing CLI error (bad flags, bad input data).
#[derive(Debug)]
pub struct CliError(String);

impl CliError {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        CliError(msg.into())
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

fn build_summary(
    kind: SummaryKind,
    eps: f64,
    expected_n: u64,
    seed: u64,
) -> Result<Box<dyn ComparisonSummary<OrdF64>>, CliError> {
    Ok(match kind {
        SummaryKind::Gk => Box::new(GkSummary::new(eps)),
        SummaryKind::GkGreedy => Box::new(GreedyGk::new(eps)),
        SummaryKind::GkCapped => {
            return Err(CliError::new(
                "gk-capped is only meaningful under `cqs adversary`",
            ))
        }
        SummaryKind::Mrl => Box::new(MrlSummary::new(eps, expected_n)),
        SummaryKind::Kll => Box::new(KllSketch::with_seed(((2.0 / eps) as usize).max(8), seed)),
        SummaryKind::Ckms => Box::new(CkmsSummary::new(eps)),
        SummaryKind::Reservoir => Box::new(ReservoirSummary::with_seed(eps, 0.01, seed)),
    })
}

fn read_numbers(input: impl BufRead) -> Result<Vec<f64>, CliError> {
    let mut out = Vec::new();
    for (lineno, line) in input.lines().enumerate() {
        let line = line.map_err(|e| CliError::new(format!("read error: {e}")))?;
        for tok in line.split_whitespace() {
            let x: f64 = tok
                .parse()
                .map_err(|_| CliError::new(format!("line {}: not a number: {tok}", lineno + 1)))?;
            if x.is_nan() {
                return Err(CliError::new(format!(
                    "line {}: NaN is not orderable",
                    lineno + 1
                )));
            }
            out.push(x);
        }
    }
    Ok(out)
}

/// `cqs quantiles`: summarise stdin and print the requested quantiles.
pub fn run_quantiles(args: &QuantilesArgs, input: impl BufRead) -> Result<String, CliError> {
    let numbers = read_numbers(input)?;
    if numbers.is_empty() {
        return Err(CliError::new("no input numbers"));
    }
    let mut s = build_summary(args.kind, args.eps, args.expected_n, args.seed)?;
    for &x in &numbers {
        s.insert(OrdF64::new(x));
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "algo = {}, eps = {}, n = {}, stored = {} items",
        s.name(),
        args.eps,
        s.items_processed(),
        s.stored_count()
    );
    for &phi in &args.phis {
        let q = s
            .quantile(phi)
            .ok_or_else(|| CliError::new(format!("{}: no quantile for phi = {phi}", s.name())))?;
        let _ = writeln!(out, "  phi = {phi:<8} -> {}", f64::from(q));
    }
    Ok(out)
}

/// The most items an adversary stream of the CLI may have.
const MAX_ADVERSARY_N: u64 = 4_000_000;

/// ε = 1/`inv_eps` and the stream length N_k = (1/ε)·2^k of the
/// adversary run that `--inv-eps` and `--k` ask for, or a usage error:
/// ε must lie in (0, ½) like `--eps`, and N_k must fit in `u64` and stay
/// within [`MAX_ADVERSARY_N`].
pub(crate) fn adversary_stream(inv_eps: u64, k: u32) -> Result<(Eps, u64), CliError> {
    if inv_eps < 3 {
        return Err(CliError::new(format!(
            "--inv-eps must be at least 3 (eps must be in (0, 0.5)), got {inv_eps}"
        )));
    }
    let eps = Eps::from_inverse(inv_eps);
    match eps.try_stream_len(k) {
        Some(n) if n <= MAX_ADVERSARY_N => Ok((eps, n)),
        Some(n) => Err(CliError::new(format!(
            "stream length {n} too large; lower --k or --inv-eps"
        ))),
        None => Err(CliError::new(
            "stream length overflows u64; lower --k or --inv-eps",
        )),
    }
}

/// `cqs adversary`: run the lower-bound construction and report.
/// Returns the rendered report plus the process exit code: 0 when the
/// construction finished (whatever the summary's accuracy), otherwise
/// the [`verdict_code`] of the run's typed `AdversaryError`.
pub fn run_adversary_cmd(args: &AdversaryArgs) -> Result<(String, u8), CliError> {
    let (eps, n) = adversary_stream(args.inv_eps, args.k)?;
    let budget = if args.budget == 0 {
        (args.inv_eps / 2).max(4) as usize
    } else {
        args.budget.max(4)
    };
    let k = args.k;
    Ok(match args.target {
        SummaryKind::Gk => adversary_on(eps, k, || GkSummary::<Item>::new(eps.value())),
        SummaryKind::GkGreedy => adversary_on(eps, k, || GreedyGk::<Item>::new(eps.value())),
        SummaryKind::GkCapped => {
            adversary_on(eps, k, move || CappedGk::<Item>::new(eps.value(), budget))
        }
        SummaryKind::Mrl => adversary_on(eps, k, move || MrlSummary::<Item>::new(eps.value(), n)),
        SummaryKind::Kll => adversary_on(eps, k, move || {
            KllSketch::<Item>::with_seed((4 * args.inv_eps as usize).max(8), 0xD1CE)
        }),
        other => {
            return Err(CliError::new(format!(
                "{other:?} is not an adversary target (use gk, gk-greedy, gk-capped, mrl, kll)"
            )))
        }
    })
}

/// Runs the construction against two copies from `make` and renders the
/// report, or the typed error that ended the run with its exit code.
fn adversary_on<S: ComparisonSummary<Item>>(
    eps: Eps,
    k: u32,
    mut make: impl FnMut() -> S,
) -> (String, u8) {
    let mut out = String::new();
    let outcome = match Adversary::new(eps, make(), make()).try_run(k) {
        Ok(outcome) => outcome,
        Err(e) => {
            let _ = writeln!(
                out,
                "adversary vs {} (eps = {eps}, k = {k}, N = {})",
                make().name(),
                eps.stream_len(k)
            );
            let _ = writeln!(out, "  run aborted: {e}");
            let _ = writeln!(out, "  verdict: {}", e.verdict());
            return (out, verdict_code(e.verdict()));
        }
    };
    let report = outcome.report();
    let _ = writeln!(
        out,
        "adversary vs {} (eps = {}, k = {}, N = {})",
        report.summary_name, eps, k, report.n
    );
    let _ = writeln!(
        out,
        "  indistinguishability held : {}",
        report.equivalence_ok
    );
    let _ = writeln!(
        out,
        "  final gap / 2*eps*N       : {} / {}",
        report.final_gap, report.gap_ceiling
    );
    let _ = writeln!(out, "  peak items stored         : {}", report.max_stored);
    let _ = writeln!(
        out,
        "  theorem 2.2 bound         : {:.1}",
        report.theorem22_bound
    );
    let _ = writeln!(
        out,
        "  claim-1 / lemma-5.2 viol. : {} / {}",
        report.claim1_violations, report.lemma52_violations
    );
    match quantile_failure_witness(&outcome) {
        None => {
            let _ = writeln!(
                out,
                "  verdict: correct under attack; space >= bound: {}",
                report.max_stored as f64 >= report.theorem22_bound
            );
        }
        Some(w) => {
            let _ = writeln!(
                out,
                "  verdict: gap ceiling blown — FAILING QUERY extracted:"
            );
            let _ = writeln!(
                out,
                "    phi = {:.4} (rank {}), err_pi = {}, err_rho = {}, allowed = {}",
                w.phi, w.target_rank, w.err_pi, w.err_rho, w.budget
            );
        }
    }
    (out, 0)
}

/// Exit code for a verdict: a fault-matrix mismatch exits with the
/// observed verdict's code (`Completed` on a faulted cell means the
/// fault went undetected), and `cqs adversary` with its error's. See
/// the `cqs faults` section of [`crate::USAGE`].
fn verdict_code(v: RunVerdict) -> u8 {
    match v {
        RunVerdict::Completed => 7,
        RunVerdict::SummaryIncorrect => 3,
        RunVerdict::ModelViolation => 4,
        RunVerdict::SummaryPanicked => 5,
        RunVerdict::BudgetExhausted => 6,
    }
}

/// One row of the fault matrix.
struct FaultCell {
    name: &'static str,
    expected: RunVerdict,
    plan: FaultPlan,
    budget: AdversaryBudget,
}

/// Compile-time audit that fault-matrix cells can ride the sweep pool.
/// Never called — the `sharding-send-sync` lint rule derives this from
/// the spawn-site call graph and keeps the line from being deleted.
#[allow(dead_code)]
fn sharding_send_audit() {
    fn assert_send<T: Send>() {}
    assert_send::<FaultCell>();
    // `cqs service` arguments and errors cross the parallel-ingest
    // worker scope by reference from the driving thread.
    assert_send::<ServiceArgs>();
    assert_send::<CliError>();
}

/// The standard fault matrix: every [`FaultKind`] plus the zero-fault
/// control and a step-budget cell. Fault steps land deterministically in
/// the middle half of the stream so every fault arms after the first
/// leaf (where the two streams still share items) and before the run
/// ends.
fn fault_matrix(eps: Eps, k: u32, seed: u64) -> Vec<FaultCell> {
    let n = eps.stream_len(k);
    let rank_budget = eps.rank_budget(n);
    let mid = |salt: u64, kind| FaultPlan::single_random(seed ^ salt, kind, n / 4, 3 * n / 4);
    let unlimited = AdversaryBudget::default();
    vec![
        FaultCell {
            name: "none",
            expected: RunVerdict::Completed,
            plan: FaultPlan::none(),
            budget: unlimited,
        },
        FaultCell {
            name: "panic-insert",
            expected: RunVerdict::SummaryPanicked,
            plan: mid(0x01, FaultKind::PanicOnInsert),
            budget: unlimited,
        },
        FaultCell {
            name: "panic-query",
            expected: RunVerdict::SummaryPanicked,
            plan: mid(0x02, FaultKind::PanicOnQuery),
            budget: unlimited,
        },
        FaultCell {
            name: "rank-slack",
            expected: RunVerdict::SummaryIncorrect,
            plan: mid(0x03, FaultKind::RankSlack(3 * rank_budget + 1)),
            budget: unlimited,
        },
        FaultCell {
            name: "non-monotone-rank",
            expected: RunVerdict::ModelViolation,
            plan: mid(0x04, FaultKind::NonMonotoneRank),
            budget: unlimited,
        },
        FaultCell {
            name: "value-peek",
            expected: RunVerdict::ModelViolation,
            plan: mid(0x05, FaultKind::ValuePeek),
            budget: unlimited,
        },
        FaultCell {
            name: "understate-space",
            expected: RunVerdict::ModelViolation,
            plan: mid(0x06, FaultKind::UnderstateSpace(5)),
            budget: unlimited,
        },
        FaultCell {
            name: "step-budget",
            expected: RunVerdict::BudgetExhausted,
            plan: FaultPlan::none(),
            budget: AdversaryBudget {
                max_steps: Some(n / 2),
                ..AdversaryBudget::default()
            },
        },
    ]
}

/// Runs the matrix against one summary constructor, rendering the
/// per-cell verdict table and computing the exit code.
///
/// Cells are independent adversary runs, so they fan out over the
/// `cqs_bench::exec` pool; the table is assembled from the input-order
/// result vector, so it is identical for every `jobs` value.
fn faults_matrix_run<S, F>(eps: Eps, k: u32, seed: u64, jobs: usize, make: F) -> (String, u8)
where
    S: ComparisonSummary<Item>,
    F: Fn() -> S + Sync,
{
    let cells = fault_matrix(eps, k, seed);
    // The driver converts summary panics into verdicts; silence the
    // default hook so each caught panic doesn't splatter a backtrace
    // over the report. The hook is process-global, so the swap stays
    // hoisted around the whole pool run instead of per cell.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcomes = run_cells(
        &cells,
        jobs,
        |_, cell| {
            let adv = Adversary::new(
                eps,
                FaultySummary::new(make(), cell.plan.clone()),
                FaultySummary::new(make(), cell.plan.clone()),
            )
            .with_budget(cell.budget);
            match adv.try_run(k) {
                Ok(out) => out.verdict(),
                Err(e) => e.verdict(),
            }
        },
        |c| {
            eprintln!(
                "[faults {}/{}] {} ({:.2}s)",
                c.finished,
                c.total,
                cells[c.index].name,
                c.elapsed.as_secs_f64()
            );
        },
    );
    std::panic::set_hook(hook);
    let mut t = Table::new(&["cell", "at-step", "expected", "observed", "ok"]);
    let mut code = 0u8;
    let mut mismatches = 0usize;
    for (cell, outcome) in cells.iter().zip(outcomes) {
        // A panic that escapes the driver (e.g. in the constructor) is
        // still a summary panic, not a pool failure.
        let observed = match outcome {
            CellOutcome::Done(v) => v,
            CellOutcome::Panicked(_) => RunVerdict::SummaryPanicked,
        };
        let ok = observed == cell.expected;
        if !ok {
            mismatches += 1;
            if code == 0 {
                code = verdict_code(observed);
            }
        }
        let at = cell
            .plan
            .faults()
            .first()
            .map(|f| f.at.to_string())
            .unwrap_or_else(|| "-".into());
        t.row(&[
            cell.name,
            &at,
            cell.expected.as_str(),
            observed.as_str(),
            if ok { "yes" } else { "NO" },
        ]);
    }
    let summary_name = make().name();
    let verdict_line = if mismatches == 0 {
        format!("all {} cells matched their expected verdict", cells.len())
    } else {
        format!("{mismatches} of {} cells MISMATCHED", cells.len())
    };
    (
        format!(
            "fault matrix vs {summary_name} (eps = {eps}, k = {k}, N = {}, seed = {seed:#x})\n\n{}\n{verdict_line}\n",
            eps.stream_len(k),
            t.render()
        ),
        code,
    )
}

/// `cqs faults`: sweep the fault matrix and report per-cell verdicts.
/// Returns the rendered table plus the process exit code.
pub fn run_faults_cmd(args: &FaultsArgs) -> Result<(String, u8), CliError> {
    let (eps, n) = adversary_stream(args.inv_eps, args.k)?;
    let jobs = if args.jobs == 0 {
        default_jobs()
    } else {
        args.jobs
    };
    Ok(match args.target {
        SummaryKind::Gk => faults_matrix_run(eps, args.k, args.seed, jobs, || {
            GkSummary::<Item>::new(eps.value())
        }),
        SummaryKind::GkGreedy => faults_matrix_run(eps, args.k, args.seed, jobs, || {
            GreedyGk::<Item>::new(eps.value())
        }),
        SummaryKind::Mrl => faults_matrix_run(eps, args.k, args.seed, jobs, move || {
            MrlSummary::<Item>::new(eps.value(), n)
        }),
        other => {
            return Err(CliError::new(format!(
                "{other:?} is not a faults target (use gk, gk-greedy, mrl)"
            )))
        }
    })
}

/// Short, stable description of where a storage fault strikes.
fn storage_fault_detail(fault: &StorageFault) -> String {
    match fault {
        StorageFault::Truncate { keep } => format!("keep {keep}B"),
        StorageFault::TornWrite { prefix } => format!("cut at {prefix}B"),
        StorageFault::BitFlip { offset, bit } => format!("byte {offset} bit {bit}"),
        StorageFault::StaleVersion | StorageFault::SwappedSections => "-".into(),
    }
}

/// Expected [`cqs_snapshot::RestoreError::code`]s per storage fault
/// family. Faults whose damage lands at a data-dependent offset can
/// legitimately trip more than one detector (e.g. a bit flip in a
/// section tag is caught by tag sequencing before the checksum runs);
/// what is never acceptable is a silent restore or a non-corruption
/// verdict.
fn storage_fault_expected(fault: &StorageFault) -> &'static [&'static str] {
    match fault {
        StorageFault::Truncate { .. } => &["truncated", "checksum-mismatch"],
        StorageFault::TornWrite { .. } => &[
            "checksum-mismatch",
            "truncated",
            "malformed",
            "trailing-bytes",
        ],
        StorageFault::BitFlip { .. } => &["checksum-mismatch", "unexpected-section", "malformed"],
        StorageFault::StaleVersion => &["unsupported-version"],
        StorageFault::SwappedSections => &["unexpected-section"],
    }
}

/// `cqs recover`: the recovery fault matrix. Builds a deterministic GK
/// snapshot, applies every storage fault family to its bytes, and
/// checks each corruption is rejected with an expected typed
/// [`cqs_snapshot::RestoreError`] — zero silent restores. Returns the
/// rendered table plus the exit code (0 all matched, 7 on the first
/// mismatch or silent restore).
pub fn run_recover_cmd(args: &RecoverArgs) -> Result<(String, u8), CliError> {
    use cqs_snapshot::{SnapshotRead as _, SnapshotWrite as _};

    let fill = |n: u64| {
        let mut gk = GkSummary::<u64>::new(0.05);
        for x in 1..=n {
            gk.insert(x);
        }
        gk
    };
    let latest = fill(args.n);
    let bytes = latest.to_snapshot_bytes();
    // The "previous generation" a torn in-place overwrite mixes with:
    // make it longer than the new snapshot so the old tail survives the
    // cut and the mixed-generation case is actually exercised.
    let prev_bytes = fill(2 * args.n).to_snapshot_bytes();

    let mut t = Table::new(&["fault", "detail", "expected", "observed", "ok"]);
    let mut mismatches = 0usize;

    // Control row: the pristine snapshot must restore and answer as the
    // live summary does.
    let control_ok = match GkSummary::<u64>::from_snapshot_bytes(&bytes) {
        Ok(back) => back.item_array() == latest.item_array(),
        Err(_) => false,
    };
    if !control_ok {
        mismatches += 1;
    }
    t.row(&[
        "none",
        "-",
        "restored",
        if control_ok { "restored" } else { "REJECTED" },
        if control_ok { "yes" } else { "NO" },
    ]);

    for fault in storage_fault_matrix(bytes.len()) {
        let corrupted =
            apply_storage_fault(&fault, &bytes, Some(&prev_bytes), cqs_snapshot::HEADER_LEN);
        let expected = storage_fault_expected(&fault);
        let (observed, ok) = match GkSummary::<u64>::from_snapshot_bytes(&corrupted) {
            Ok(_) => ("silent-restore".to_string(), false),
            Err(e) => {
                let code = e.code();
                (
                    code.to_string(),
                    e.is_corruption() && expected.contains(&code),
                )
            }
        };
        if !ok {
            mismatches += 1;
        }
        t.row(&[
            fault.name(),
            &storage_fault_detail(&fault),
            &expected.join("|"),
            &observed,
            if ok { "yes" } else { "NO" },
        ]);
    }

    let verdict_line = if mismatches == 0 {
        "every storage fault was rejected with a typed verdict (zero silent restores)".to_string()
    } else {
        format!("{mismatches} cell(s) MISMATCHED — corruption detection is broken")
    };
    Ok((
        format!(
            "recovery fault matrix vs gk snapshot (n = {}, {} bytes)\n\n{}\n{verdict_line}\n",
            args.n,
            bytes.len(),
            t.render()
        ),
        if mismatches == 0 { 0 } else { 7 },
    ))
}

/// Deterministic shuffled batches for one service key: the values
/// `1..=n` permuted by an LCG seeded per key, cut into `batch`-sized
/// chunks. Every invocation with the same arguments produces the same
/// batches, which is what makes the exported snapshot diffable across
/// runs and thread counts.
fn service_batches(n: u64, batch: usize, seed: u64) -> Vec<Vec<u64>> {
    let mut vals: Vec<u64> = (1..=n).collect();
    let mut state = seed | 1;
    for i in (1..vals.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = ((state >> 33) % (i as u64 + 1)) as usize;
        vals.swap(i, j);
    }
    vals.chunks(batch).map(|c| c.to_vec()).collect()
}

/// `cqs service`: smoke-drive the sharded concurrent quantile service
/// end to end — multi-key parallel ingest, background merge worker,
/// one-pass export — then replay the lower-bound adversary's stream π
/// through the sharded registry and check every rank answer of the
/// fold against the composed guarantee shards·ε·N (the
/// error-composition differential).
///
/// Returns the rendered report, the exit code (0 = export round-trips
/// and the differential holds, 7 otherwise), and the exported snapshot
/// bytes for `--export`. The bytes are a pure function of the
/// arguments — never of `--threads` — so CI diffs them across thread
/// counts.
pub fn run_service_cmd(args: &ServiceArgs) -> Result<(String, u8, Vec<u8>), CliError> {
    use cqs_snapshot::{SnapshotRead as _, SnapshotWrite as _};

    let eps0 = args.eps;
    let reg: QuantileRegistry<u64, GkSummary<u64>> = QuantileRegistry::new(
        ServiceConfig {
            shards: args.shards,
            stripes: 8,
            fold_cadence: 1024,
        },
        move || GkSummary::new(eps0),
    );
    let worker = reg.start_merge_worker();
    let keys = ["checkout", "ingest", "search"];
    for (i, key) in keys.iter().enumerate() {
        let handle = reg.handle(key);
        let batches = service_batches(args.n, args.batch, 0x5EED ^ ((i as u64) << 16));
        let ingested = parallel_ingest(&handle, &batches, args.threads);
        if ingested != args.n {
            return Err(CliError::new(format!(
                "key {key}: ingested {ingested} of {} items",
                args.n
            )));
        }
    }
    let phis = [0.5, 0.9, 0.99];
    let export = reg
        .export_quantiles(&phis)
        .map_err(|e| CliError::new(format!("export fold failed: {e}")))?;
    let bytes = export.to_snapshot_bytes();
    let roundtrip_ok = QuantileExport::<u64>::from_snapshot_bytes(&bytes)
        .map(|back| back == export)
        .unwrap_or(false);
    let fold_errors = worker.fold_errors();
    worker.shutdown();

    let mut t = Table::new(&["key", "n", "p50", "p90", "p99", "eps"]);
    for row in &export.keys {
        let v = |i: usize| {
            row.values[i]
                .map(|x| x.to_string())
                .unwrap_or_else(|| "-".into())
        };
        t.row(&[
            &row.key,
            &row.n.to_string(),
            &v(0),
            &v(1),
            &v(2),
            &row.eps_bound
                .map(|e| format!("{e:.4}"))
                .unwrap_or_else(|| "-".into()),
        ]);
    }

    // --- Error-composition differential. ------------------------------
    // The hardest comparison-based input we can construct (the Theorem
    // 2.2 adversary's π), sharded through the registry itself and
    // probed at *every* rank against the stream's ground truth.
    let (aeps, n) = adversary_stream(args.inv_eps, args.k)?;
    let out = run_adversary(aeps, args.k, move || GkSummary::<Item>::new(aeps.value()));
    let mut arrivals: Vec<(u64, Item)> = Vec::new();
    out.pi
        .for_each_arrival(&mut |item, tag| arrivals.push((tag, item.clone())));
    arrivals.sort_unstable_by_key(|&(tag, _)| tag);

    let diff_reg: QuantileRegistry<Item, GkSummary<Item>> = QuantileRegistry::new(
        ServiceConfig {
            shards: args.shards,
            stripes: 1,
            fold_cadence: u64::MAX,
        },
        move || GkSummary::new(eps0),
    );
    let dh = diff_reg.handle("pi");
    for (_, item) in &arrivals {
        dh.record(item.clone());
    }
    let merged = dh
        .folded()
        .map_err(|e| CliError::new(format!("differential fold failed: {e}")))?
        .ok_or_else(|| CliError::new("differential stream is empty"))?;
    let composed = merged
        .eps_bound()
        .ok_or_else(|| CliError::new("folded gk lost its eps bound"))?;
    let budget = (composed * n as f64).ceil() as u64 + 1;
    let mut worst = 0u64;
    let mut violations = 0u64;
    for r in 1..=n {
        let err = match merged.query_rank(r) {
            Some(answer) => out.pi.rank_error(&answer, r),
            None => n,
        };
        worst = worst.max(err);
        if err > budget {
            violations += 1;
        }
    }
    let composed_ok = composed <= eps0 * args.shards as f64 + 1e-12;

    let ok = roundtrip_ok && fold_errors == 0 && violations == 0 && composed_ok;
    let report = format!(
        "sharded quantile service (keys = {}, n = {} each, shards = {}, threads = {}, eps = {})\n\n\
         {}\n\
         merge worker fold errors   : {fold_errors}\n\
         export snapshot            : {} bytes, round-trip {}\n\n\
         error-composition differential (adversary eps = {aeps}, k = {}, N = {n}):\n\
         composed eps after fold    : {composed} (<= shards * eps: {composed_ok})\n\
         worst rank error / budget  : {worst} / {budget}\n\
         rank violations            : {violations} of {n}\n\
         verdict: {}\n",
        keys.len(),
        args.n,
        args.shards,
        args.threads,
        args.eps,
        t.render(),
        bytes.len(),
        if roundtrip_ok { "ok" } else { "FAILED" },
        args.k,
        if ok {
            "sharded fold stays within the composed guarantee"
        } else {
            "COMPOSITION VIOLATED"
        },
    );
    Ok((report, if ok { 0 } else { 7 }, bytes))
}

/// `cqs compare`: every algorithm over the same stdin numbers.
pub fn run_compare(args: &CompareArgs, input: impl BufRead) -> Result<String, CliError> {
    let numbers = read_numbers(input)?;
    if numbers.is_empty() {
        return Err(CliError::new("no input numbers"));
    }
    let mut t = Table::new(&["algo", "stored", "p50", "p99"]);
    for kind in [
        SummaryKind::Gk,
        SummaryKind::GkGreedy,
        SummaryKind::Mrl,
        SummaryKind::Kll,
        SummaryKind::Ckms,
        SummaryKind::Reservoir,
    ] {
        let mut s = build_summary(
            kind,
            args.eps,
            args.expected_n.max(numbers.len() as u64),
            args.seed,
        )?;
        for &x in &numbers {
            s.insert(OrdF64::new(x));
        }
        let q = |phi: f64| {
            s.quantile(phi)
                .map(|v| format!("{}", f64::from(v)))
                .unwrap_or_else(|| "-".into())
        };
        t.row(&[s.name(), &s.stored_count().to_string(), &q(0.5), &q(0.99)]);
    }
    Ok(format!(
        "n = {}, eps = {}\n\n{}",
        numbers.len(),
        args.eps,
        t.render()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adversary_errors_exit_with_their_verdict_code() {
        let eps = Eps::from_inverse(16);
        let plan = FaultPlan::none().inject(40, FaultKind::PanicOnInsert);
        let (out, code) = adversary_on(eps, 4, || {
            FaultySummary::new(GkSummary::<Item>::new(eps.value()), plan.clone())
        });
        assert_eq!(code, 5, "{out}");
        assert!(
            out.contains("run aborted: summary panicked in insert at step 40"),
            "{out}"
        );
        assert!(out.contains("verdict: summary-panicked"), "{out}");
    }
}
