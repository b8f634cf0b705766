//! Hand-rolled argument parsing for the `cqs` binary.

use crate::commands::{adversary_stream, CliError};

/// The parsed command line.
#[derive(Clone, Debug)]
pub enum Cli {
    /// `cqs quantiles [--eps E] [--algo A] [--phi P1,P2,…]`.
    Quantiles(QuantilesArgs),
    /// `cqs adversary [--inv-eps I] [--k K] [--target A] [--budget B]`.
    Adversary(AdversaryArgs),
    /// `cqs compare [--eps E]`.
    Compare(CompareArgs),
    /// `cqs faults [--inv-eps I] [--k K] [--target A] [--seed S] [--jobs N]`.
    Faults(FaultsArgs),
    /// `cqs recover [--n N]`.
    Recover(RecoverArgs),
    /// `cqs service [--n N] [--shards S] [--threads T] [--export PATH]`.
    Service(ServiceArgs),
    /// `cqs help` (or `--help`).
    Help,
}

/// Which summary algorithm a command uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SummaryKind {
    /// Banded Greenwald–Khanna.
    Gk,
    /// Greedy Greenwald–Khanna.
    GkGreedy,
    /// Space-capped GK (adversary demos only).
    GkCapped,
    /// Manku–Rajagopalan–Lindsay.
    Mrl,
    /// Karnin–Lang–Liberty.
    Kll,
    /// CKMS biased quantiles.
    Ckms,
    /// Reservoir sampling.
    Reservoir,
}

impl SummaryKind {
    fn parse(s: &str) -> Result<Self, CliError> {
        Ok(match s {
            "gk" => SummaryKind::Gk,
            "gk-greedy" => SummaryKind::GkGreedy,
            "gk-capped" => SummaryKind::GkCapped,
            "mrl" => SummaryKind::Mrl,
            "kll" => SummaryKind::Kll,
            "ckms" => SummaryKind::Ckms,
            "reservoir" => SummaryKind::Reservoir,
            other => return Err(CliError::new(format!("unknown algorithm: {other}"))),
        })
    }
}

/// Arguments of `cqs quantiles`.
#[derive(Clone, Debug)]
pub struct QuantilesArgs {
    /// Approximation guarantee.
    pub eps: f64,
    /// Algorithm.
    pub kind: SummaryKind,
    /// Quantiles to print.
    pub phis: Vec<f64>,
    /// Expected stream length (MRL sizing only).
    pub expected_n: u64,
    /// RNG seed (randomized algorithms only).
    pub seed: u64,
}

/// Arguments of `cqs adversary`.
#[derive(Clone, Debug)]
pub struct AdversaryArgs {
    /// Integral 1/ε.
    pub inv_eps: u64,
    /// Recursion depth (stream length (1/ε)·2^k).
    pub k: u32,
    /// Summary under attack.
    pub target: SummaryKind,
    /// Item budget for `gk-capped` (0 = auto: 1/(2ε)).
    pub budget: usize,
}

/// Arguments of `cqs compare`.
#[derive(Clone, Debug)]
pub struct CompareArgs {
    /// Approximation guarantee.
    pub eps: f64,
    /// Expected stream length (MRL sizing only).
    pub expected_n: u64,
    /// RNG seed.
    pub seed: u64,
}

/// Arguments of `cqs faults`.
#[derive(Clone, Debug)]
pub struct FaultsArgs {
    /// Integral 1/ε.
    pub inv_eps: u64,
    /// Recursion depth (stream length (1/ε)·2^k).
    pub k: u32,
    /// Summary wrapped in the fault injector.
    pub target: SummaryKind,
    /// Seed choosing the fault steps.
    pub seed: u64,
    /// Worker threads for the matrix cells (`0` = available
    /// parallelism; `1` reproduces the serial path byte-for-byte).
    pub jobs: usize,
}

/// Arguments of `cqs recover`.
#[derive(Clone, Debug)]
pub struct RecoverArgs {
    /// Items inserted into the GK summary whose snapshot the storage
    /// fault matrix corrupts.
    pub n: u64,
}

/// Arguments of `cqs service`.
#[derive(Clone, Debug)]
pub struct ServiceArgs {
    /// Items ingested per registry key.
    pub n: u64,
    /// Batch size handed to `parallel_ingest`.
    pub batch: usize,
    /// Summary shards per key.
    pub shards: usize,
    /// Ingest worker threads (capped at the shard count).
    pub threads: usize,
    /// Per-shard GK guarantee; the folded answer composes to at most
    /// `shards * eps`.
    pub eps: f64,
    /// Integral 1/ε of the error-composition differential's adversary.
    pub inv_eps: u64,
    /// Recursion depth of the differential's adversary stream.
    pub k: u32,
    /// Where to write the exported `QuantileExport` snapshot bytes
    /// (`None` = don't write).
    pub export: Option<String>,
}

/// Usage text printed by `cqs help`.
pub const USAGE: &str = "\
cqs — comparison-based quantile summaries (and the proof they can't be smaller)

USAGE:
  cqs quantiles [--eps E] [--algo gk|gk-greedy|mrl|kll|ckms|reservoir]
                [--phi P1,P2,...] [--expected-n N] [--seed S]   < numbers.txt
  cqs adversary [--inv-eps I] [--k K]
                [--target gk|gk-greedy|gk-capped|mrl|kll] [--budget B]
  cqs compare   [--eps E] [--expected-n N] [--seed S]           < numbers.txt
  cqs faults    [--inv-eps I] [--k K] [--target gk|gk-greedy|mrl] [--seed S]
                [--jobs N]
  cqs recover   [--n N]
  cqs service   [--n N] [--batch B] [--shards S] [--threads T] [--eps E]
                [--inv-eps I] [--k K] [--export PATH]
  cqs help

`cqs adversary` exits 0 once the construction finishes, whether or not
the summary stayed correct (the report says which). A run the driver
ends early exits with its verdict's code, as below: 4 model-violation,
5 summary-panicked, 6 budget-exhausted.

`cqs faults` sweeps the fault matrix (every FaultPlan kind plus a budget
cell) against the chosen summary and checks each run's verdict. Exit
codes: 0 = every cell matched its expected verdict; on the first
mismatch, the observed verdict's code: 3 summary-incorrect,
4 model-violation, 5 summary-panicked, 6 budget-exhausted,
7 undetected fault (run completed); 1 = usage error.

`--jobs N` runs the matrix cells on N worker threads (default: the
machine's available parallelism; `--jobs 1` is the serial path). The
rendered table and exit code are identical for every N — cells are
independent adversary runs and results are assembled in input order.

`cqs recover` runs the storage fault matrix (truncation, torn write,
bit flip, stale version, swapped sections) against a deterministic GK
snapshot and checks that every corruption is rejected with its expected
typed RestoreError — zero silent restores. Exit codes: 0 = every fault
detected as expected; 7 = a fault was silently restored or produced an
unexpected verdict; 1 = usage error.

`cqs service` smoke-drives the sharded concurrent quantile service: a
multi-key registry ingests deterministic workloads over `--threads`
workers and `--shards` summary shards per key, a background merge
worker folds on cadence, and one export pass snapshots every key's
percentile grid (`--export` writes the wire bytes — byte-identical for
every `--threads`). It then replays the lower-bound adversary's stream
through the sharded registry and checks every rank answer of the fold
against the composed guarantee shards·ε·N (the error-composition
differential). Exit codes: 0 = export round-trips and the differential
holds; 7 = a rank answer escaped the composed-eps budget or the export
failed to round-trip; 1 = usage error.
";

/// Parses an argument list (without the program name).
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Cli, CliError> {
    let mut it = args.into_iter();
    let cmd = it
        .next()
        .ok_or_else(|| CliError::new("missing command; try `cqs help`"))?;
    let rest: Vec<String> = it.collect();
    match cmd.as_str() {
        "quantiles" => parse_quantiles(&rest).map(Cli::Quantiles),
        "adversary" => parse_adversary(&rest).map(Cli::Adversary),
        "compare" => parse_compare(&rest).map(Cli::Compare),
        "faults" => parse_faults(&rest).map(Cli::Faults),
        "recover" => parse_recover(&rest).map(Cli::Recover),
        "service" => parse_service(&rest).map(Cli::Service),
        "help" | "--help" | "-h" => Ok(Cli::Help),
        other => Err(CliError::new(format!(
            "unknown command: {other}; try `cqs help`"
        ))),
    }
}

struct Flags<'a> {
    words: &'a [String],
    i: usize,
}

impl<'a> Flags<'a> {
    fn new(words: &'a [String]) -> Self {
        Flags { words, i: 0 }
    }

    fn next_flag(&mut self) -> Option<&'a str> {
        let w = self.words.get(self.i)?;
        self.i += 1;
        Some(w.as_str())
    }

    fn value(&mut self, flag: &str) -> Result<&'a str, CliError> {
        let v = self
            .words
            .get(self.i)
            .ok_or_else(|| CliError::new(format!("{flag} needs a value")))?;
        self.i += 1;
        Ok(v.as_str())
    }
}

fn parse_f64(flag: &str, v: &str) -> Result<f64, CliError> {
    v.parse::<f64>()
        .map_err(|_| CliError::new(format!("{flag}: not a number: {v}")))
}

fn parse_u64(flag: &str, v: &str) -> Result<u64, CliError> {
    v.parse::<u64>()
        .map_err(|_| CliError::new(format!("{flag}: not an integer: {v}")))
}

fn check_eps(eps: f64) -> Result<f64, CliError> {
    if eps > 0.0 && eps < 0.5 {
        Ok(eps)
    } else {
        Err(CliError::new(format!("eps must be in (0, 0.5), got {eps}")))
    }
}

fn parse_quantiles(words: &[String]) -> Result<QuantilesArgs, CliError> {
    let mut out = QuantilesArgs {
        eps: 0.01,
        kind: SummaryKind::Gk,
        phis: vec![0.5, 0.9, 0.99],
        expected_n: 1_000_000,
        seed: 0,
    };
    let mut f = Flags::new(words);
    while let Some(flag) = f.next_flag() {
        match flag {
            "--eps" => out.eps = check_eps(parse_f64(flag, f.value(flag)?)?)?,
            "--algo" => out.kind = SummaryKind::parse(f.value(flag)?)?,
            "--expected-n" => out.expected_n = parse_u64(flag, f.value(flag)?)?.max(1),
            "--seed" => out.seed = parse_u64(flag, f.value(flag)?)?,
            "--phi" => {
                let v = f.value(flag)?;
                out.phis = v
                    .split(',')
                    .map(|p| {
                        let phi = parse_f64("--phi", p)?;
                        if (0.0..=1.0).contains(&phi) {
                            Ok(phi)
                        } else {
                            Err(CliError::new(format!("phi must be in [0, 1], got {phi}")))
                        }
                    })
                    .collect::<Result<Vec<_>, _>>()?;
            }
            other => return Err(CliError::new(format!("unknown flag: {other}"))),
        }
    }
    Ok(out)
}

fn parse_adversary(words: &[String]) -> Result<AdversaryArgs, CliError> {
    let mut out = AdversaryArgs {
        inv_eps: 32,
        k: 6,
        target: SummaryKind::Gk,
        budget: 0,
    };
    let mut f = Flags::new(words);
    while let Some(flag) = f.next_flag() {
        match flag {
            "--inv-eps" => out.inv_eps = parse_u64(flag, f.value(flag)?)?,
            "--k" => out.k = parse_u64(flag, f.value(flag)?)?.clamp(1, 24) as u32,
            "--target" => out.target = SummaryKind::parse(f.value(flag)?)?,
            "--budget" => out.budget = parse_u64(flag, f.value(flag)?)? as usize,
            other => return Err(CliError::new(format!("unknown flag: {other}"))),
        }
    }
    adversary_stream(out.inv_eps, out.k)?;
    Ok(out)
}

fn parse_faults(words: &[String]) -> Result<FaultsArgs, CliError> {
    let mut out = FaultsArgs {
        inv_eps: 16,
        k: 6,
        target: SummaryKind::Gk,
        seed: 0xFA17,
        jobs: 0,
    };
    let mut f = Flags::new(words);
    while let Some(flag) = f.next_flag() {
        match flag {
            "--inv-eps" => out.inv_eps = parse_u64(flag, f.value(flag)?)?,
            "--k" => out.k = parse_u64(flag, f.value(flag)?)?.clamp(3, 24) as u32,
            "--target" => out.target = SummaryKind::parse(f.value(flag)?)?,
            "--seed" => out.seed = parse_u64(flag, f.value(flag)?)?,
            "--jobs" => out.jobs = parse_u64(flag, f.value(flag)?)? as usize,
            other => return Err(CliError::new(format!("unknown flag: {other}"))),
        }
    }
    adversary_stream(out.inv_eps, out.k)?;
    Ok(out)
}

fn parse_recover(words: &[String]) -> Result<RecoverArgs, CliError> {
    let mut out = RecoverArgs { n: 2_000 };
    let mut f = Flags::new(words);
    while let Some(flag) = f.next_flag() {
        match flag {
            "--n" => out.n = parse_u64(flag, f.value(flag)?)?.clamp(16, 10_000_000),
            other => return Err(CliError::new(format!("unknown flag: {other}"))),
        }
    }
    Ok(out)
}

fn parse_service(words: &[String]) -> Result<ServiceArgs, CliError> {
    let mut out = ServiceArgs {
        n: 20_000,
        batch: 512,
        shards: 8,
        threads: 1,
        eps: 0.001,
        inv_eps: 32,
        k: 4,
        export: None,
    };
    let mut f = Flags::new(words);
    while let Some(flag) = f.next_flag() {
        match flag {
            "--n" => out.n = parse_u64(flag, f.value(flag)?)?.clamp(16, 10_000_000),
            "--batch" => out.batch = parse_u64(flag, f.value(flag)?)?.clamp(1, 1 << 20) as usize,
            "--shards" => out.shards = parse_u64(flag, f.value(flag)?)?.clamp(1, 64) as usize,
            "--threads" => out.threads = parse_u64(flag, f.value(flag)?)?.clamp(1, 64) as usize,
            "--eps" => out.eps = check_eps(parse_f64(flag, f.value(flag)?)?)?,
            "--inv-eps" => out.inv_eps = parse_u64(flag, f.value(flag)?)?,
            "--k" => out.k = parse_u64(flag, f.value(flag)?)?.clamp(1, 12) as u32,
            "--export" => out.export = Some(f.value(flag)?.to_string()),
            other => return Err(CliError::new(format!("unknown flag: {other}"))),
        }
    }
    adversary_stream(out.inv_eps, out.k)?;
    Ok(out)
}

fn parse_compare(words: &[String]) -> Result<CompareArgs, CliError> {
    let mut out = CompareArgs {
        eps: 0.01,
        expected_n: 1_000_000,
        seed: 0,
    };
    let mut f = Flags::new(words);
    while let Some(flag) = f.next_flag() {
        match flag {
            "--eps" => out.eps = check_eps(parse_f64(flag, f.value(flag)?)?)?,
            "--expected-n" => out.expected_n = parse_u64(flag, f.value(flag)?)?.max(1),
            "--seed" => out.seed = parse_u64(flag, f.value(flag)?)?,
            other => return Err(CliError::new(format!("unknown flag: {other}"))),
        }
    }
    Ok(out)
}
