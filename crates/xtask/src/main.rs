//! CLI for the model-conformance lint engine.
//!
//! ```text
//! cargo run -p cqs-xtask -- lint [--root PATH] [--json]   # exit 1 on any error
//! cargo run -p cqs-xtask -- lint --update-baseline        # accept current findings
//! cargo run -p cqs-xtask -- rules                         # list rules + rationale
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use cqs_xtask::lint::rules::{all_rules, analysis_rules};
use cqs_xtask::lint::{baseline, json};
use cqs_xtask::run_workspace;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        Some("rules") => {
            println!("# per-file lexical rules");
            for r in all_rules() {
                println!(
                    "{:<20} {:<8} {}",
                    r.id,
                    severity_name(r.severity),
                    r.rationale
                );
            }
            println!();
            println!("# whole-workspace analyses (call graph)");
            for m in analysis_rules() {
                println!(
                    "{:<20} {:<8} {}",
                    m.id,
                    severity_name(m.severity),
                    m.rationale
                );
            }
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!(
                "usage: cargo run -p cqs-xtask -- \
                 <lint [--root PATH] [--json] [--no-baseline] [--update-baseline] | rules>"
            );
            ExitCode::from(2)
        }
    }
}

fn severity_name(s: cqs_xtask::Severity) -> &'static str {
    match s {
        cqs_xtask::Severity::Error => "error",
        cqs_xtask::Severity::Warning => "warning",
    }
}

fn lint(args: &[String]) -> ExitCode {
    let mut root = workspace_root();
    let mut as_json = false;
    let mut use_baseline = true;
    let mut update_baseline = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => match it.next() {
                Some(p) => root = PathBuf::from(p),
                None => {
                    eprintln!("--root requires a path");
                    return ExitCode::from(2);
                }
            },
            "--json" => as_json = true,
            "--no-baseline" => use_baseline = false,
            "--update-baseline" => update_baseline = true,
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::from(2);
            }
        }
    }
    let mut report = match run_workspace(&root) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("cqs-lint: io error: {e}");
            return ExitCode::from(2);
        }
    };
    if update_baseline {
        let path = root.join(baseline::BASELINE_FILE);
        let text = baseline::render(&report);
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("cqs-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!("cqs-lint: wrote {}", path.display());
        return ExitCode::SUCCESS;
    }
    if use_baseline {
        match baseline::Baseline::load(&root) {
            Ok(Some(b)) => {
                b.apply(&mut report);
            }
            Ok(None) => {}
            Err(e) => {
                eprintln!("cqs-lint: bad baseline: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if as_json {
        print!("{}", json::render(&report));
    } else {
        print!("{}", report.render());
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The workspace root: `CARGO_MANIFEST_DIR` is `crates/xtask`, so two
/// levels up. Falls back to the current directory when run directly.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}
