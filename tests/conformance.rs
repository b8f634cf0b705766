//! Tier-1 model-conformance gate.
//!
//! Runs the full cqs-xtask lint engine over the workspace as part of
//! plain `cargo test`: the per-file lexical rules *and* the whole-
//! workspace call-graph analyses (see DESIGN.md, "Static analysis
//! pipeline") hold for every `.rs` file in the tree, or this test — and
//! therefore tier-1 — fails. Equivalent to
//! `cargo run -p cqs-xtask -- lint` exiting 0.

use std::path::PathBuf;

use cqs_xtask::lint::analysis::CertStatus;
use cqs_xtask::lint::baseline::Baseline;

fn workspace_report() -> cqs_xtask::LintReport {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut report = cqs_xtask::run_workspace(&root).expect("workspace walk failed");
    if let Some(baseline) = Baseline::load(&root).expect("lint-baseline.json unreadable") {
        baseline.apply(&mut report);
    }
    report
}

#[test]
fn workspace_conforms_to_the_comparison_model() {
    let report = workspace_report();
    assert!(
        report.files_scanned > 50,
        "walker found only {} files — layout changed?",
        report.files_scanned
    );
    let errors: Vec<String> = report
        .errors()
        .filter(|d| !d.baselined)
        .map(ToString::to_string)
        .collect();
    assert!(
        errors.is_empty(),
        "model-conformance violations (fix them, add a documented \
         `// cqs-lint: allow(<rule>)`, or refresh lint-baseline.json via \
         `cargo run -p cqs-xtask -- lint --update-baseline`):\n{}",
        errors.join("\n")
    );
    // Warnings are surfaced in the test output but do not fail the gate.
    for w in report.warnings() {
        eprintln!("{w}");
    }
}

#[test]
fn every_summary_crate_holds_a_purity_certificate() {
    let report = workspace_report();
    let status = |name: &str| {
        report
            .certificates
            .iter()
            .find(|c| c.crate_name == name)
            .unwrap_or_else(|| panic!("no certificate for cqs-{name}"))
            .status
    };
    // The comparison-based summaries — the algorithms the Ω((1/ε)·log εN)
    // bound constrains — must each certify as model-pure, and so must
    // the service facade: its registry/handles move items into those
    // summaries and may never inspect them on the way.
    for name in ["ckms", "gk", "kll", "mrl", "ostree", "sampling", "service"] {
        assert_eq!(
            status(name),
            CertStatus::Certified,
            "cqs-{name} lost its comparison-model purity certificate:\n{}",
            report
                .certificates
                .iter()
                .find(|c| c.crate_name == name)
                .map(|c| c.reasons.join("\n"))
                .unwrap_or_default()
        );
    }
    // The bounded-universe sketch must be *refused* one: it consumes
    // concrete u64 keys, outside Definition 2.1 — the paper's contrast.
    assert_eq!(status("qdigest"), CertStatus::Refused);
}

/// The body of a manifest's `[name]` table, if it has one.
fn manifest_table(manifest: &str, name: &str) -> Option<String> {
    let header = format!("{name}]");
    format!("\n{manifest}")
        .split("\n[")
        .find(|t| t.starts_with(&header))
        .map(|t| t[header.len()..].to_string())
}

/// The quoted entries of the root manifest's `key = [...]` array in its
/// `[workspace]` table (one-line arrays, as the manifest writes them).
fn workspace_array(manifest: &str, key: &str) -> Vec<String> {
    let table =
        manifest_table(manifest, "workspace").expect("root manifest has a [workspace] table");
    let line = table
        .lines()
        .find(|l| l.split('=').next().map(str::trim) == Some(key))
        .unwrap_or_else(|| panic!("[workspace] has no `{key}`"));
    line.split('"')
        .skip(1)
        .step_by(2)
        .map(String::from)
        .collect()
}

/// Member directories a workspace pattern names: `dir/*` expands to
/// every subdirectory holding a `Cargo.toml`, anything else is literal.
fn expand_members(root: &std::path::Path, patterns: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    for p in patterns {
        match p.strip_suffix("/*") {
            Some(dir) => {
                for entry in std::fs::read_dir(root.join(dir)).expect("member dir readable") {
                    let path = entry.expect("dir entry").path();
                    if path.join("Cargo.toml").is_file() {
                        let name = path.file_name().expect("named").to_string_lossy();
                        out.push(format!("{dir}/{name}"));
                    }
                }
            }
            None => out.push(p.clone()),
        }
    }
    out.sort();
    out
}

#[test]
fn every_workspace_member_is_a_default_member() {
    // Tier-1 runs `cargo test` at the root, which tests the default
    // members only; a member missing here would have its tests silently
    // skipped by the gate.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    let members = expand_members(&root, &workspace_array(&manifest, "members"));
    let defaults = expand_members(&root, &workspace_array(&manifest, "default-members"));
    assert!(
        members.len() > 10,
        "found only {members:?} — layout changed?"
    );
    let missing: Vec<&String> = members.iter().filter(|m| !defaults.contains(m)).collect();
    assert!(
        missing.is_empty(),
        "workspace members outside default-members (their tests skip tier-1): {missing:?}"
    );
    assert!(
        defaults.iter().any(|d| d == "."),
        "the root package must stay a default member"
    );
}

#[test]
fn every_manifest_inherits_the_workspace_lints() {
    // `[workspace.lints]` forbids unsafe code, warns on missing docs and
    // sets the clippy floor, but only for packages that opt in with
    // `[lints] workspace = true`; a manifest that drops the table
    // silently loses all three.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    let mut packages = expand_members(&root, &workspace_array(&manifest, "members"));
    packages.push(".".to_string());
    let missing: Vec<&String> = packages
        .iter()
        .filter(|p| {
            let text = std::fs::read_to_string(root.join(p).join("Cargo.toml"))
                .unwrap_or_else(|e| panic!("{p}/Cargo.toml: {e}"));
            !manifest_table(&text, "lints").is_some_and(|t| {
                t.lines()
                    .any(|l| l.split_whitespace().collect::<String>() == "workspace=true")
            })
        })
        .collect();
    assert!(
        missing.is_empty(),
        "manifests without `[lints] workspace = true`: {missing:?}"
    );
}
