//! The lint engine: walk, scan, index, analyze, report.
//!
//! [`run_workspace`] walks every `.rs` file under the workspace root
//! (skipping `target/`, hidden directories, and test fixtures), scans
//! each with [`scanner`], classifies its crate with [`config`], runs the
//! per-file [`rules`] registry, then builds the whole-workspace
//! [`analysis::Workspace`] (token streams → item index → call graph) and
//! runs the graph analyses: purity certification, panic reachability,
//! and the shared-state audit. Suppression is centralized here: rules
//! and analyses emit unconditionally, the engine filters findings
//! against `cqs-lint: allow(...)` directives and reports directives that
//! match nothing as `unused-allow` warnings. [`lint_source`] is the
//! in-memory entry point the fixture tests use.

pub mod analysis;
pub mod baseline;
pub mod callgraph;
pub mod config;
pub mod items;
pub mod json;
pub mod rules;
pub mod scanner;
pub mod tokens;

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use analysis::{CertStatus, FileInput, ModelCertificate, Workspace};
use config::role_of;
use rules::{check_file, RuleCtx};

/// How bad a finding is. Errors fail the gate; warnings are printed.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    /// Reported, does not affect the exit code.
    Warning,
    /// Fails `cargo run -p cqs-xtask -- lint` and the tier-1 gate.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One finding at a specific source location.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Id of the rule that fired.
    pub rule: &'static str,
    /// Severity of the rule.
    pub severity: Severity,
    /// Human-readable explanation.
    pub message: String,
    /// True when the finding matches an entry of the committed
    /// `lint-baseline.json`: still reported, but it neither fails the
    /// gate nor counts as new.
    pub baselined: bool,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = if self.baselined { " (baselined)" } else { "" };
        write!(
            f,
            "{}[{}]{tag}: {}:{}: {}",
            self.severity, self.rule, self.file, self.line, self.message
        )
    }
}

/// The outcome of a workspace (or single-source) lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// All findings, sorted by (file, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// How many `.rs` files were scanned.
    pub files_scanned: usize,
    /// How many function items the index holds.
    pub fns_indexed: usize,
    /// Call sites the graph could not resolve to a workspace function
    /// (std and gated common names) — the analyses' assumption surface.
    pub unresolved_calls: usize,
    /// One purity certificate per summary / bounded-universe crate.
    pub certificates: Vec<ModelCertificate>,
}

impl LintReport {
    /// Error-severity findings (including baselined ones).
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Warning-severity findings.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }

    /// True when no non-baselined error-severity finding is present.
    pub fn is_clean(&self) -> bool {
        !self
            .diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error && !d.baselined)
    }

    /// Renders the report the way the CLI prints it.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for d in &self.diagnostics {
            s.push_str(&d.to_string());
            s.push('\n');
        }
        for c in &self.certificates {
            match c.status {
                CertStatus::Certified => {
                    s.push_str(&format!(
                        "certificate[cqs-{}]: certified ({} fns analyzed, {} assumptions)\n",
                        c.crate_name, c.fns_analyzed, c.assumptions
                    ));
                }
                CertStatus::Refused => {
                    s.push_str(&format!(
                        "certificate[cqs-{}]: REFUSED ({} fns analyzed)\n",
                        c.crate_name, c.fns_analyzed
                    ));
                    for r in &c.reasons {
                        s.push_str(&format!("  - {r}\n"));
                    }
                }
            }
        }
        let errors = self.errors().count();
        let warnings = self.warnings().count();
        let baselined = self.diagnostics.iter().filter(|d| d.baselined).count();
        s.push_str(&format!(
            "cqs-lint: {} files scanned, {} fns indexed, {errors} errors, \
             {warnings} warnings, {baselined} baselined\n",
            self.files_scanned, self.fns_indexed
        ));
        s
    }
}

/// Lints a single source string as if it were `<crate>/<path>`; the
/// fixture tests drive rules *and* the graph analyses through this
/// without touching the disk (the file forms a one-file workspace).
pub fn lint_source(crate_name: &str, rel_path: &str, src: &str) -> Vec<Diagnostic> {
    let report = lint_inputs(vec![FileInput {
        rel: rel_path.to_string(),
        crate_name: crate_name.to_string(),
        role: role_of(crate_name),
        test_file: is_test_path(rel_path),
        src: src.to_string(),
    }]);
    report.diagnostics
}

/// Lints a set of in-memory sources as one workspace. The fixture tests
/// use this to exercise cross-file resolution (a summary crate passing
/// an item to a helper in another file).
pub fn lint_inputs(inputs: Vec<FileInput>) -> LintReport {
    let ws = Workspace::build(inputs);
    let mut report = LintReport {
        files_scanned: ws.files.len(),
        fns_indexed: ws.index.fns.len(),
        unresolved_calls: ws.graph.unresolved_count(),
        ..Default::default()
    };

    let mut raw = Vec::new();
    for f in &ws.files {
        let ctx = RuleCtx {
            path: &f.rel,
            crate_name: &f.crate_name,
            role: f.role,
            file: &f.scanned,
            test_file: f.test_file,
        };
        check_file(&ctx, &mut raw);
    }
    let analyzed = analysis::run(&ws);
    raw.extend(analyzed.diagnostics);
    report.certificates = analyzed.certificates;

    suppress(&ws, raw, &mut report.diagnostics);
    sort(&mut report.diagnostics);
    report
}

/// Walks the workspace at `root` and lints every `.rs` file.
pub fn run_workspace(root: &Path) -> io::Result<LintReport> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    files.sort();

    let mut inputs = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let Some((crate_name, in_crate)) = classify(&rel) else {
            continue;
        };
        let src = fs::read_to_string(&path)?;
        inputs.push(FileInput {
            rel: rel.clone(),
            crate_name: crate_name.to_string(),
            role: role_of(crate_name),
            test_file: is_test_path(in_crate),
            src,
        });
    }
    Ok(lint_inputs(inputs))
}

/// Central suppression: drops findings matched by a line- or file-level
/// `cqs-lint: allow(...)`, then reports every directive that matched
/// nothing as an `unused-allow` warning (library code only — directives
/// inside test code guard nothing, since the rules skip test lines, and
/// are reported too).
fn suppress(ws: &Workspace, raw: Vec<Diagnostic>, out: &mut Vec<Diagnostic>) {
    let mut used_line: BTreeSet<(String, usize, String)> = BTreeSet::new();
    let mut used_file: BTreeSet<(String, String)> = BTreeSet::new();
    for d in raw {
        let Some(sf) = ws.file_at(&d.file) else {
            out.push(d);
            continue;
        };
        let line_allowed = d.line >= 1
            && sf
                .scanned
                .lines
                .get(d.line - 1)
                .map(|l| l.allowed(d.rule))
                .unwrap_or(false);
        if line_allowed {
            used_line.insert((d.file.clone(), d.line, d.rule.to_string()));
            continue;
        }
        if sf.scanned.file_allows.contains(d.rule) {
            used_file.insert((d.file.clone(), d.rule.to_string()));
            continue;
        }
        out.push(d);
    }

    for f in &ws.files {
        for line in &f.scanned.lines {
            for a in &line.allows {
                if !used_line.contains(&(f.rel.clone(), line.number, a.clone())) {
                    out.push(Diagnostic {
                        file: f.rel.clone(),
                        line: line.number,
                        rule: "unused-allow",
                        severity: Severity::Warning,
                        message: format!(
                            "suppression `cqs-lint: allow({a})` matches no finding on this \
                             line; remove it"
                        ),
                        baselined: false,
                    });
                }
            }
        }
        for (line, rule) in &f.scanned.file_allow_sites {
            if !used_file.contains(&(f.rel.clone(), rule.clone())) {
                out.push(Diagnostic {
                    file: f.rel.clone(),
                    line: *line,
                    rule: "unused-allow",
                    severity: Severity::Warning,
                    message: format!(
                        "suppression `cqs-lint: allow-file({rule})` matches no finding in \
                         this file; remove it"
                    ),
                    baselined: false,
                });
            }
        }
    }
}

fn sort(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule, a.message.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.rule,
            b.message.as_str(),
        ))
    });
}

/// Splits a workspace-relative path into (crate name, crate-relative
/// path). Root-package sources map to crate `"."`. Returns `None` for
/// files outside any package.
fn classify(rel: &str) -> Option<(&str, &str)> {
    if let Some(rest) = rel.strip_prefix("crates/") {
        let (name, in_crate) = rest.split_once('/')?;
        return Some((name, in_crate));
    }
    if rel.starts_with("src/") || rel.starts_with("tests/") || rel.starts_with("benches/") {
        return Some((".", rel));
    }
    None
}

/// Files under tests/, benches/, or examples/ of their crate: test-only
/// code, exempt from the library rules (the engine still parses them, so
/// rules that apply to test code see them).
fn is_test_path(in_crate: &str) -> bool {
    in_crate.starts_with("tests/")
        || in_crate.starts_with("benches/")
        || in_crate.starts_with("examples/")
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // `fixtures/` holds deliberately violating sources for the
            // rule tests; they must not fail the workspace run.
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_paths() {
        assert_eq!(classify("crates/gk/src/lib.rs"), Some(("gk", "src/lib.rs")));
        assert_eq!(classify("src/lib.rs"), Some((".", "src/lib.rs")));
        assert_eq!(
            classify("tests/conformance.rs"),
            Some((".", "tests/conformance.rs"))
        );
        assert_eq!(classify("ci.rs"), None);
    }

    #[test]
    fn lint_source_flags_and_suppresses() {
        let bad =
            "#![forbid(unsafe_code)]\n#![warn(missing_docs)]\nuse std::collections::HashMap;\n";
        let diags = lint_source("gk", "src/lib.rs", bad);
        assert!(diags.iter().any(|d| d.rule == "hash-default"), "{diags:?}");

        let ok = "#![forbid(unsafe_code)]\n#![warn(missing_docs)]\nuse std::collections::HashMap; // cqs-lint: allow(hash-default)\n";
        let diags = lint_source("gk", "src/lib.rs", ok);
        assert!(!diags.iter().any(|d| d.rule == "hash-default"), "{diags:?}");
    }

    #[test]
    fn unused_allow_is_reported() {
        let src = "#![forbid(unsafe_code)]\n#![warn(missing_docs)]\nlet x = 1; // cqs-lint: allow(hash-default)\n";
        let diags = lint_source("gk", "src/lib.rs", src);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "unused-allow" && d.line == 3),
            "{diags:?}"
        );

        let src =
            "#![forbid(unsafe_code)]\n#![warn(missing_docs)]\n// cqs-lint: allow-file(float-eq)\n";
        let diags = lint_source("gk", "src/lib.rs", src);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "unused-allow" && d.message.contains("allow-file(float-eq)")),
            "{diags:?}"
        );
    }

    #[test]
    fn used_allow_is_not_reported_unused() {
        let src = "#![forbid(unsafe_code)]\n#![warn(missing_docs)]\nuse std::collections::HashMap; // cqs-lint: allow(hash-default)\n";
        let diags = lint_source("gk", "src/lib.rs", src);
        assert!(!diags.iter().any(|d| d.rule == "unused-allow"), "{diags:?}");
    }

    #[test]
    fn harness_crates_may_time_and_hash() {
        let src = "#![forbid(unsafe_code)]\n#![warn(missing_docs)]\nuse std::time::Instant;\nuse std::collections::HashMap;\n";
        let diags = lint_source("bench", "src/lib.rs", src);
        assert!(diags
            .iter()
            .all(|d| d.rule != "wall-clock" && d.rule != "hash-default"));
        let diags = lint_source("gk", "src/lib.rs", src);
        assert!(diags.iter().any(|d| d.rule == "wall-clock"));
    }

    #[test]
    fn report_counts_and_exit_semantics() {
        let mut report = LintReport::default();
        assert!(report.is_clean());
        report.diagnostics.push(Diagnostic {
            file: "x.rs".into(),
            line: 1,
            rule: "hot-path-alloc",
            severity: Severity::Warning,
            message: "m".into(),
            baselined: false,
        });
        assert!(report.is_clean(), "warnings do not fail the gate");
        report.diagnostics.push(Diagnostic {
            file: "x.rs".into(),
            line: 2,
            rule: "item-bits",
            severity: Severity::Error,
            message: "m".into(),
            baselined: false,
        });
        assert!(!report.is_clean());
        assert!(report.render().contains("1 errors, 1 warnings"));
        report.diagnostics[1].baselined = true;
        assert!(report.is_clean(), "baselined errors do not fail the gate");
    }
}
