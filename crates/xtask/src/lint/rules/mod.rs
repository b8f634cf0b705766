//! The three rule families.
//!
//! Every rule has a kebab-case id (used in diagnostics and in
//! `// cqs-lint: allow(<id>)` suppressions), a severity, and a one-line
//! rationale tied to the paper. `all_rules()` is the registry the CLI's
//! `rules` subcommand prints and the engine iterates.

pub mod comparison;
pub mod determinism;
pub mod robustness;

use super::config::Role;
use super::scanner::ScannedFile;
use super::{Diagnostic, Severity};

/// A single lint rule.
pub struct Rule {
    /// Stable kebab-case identifier, e.g. `hash-default`.
    pub id: &'static str,
    /// Diagnostic severity: errors fail the gate, warnings are reported.
    pub severity: Severity,
    /// One-line description shown by `cargo run -p cqs-xtask -- rules`.
    pub rationale: &'static str,
    /// Whether the rule applies to a crate with this role at all.
    pub applies: fn(Role) -> bool,
    /// The check itself: emit diagnostics for one scanned file.
    pub check: fn(&RuleCtx<'_>, &mut Vec<Diagnostic>),
}

/// Everything a rule sees about one file.
pub struct RuleCtx<'a> {
    /// Path as reported in diagnostics (workspace-relative).
    pub path: &'a str,
    /// Crate directory name (`"."` for the root package) — the key the
    /// per-crate rule tables (e.g. `SEND_AUDITED_TYPES`) are indexed by.
    pub crate_name: &'a str,
    /// Role of the owning crate.
    pub role: Role,
    /// The scanned file.
    pub file: &'a ScannedFile,
    /// True for files under `tests/`, `benches/`, or `examples/` of a
    /// crate — test-only code, exempt from library rules.
    pub test_file: bool,
}

impl RuleCtx<'_> {
    /// Helper: push a diagnostic. Suppression is *not* checked here —
    /// the engine filters findings against `cqs-lint: allow` directives
    /// centrally, so it can also report unused directives.
    pub fn emit(&self, out: &mut Vec<Diagnostic>, rule: &Rule, line: usize, message: String) {
        out.push(Diagnostic {
            file: self.path.to_string(),
            line,
            rule: rule.id,
            severity: rule.severity,
            message,
            baselined: false,
        });
    }
}

/// Metadata for a diagnostic id that is produced by the whole-workspace
/// analyses (or the engine itself) rather than a per-file [`Rule`]. The
/// CLI's `rules` subcommand prints these alongside the lexical registry
/// so every id that can appear in a report is documented in one place.
pub struct RuleMeta {
    /// Stable kebab-case identifier.
    pub id: &'static str,
    /// Diagnostic severity.
    pub severity: Severity,
    /// One-line description.
    pub rationale: &'static str,
}

/// Ids emitted by the call-graph analyses and the engine.
pub fn analysis_rules() -> &'static [RuleMeta] {
    const METAS: &[RuleMeta] = &[
        RuleMeta {
            id: "model-purity",
            severity: Severity::Error,
            rationale: "taint analysis over the call graph: item values in a summary crate \
                        may flow only into Ord/Eq/Clone operations (Definition 2.1); any \
                        arithmetic/bit sink refuses the crate's ModelCertificate",
        },
        RuleMeta {
            id: "driver-no-panic",
            severity: Severity::Error,
            rationale: "panic reachability from the try_* driver entry points: every helper \
                        the guarded driver can reach must return typed AdversaryError values, \
                        never unwind",
        },
        RuleMeta {
            id: "hot-path-panic",
            severity: Severity::Error,
            rationale: "panic reachability from the summary hot paths (insert/query/merge): \
                        unwrap/expect/panic! anywhere the hot path can reach fails under \
                        adversarial input",
        },
        RuleMeta {
            id: "reachable-indexing",
            severity: Severity::Warning,
            rationale: "slice/map indexing reachable from a hot path or the driver panics \
                        out-of-bounds; reviewed sites are ratcheted via lint-baseline.json",
        },
        RuleMeta {
            id: "sharding-send-sync",
            severity: Severity::Error,
            rationale: "types that ride the cqs-bench parallel sweep pool are derived from \
                        the call graph (spawn sites and their callers); each must keep a \
                        compile-time assert_send audit line in its defining crate",
        },
        RuleMeta {
            id: "unused-allow",
            severity: Severity::Warning,
            rationale: "a cqs-lint: allow(...) directive that matches no finding is dead \
                        weight and hides future regressions at that site",
        },
        RuleMeta {
            id: "stale-baseline",
            severity: Severity::Warning,
            rationale: "a lint-baseline.json entry that no longer fires should be removed \
                        (refresh with --update-baseline) so the baseline only shrinks",
        },
    ];
    METAS
}

/// The full registry, in reporting order.
pub fn all_rules() -> Vec<&'static Rule> {
    let mut v: Vec<&'static Rule> = Vec::new();
    v.extend(comparison::rules());
    v.extend(determinism::rules());
    v.extend(robustness::rules());
    v
}

/// Runs every applicable rule over one file.
pub fn check_file(ctx: &RuleCtx<'_>, out: &mut Vec<Diagnostic>) {
    for rule in all_rules() {
        if (rule.applies)(ctx.role) {
            (rule.check)(ctx, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_are_unique_and_kebab_case() {
        let rules = all_rules();
        let mut seen = std::collections::BTreeSet::new();
        for r in &rules {
            assert!(seen.insert(r.id), "duplicate rule id {}", r.id);
            assert!(
                r.id.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "rule id {} is not kebab-case",
                r.id
            );
        }
        for m in analysis_rules() {
            assert!(seen.insert(m.id), "duplicate rule id {}", m.id);
            assert!(
                m.id.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "rule id {} is not kebab-case",
                m.id
            );
        }
        assert!(
            rules.len() + analysis_rules().len() >= 15,
            "expected the full registry"
        );
    }
}
