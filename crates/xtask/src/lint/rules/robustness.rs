//! Robustness rules (the lexical remainder).
//!
//! The adversary exists to feed summaries their worst case; a summary
//! that panics mid-attack has not "used little space", it has failed.
//! The panic rules themselves (`driver-no-panic`, `hot-path-panic`) and
//! the shared-state audit (`sharding-send-sync`) moved to the
//! call-graph [`analysis`](super::super::analysis) passes — name lists
//! could not see helpers, and the hand-maintained type table could not
//! see new pool call sites. What remains lexical here: raw float
//! equality is forbidden (`OrdF64` in cqs-streams exists precisely so
//! ordering and equality agree via `total_cmp`), and hot paths should
//! not heap-allocate per call — the batched insert APIs and reusable
//! scratch buffers exist so that they never have to. Memory safety and
//! the docs policy need no rule: the workspace manifest sets
//! `unsafe_code = "forbid"` and `missing_docs = "warn"`, and
//! `tests/conformance.rs` checks that every member inherits them.
//! `float-eq` stays although
//! clippy has `float_cmp`: clippy exempts comparisons against zero, and
//! clippy is not part of tier-1.

use super::super::config::{Role, HOT_PATH_FNS};
use super::super::scanner::contains_word;
use super::{Rule, RuleCtx};
use crate::lint::{Diagnostic, Severity};

static HOT_PATH_ALLOC: Rule = Rule {
    id: "hot-path-alloc",
    severity: Severity::Warning,
    rationale: "insert/query hot paths should not heap-allocate per call (to_vec, format!, \
                wholesale container clones); use insert_sorted_run batching and scratch buffers",
    applies: Role::hot_path_rules,
    check: check_hot_path_alloc,
};

static FLOAT_EQ: Rule = Rule {
    id: "float-eq",
    severity: Severity::Error,
    rationale: "==/!= against float literals or NaN/INFINITY is order-unstable; use OrdF64 \
                (total_cmp) or an epsilon comparison",
    applies: |_| true,
    check: check_float_eq,
};

static SNAPSHOT_ATOMICITY: Rule = Rule {
    id: "snapshot-atomicity",
    severity: Severity::Error,
    rationale: "checkpoint/snapshot files must go through cqs_snapshot::atomic (write a temp \
                sibling, fsync-free rename); a direct File::create/fs::write on a checkpoint \
                path leaves a torn file if the process dies mid-write",
    applies: |_| true,
    check: check_snapshot_atomicity,
};

/// The robustness rule set.
pub fn rules() -> Vec<&'static Rule> {
    vec![&HOT_PATH_ALLOC, &FLOAT_EQ, &SNAPSHOT_ATOMICITY]
}

fn check_hot_path_alloc(ctx: &RuleCtx<'_>, out: &mut Vec<Diagnostic>) {
    for line in &ctx.file.lines {
        if line.in_test || ctx.test_file {
            continue;
        }
        if !line.fns.iter().any(|f| HOT_PATH_FNS.contains(&f.as_str())) {
            continue;
        }
        let hot = line.fns.last().map(String::as_str).unwrap_or("?");
        let msg = if contains_word(&line.code, "to_vec") {
            Some(format!(
                "`to_vec` inside `{hot}` copies a whole container per call"
            ))
        } else if line.code.contains("format!") {
            Some(format!(
                "`format!` inside `{hot}` heap-allocates a String per call"
            ))
        } else {
            container_field_clone(&line.code).map(|field| {
                format!("`.{field}.clone()` inside `{hot}` looks like a wholesale container copy")
            })
        };
        if let Some(m) = msg {
            ctx.emit(out, &HOT_PATH_ALLOC, line.number, m);
        }
    }
}

/// Detects `a.b.clone()` where the receiver is a plain field path (no
/// indexing, no calls) and the cloned field's name looks like a
/// container (plural, or a known container word). Per-item clones are
/// the currency of a comparison-based summary, so `item.clone()` (one
/// segment), `t.v.clone()` (singular field), and
/// `self.tuples[i].v.clone()` (indexed element) all stay quiet; only
/// wholesale container copies are flagged.
fn container_field_clone(code: &str) -> Option<&str> {
    const CONTAINER_HINTS: &[&str] = &["buffer", "reservoir", "queue", "heap", "pool", "cache"];
    let b = code.as_bytes();
    let mut search = 0;
    while let Some(rel) = code[search..].find(".clone()") {
        let dot = search + rel;
        search = dot + ".clone()".len();
        // Walk the receiver chain backwards: ident ('.' ident)*.
        let mut end = dot;
        let mut segments = 0usize;
        let mut field: Option<&str> = None;
        loop {
            let mut start = end;
            while start > 0 && is_ident(b[start - 1]) {
                start -= 1;
            }
            if start == end {
                // Not a plain ident segment: indexing (`]`), a call
                // (`)`), or the start of the line. The chain is either
                // broken (element access → quiet) or complete.
                break;
            }
            segments += 1;
            if field.is_none() {
                field = Some(&code[start..end]);
            }
            if start > 0 && b[start - 1] == b'.' {
                end = start - 1;
            } else {
                break;
            }
        }
        if segments >= 2 {
            if let Some(f) = field {
                let plural = f.len() >= 3 && f.ends_with('s') && !f.ends_with("ss");
                if plural || CONTAINER_HINTS.contains(&f) {
                    return Some(f);
                }
            }
        }
    }
    None
}

/// The one file allowed to open checkpoint paths directly: the
/// temp+rename helper everything else must route through.
const ATOMIC_HELPER: &str = "crates/snapshot/src/atomic.rs";

/// Tokens that mark a write target as recovery-critical. CSV/JSON
/// result emitters (streams `report.rs`, `perf_baseline` merge) stay
/// quiet: losing a report re-runs a sweep, losing a checkpoint torn
/// mid-write defeats the recovery machinery it feeds.
const CKPT_TOKENS: &[&str] = &["checkpoint", "snapshot", "ckpt", "cqss"];

fn check_snapshot_atomicity(ctx: &RuleCtx<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.test_file || ctx.path.ends_with(ATOMIC_HELPER) {
        return;
    }
    for line in &ctx.file.lines {
        if line.in_test {
            continue;
        }
        if !(line.code.contains("File::create") || line.code.contains("fs::write")) {
            continue;
        }
        let lower = line.code.to_ascii_lowercase();
        let on_ckpt_line = CKPT_TOKENS.iter().any(|t| lower.contains(t));
        let in_ckpt_fn = line.fns.iter().any(|f| {
            let f = f.to_ascii_lowercase();
            CKPT_TOKENS.iter().any(|t| f.contains(t))
        });
        // Inside the snapshot crate every byte written is wire format,
        // so any direct write there is a violation regardless of name.
        if on_ckpt_line || in_ckpt_fn || ctx.crate_name == "snapshot" {
            let sink = if line.code.contains("File::create") {
                "File::create"
            } else {
                "fs::write"
            };
            ctx.emit(
                out,
                &SNAPSHOT_ATOMICITY,
                line.number,
                format!(
                    "`{sink}` on a checkpoint/snapshot path bypasses the temp+rename helper \
                     (cqs_snapshot::atomic::write_atomic / save_rotating)"
                ),
            );
        }
    }
}

fn check_float_eq(ctx: &RuleCtx<'_>, out: &mut Vec<Diagnostic>) {
    for line in &ctx.file.lines {
        if line.in_test || ctx.test_file {
            continue;
        }
        let nan_like = (contains_word(&line.code, "NAN") || contains_word(&line.code, "INFINITY"))
            && (line.code.contains("==") || line.code.contains("!="));
        if nan_like || has_float_literal_eq(&line.code) {
            ctx.emit(
                out,
                &FLOAT_EQ,
                line.number,
                "raw float equality; compare via OrdF64/total_cmp or an epsilon".to_string(),
            );
        }
    }
}

/// Detects `==` / `!=` with a float literal (`1.0`, `.5`-free form: must
/// start with a digit and contain a `.`) on either side. Tuple-field
/// accesses like `x.0 == y` do not count: the literal must not be
/// preceded by an identifier character or `.`.
fn has_float_literal_eq(code: &str) -> bool {
    let b = code.as_bytes();
    let mut i = 0;
    while i + 1 < b.len() {
        if (b[i] == b'=' || b[i] == b'!') && b[i + 1] == b'=' {
            // Skip `<=`, `>=`, and the `=` of a preceding `==`.
            let prev = if i > 0 { b[i - 1] } else { b' ' };
            if b[i] == b'=' && (prev == b'<' || prev == b'>' || prev == b'=' || prev == b'!') {
                i += 1;
                continue;
            }
            if float_literal_before(b, i) || float_literal_after(b, i + 2) {
                return true;
            }
            i += 2;
        } else {
            i += 1;
        }
    }
    false
}

fn is_ident(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

fn float_literal_before(b: &[u8], op: usize) -> bool {
    let mut j = op;
    while j > 0 && b[j - 1] == b' ' {
        j -= 1;
    }
    let end = j;
    let mut saw_dot = false;
    let mut saw_digit = false;
    while j > 0 && (b[j - 1].is_ascii_digit() || b[j - 1] == b'.' || b[j - 1] == b'_') {
        saw_dot |= b[j - 1] == b'.';
        saw_digit |= b[j - 1].is_ascii_digit();
        j -= 1;
    }
    if j == end || !saw_dot || !saw_digit {
        return false;
    }
    // Literal must stand alone: `self.0` has an identifier before the run.
    !(j > 0 && (is_ident(b[j - 1]) || b[j - 1] == b'.'))
}

fn float_literal_after(b: &[u8], mut j: usize) -> bool {
    while j < b.len() && b[j] == b' ' {
        j += 1;
    }
    if j < b.len() && b[j] == b'-' {
        j += 1;
    }
    if j >= b.len() || !b[j].is_ascii_digit() {
        return false;
    }
    let mut saw_dot = false;
    while j < b.len() && (b[j].is_ascii_digit() || b[j] == b'.' || b[j] == b'_') {
        if b[j] == b'.' {
            // `1..n` is a range, not a float.
            if b.get(j + 1) == Some(&b'.') {
                return false;
            }
            saw_dot = true;
        }
        j += 1;
    }
    saw_dot
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn container_clone_detection() {
        assert_eq!(
            container_field_clone("self.tuples = other.tuples.clone();"),
            Some("tuples")
        );
        assert_eq!(
            container_field_clone("let s = self.items.clone();"),
            Some("items")
        );
        assert_eq!(
            container_field_clone("let r = self.reservoir.clone();"),
            Some("reservoir")
        );
        // Single-item clones and element access stay quiet.
        assert_eq!(container_field_clone("let v = item.clone();"), None);
        assert_eq!(
            container_field_clone("best.map(|(t, _)| t.v.clone())"),
            None
        );
        assert_eq!(
            container_field_clone("let x = self.tuples[i].v.clone();"),
            None
        );
        assert_eq!(container_field_clone("return self.min.clone();"), None);
        // Method-call receivers are unknowable: stay quiet.
        assert_eq!(container_field_clone("self.rows().items.clone()"), None);
        // `.cloned()` is not `.clone()`.
        assert_eq!(container_field_clone("self.items.first().cloned()"), None);
    }

    #[test]
    fn float_literal_detection() {
        assert!(has_float_literal_eq("if x == 1.0 {"));
        assert!(has_float_literal_eq("if 0.5 != y {"));
        assert!(has_float_literal_eq("x == -2.75"));
        assert!(!has_float_literal_eq("if x == 1 {"));
        assert!(!has_float_literal_eq("if self.0 == y {"));
        assert!(!has_float_literal_eq("for i in 1..n {"));
        assert!(!has_float_literal_eq("if a <= 1.0 {"));
        assert!(!has_float_literal_eq("if a >= 2.5 {"));
    }
}
