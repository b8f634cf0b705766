//! Comparison-model rules (Definition 2.1).
//!
//! A comparison-based summary may store, copy, and compare items — and
//! nothing else. Conditions (i)–(iv) of Definition 2.1 make the
//! summary's behaviour a function of the *ordering pattern* of the
//! stream alone; the lower bound's adversary (and the indistinguish-
//! ability argument behind Lemma 3.4) collapses the moment a summary
//! inspects an item's representation. These rules keep the summary
//! crates inside that model. (`mem::transmute` needs `unsafe`, which
//! `[workspace.lints.rust] unsafe_code = "forbid"` already rejects.)

use super::super::config::Role;
use super::super::scanner::contains_word;
use super::{Rule, RuleCtx};
use crate::lint::{Diagnostic, Severity};

/// Trait bounds that would let a summary do more than compare its items.
/// `Ord`, `Clone`, `Eq` are the allowed vocabulary; anything arithmetic,
/// bitwise, hashing, or numeric-converting leaves the model.
const FORBIDDEN_BOUNDS: &[&str] = &[
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Rem",
    "Shl",
    "Shr",
    "BitAnd",
    "BitOr",
    "BitXor",
    "Hash",
    "ToPrimitive",
    "AsPrimitive",
    "NumCast",
    "Float",
];

/// Methods that read an item's bit representation.
const BIT_METHODS: &[&str] = &[
    "to_bits",
    "from_bits",
    "to_ne_bytes",
    "from_ne_bytes",
    "to_le_bytes",
    "from_le_bytes",
    "to_be_bytes",
    "from_be_bytes",
];

/// Universe-construction entry points; only `cqs-universe` (and the
/// adversary harness that drives it) may mint items.
const MINT_FNS: &[&str] = &["from_label", "generate_increasing"];

static ITEM_ARITHMETIC: Rule = Rule {
    id: "item-arithmetic",
    severity: Severity::Error,
    rationale: "summary item types may only be bounded by comparison traits (Definition 2.1: \
                items are opaque; only <, =, > outcomes may influence behaviour)",
    applies: Role::comparison_rules,
    check: check_item_arithmetic,
};

static ITEM_BITS: Rule = Rule {
    id: "item-bits",
    severity: Severity::Error,
    rationale: "reading an item's bit pattern (to_bits/to_ne_bytes/...) leaves the comparison \
                model and voids the lower bound's adversary argument",
    applies: Role::comparison_rules,
    check: check_item_bits,
};

static ITEM_MINT: Rule = Rule {
    id: "item-mint",
    severity: Severity::Error,
    rationale: "only cqs-universe may construct items; a summary that mints items can answer \
                queries with values never observed, outside Definition 2.1(iv)",
    applies: Role::comparison_rules,
    check: check_item_mint,
};

/// The comparison-model rule set.
pub fn rules() -> Vec<&'static Rule> {
    vec![&ITEM_ARITHMETIC, &ITEM_BITS, &ITEM_MINT]
}

fn check_item_arithmetic(ctx: &RuleCtx<'_>, out: &mut Vec<Diagnostic>) {
    for line in &ctx.file.lines {
        if line.in_test || ctx.test_file {
            continue;
        }
        // Bounds appear in generics and where-clauses; an `impl Add for`
        // on an internal numeric type would also (rightly) be flagged —
        // a summary crate has no business defining arithmetic.
        for bound in FORBIDDEN_BOUNDS {
            if contains_word(&line.code, bound) {
                ctx.emit(
                    out,
                    &ITEM_ARITHMETIC,
                    line.number,
                    format!(
                        "non-comparison trait `{bound}` in a summary crate; items admit only \
                         Ord/Eq/Clone"
                    ),
                );
                break;
            }
        }
    }
}

fn check_item_bits(ctx: &RuleCtx<'_>, out: &mut Vec<Diagnostic>) {
    for line in &ctx.file.lines {
        if line.in_test || ctx.test_file {
            continue;
        }
        for m in BIT_METHODS {
            if contains_word(&line.code, m) {
                ctx.emit(
                    out,
                    &ITEM_BITS,
                    line.number,
                    format!(
                        "`{m}` inspects a value's representation; summaries must treat \
                             items opaquely"
                    ),
                );
                break;
            }
        }
    }
}

fn check_item_mint(ctx: &RuleCtx<'_>, out: &mut Vec<Diagnostic>) {
    for line in &ctx.file.lines {
        if line.in_test || ctx.test_file {
            continue;
        }
        for f in MINT_FNS {
            if contains_word(&line.code, f) {
                ctx.emit(
                    out,
                    &ITEM_MINT,
                    line.number,
                    format!(
                        "`{f}` constructs universe items; summaries may only store and \
                             compare what they are given"
                    ),
                );
                break;
            }
        }
    }
}
