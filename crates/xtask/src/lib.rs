//! # cqs-xtask — the model-conformance lint engine
//!
//! The lower bound of Cormode & Veselý holds only for summaries that are
//! *comparison-based* (Definition 2.1) and *deterministic*: Gupta,
//! Singhal & Wu (2024) show that leaving the comparison model breaks the
//! Ω((1/ε)·log εN) bound, and KLL evades it via randomness — which this
//! workspace deliberately freezes behind fixed seeds. The Rust type
//! system guards part of that boundary (summaries are generic over
//! `T: Ord` and instantiated with the opaque `cqs_universe::Item`),
//! but nothing in `cargo test` stops a future refactor from casting
//! items to bits, pulling in a randomly seeded `HashMap`, or branching
//! on wall-clock time.
//!
//! This crate is that missing enforcement layer: a std-only static
//! analysis engine. The per-file lexical rules (see [`lint::rules`])
//! check three families — **comparison-model** (summary crates must
//! treat items opaquely), **determinism** (library behaviour must be a
//! pure function of comparison outcomes, Lemma 3.4's
//! indistinguishability argument), and **robustness** (no raw float
//! equality, no per-call allocation on hot paths). On top of those,
//! a whole-workspace pass (see [`lint::analysis`]) tokenizes every
//! file, indexes its items, and builds a cross-crate call graph to run:
//!
//! * **purity certification** — a taint analysis proving each summary
//!   crate's item values flow only into `Ord`/`Eq`/`Clone` operations,
//!   emitting a per-crate `ModelCertificate` (and *refusing* one for
//!   the bounded-universe `cqs-qdigest`, which is the point: the lower
//!   bound only constrains certified crates);
//! * **panic reachability** — from the `try_*` driver entry points and
//!   the summary hot paths, replacing the old name-list heuristics;
//! * **shared-state audit** — derives the set of types riding the
//!   parallel sweep pool and checks their `assert_send` audits.
//!
//! Run it as `cargo run -p cqs-xtask -- lint` (add `--json` for the
//! machine-readable report, byte-stable for the committed
//! `lint-baseline.json`); it is also embedded in tier-1 via the root
//! package's `tests/conformance.rs`. Suppress a finding with a
//! documented `// cqs-lint: allow(<rule>)` comment on (or directly
//! above) the offending line, or `// cqs-lint: allow-file(<rule>)`
//! anywhere in the file — unused directives are themselves reported.
//! DESIGN.md's "Model enforcement" section maps every rule to the paper
//! condition it guards.

pub mod lint;

pub use lint::{run_workspace, LintReport, Severity};
