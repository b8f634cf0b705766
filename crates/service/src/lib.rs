//! A sharded, multi-tenant quantile service over comparison-based
//! summaries.
//!
//! The lower-bound construction (Theorem 2.2) prices a single summary;
//! this crate is the layer that runs *many* of them concurrently
//! without giving up the model or the error guarantees:
//!
//! - [`QuantileRegistry`] — a lock-striped map from string keys to
//!   per-key shard slots; [`SummaryHandle`]s are cheap `Arc` clones
//!   that keep recording off the key map (the registry/handle split of
//!   production metrics facades).
//! - Per-key **shards**: each key owns `S` independent summaries so
//!   concurrent writers do not serialize on one mutex. Reads fold the
//!   shards from scratch with
//!   [`MergeableSummary::try_merge`](cqs_core::MergeableSummary), so
//!   the composed error is bounded by (non-empty shards) × ε₀ — the
//!   mergeable-summaries contract — no matter how often folds run.
//! - [`parallel_ingest`] — deterministic fan-out: batch `b` lands on
//!   shard `b mod S` and workers claim whole shards, so the final
//!   state (and any [`QuantileExport`] bytes) is identical for every
//!   thread count — the same contract as the harness `--jobs` flag.
//! - [`MergeWorker`] — a condvar-driven background folder woken every
//!   `fold_cadence` ingest runs (never by a wall clock; the workspace
//!   determinism rules ban `Instant`/`SystemTime`).
//!
//! Everything is std-only, like the rest of the workspace: scoped
//! threads, mutexes, and condvars — no async runtime, no registry
//! crates.

mod export;
mod ingest;
mod registry;
mod worker;

pub use export::{KeyQuantiles, QuantileExport, DEFAULT_PHI_GRID};
pub use ingest::parallel_ingest;
pub use registry::{QuantileRegistry, ServiceConfig, SummaryHandle};
pub use worker::MergeWorker;
