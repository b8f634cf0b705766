//! # cqs-core — the PODS'20 tight lower bound, executable
//!
//! This crate implements the primary contribution of Cormode & Veselý,
//! *A Tight Lower Bound for Comparison-Based Quantile Summaries* (PODS
//! 2020): the recursive adversarial construction that forces **any**
//! deterministic comparison-based ε-approximate quantile summary to store
//! Ω((1/ε)·log εN) items, matching the Greenwald–Khanna upper bound.
//!
//! The paper is a proof; this crate makes every moving part of the proof
//! an executable object:
//!
//! * [`model`] — the comparison-based computational model of
//!   Definition 2.1, as traits ([`ComparisonSummary`], [`RankEstimator`])
//!   with item-array introspection.
//! * [`state`] — a live stream/summary pair with order-statistic
//!   indexing: `rank_σ(a)`, `next(σ,a)`, `prev(σ,b)` and restricted item
//!   arrays `I^(ℓ,r)`.
//! * [`gap`] — the largest-gap quantities of Definitions 3.3 and 5.1.
//! * [`refine`] — `RefineIntervals` (Pseudocode 1).
//! * [`adversary`] — `AdvStrategy` (Pseudocode 2), with a full per-node
//!   audit trail of the recursion tree.
//! * [`spacegap`] — the space-gap inequality (Lemma 5.2) and the gap
//!   recurrence `g ≥ g′ + g″ − 1` (Claim 1), checked at every node.
//! * [`failure`] — Lemma 3.4: when the gap exceeds 2εN, extract a
//!   quantile query on which the summary provably errs.
//! * [`median`] — Theorem 6.1 (approximate median reduction).
//! * [`rank_estimation`] — Theorem 6.2 (Estimating Rank lower bound).
//! * [`biased`] — Theorem 6.5 (biased quantiles, k-phase construction).
//! * [`randomized`] — Theorems 6.3/6.4 (derandomization reduction).
//! * [`offline`] — the ⌈1/(2ε)⌉ offline-optimal summary from Section 1.
//! * [`mod@reference`] — an exact (store-everything) summary used as ground
//!   truth and as the simplest legal instance of the model.
//!
//! ## Quick tour
//!
//! ```
//! use cqs_core::{run_lower_bound, Eps, reference::ExactSummary};
//!
//! // Drive the adversary against a summary that stores everything: all
//! // inequalities of the paper hold, and the gap stays at its minimum.
//! let eps = Eps::from_inverse(8);
//! let report = run_lower_bound(eps, 3, || ExactSummary::new());
//! assert!(report.equivalence_ok);
//! assert_eq!(report.claim1_violations, 0);
//! assert_eq!(report.lemma52_violations, 0);
//! assert!(report.n == 64); // N_k = (1/ε)·2^k
//! ```

pub mod adversary;
pub mod biased;
pub mod bounds;
pub mod eps;
pub mod failure;
pub mod gap;
pub mod histogram;
pub mod median;
pub mod merge;
pub mod model;
pub mod offline;
pub mod randomized;
pub mod rank_estimation;
pub mod reference;
pub mod refine;
pub mod rng;
mod run_order;
pub mod spacegap;
pub mod state;

pub use adversary::{
    run_lower_bound, try_run_adversary, try_run_adversary_repr, Adversary, AdversaryBudget,
    AdversaryError, AdversaryOutcome, AdversaryReport, NodeAudit, PartialRun, RankProbe,
    RunVerdict,
};
pub use eps::Eps;
pub use failure::{quantile_failure_witness, FailureWitness};
pub use gap::{compute_gap, compute_gap_scratch, GapInfo, GapScratch};
pub use histogram::{equi_depth_histogram, EquiDepthHistogram};
pub use merge::{MergeError, MergeableSummary};
pub use model::{ComparisonSummary, MaxSpaceTracker, RankEstimator};
pub use refine::{refine_intervals, RefineError};
pub use rng::SplitMix64;
pub use spacegap::{space_gap_rhs, theorem22_bound, SPACE_GAP_C_NUM};
pub use state::{StreamRepr, StreamState};

pub use cqs_universe::{Endpoint, Interval, Item};

/// Compile-time audit that the adversary state machine can cross thread
/// boundaries: the `cqs-bench` parallel sweep pool moves whole runs onto
/// scoped worker threads, so the driver types must be `Send` whenever
/// the summary is. Never called — instantiating the inner assertions
/// type-checks the bounds; the `sharding-send-sync` lint rule keeps the
/// lines from being deleted.
#[allow(dead_code)]
fn sharding_send_audit<S: ComparisonSummary<Item> + Send>() {
    fn assert_send<T: Send>() {}
    assert_send::<Adversary<S>>();
    assert_send::<AdversaryOutcome<S>>();
    assert_send::<AdversaryError>();
    assert_send::<AdversaryReport>();
    assert_send::<StreamState<S>>();
    assert_send::<StreamRepr>();
    assert_send::<RunVerdict>();
    assert_send::<AdversaryBudget>();
    assert_send::<Eps>();
    // The service's fold worker carries merge refusals across threads.
    assert_send::<MergeError>();
}
