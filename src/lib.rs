//! # cqs — comparison-based quantile summaries, and the proof they can't
//! be smaller
//!
//! A faithful, executable reproduction of Cormode & Veselý, *A Tight
//! Lower Bound for Comparison-Based Quantile Summaries* (PODS 2020),
//! together with every system the paper discusses:
//!
//! | Piece | Crate | Paper role |
//! |-------|-------|------------|
//! | Adversarial construction, space-gap inequality, corollaries | [`core`] | the contribution (Sections 2–6) |
//! | Continuous ordered universe | [`universe`] | Section 2's model assumption |
//! | Order-statistic indexing over run fragments | [`ostree`] | `rank/next/prev` machinery |
//! | Greenwald–Khanna (banded + greedy + capped) | [`gk`] | the matching upper bound \[6\] |
//! | Manku–Rajagopalan–Lindsay | [`mrl`] | prior deterministic bound \[14\] |
//! | Karnin–Lang–Liberty | [`kll`] | randomized counterpart \[11\] |
//! | Reservoir sampling | [`sampling`] | randomized baseline \[13, 15\] |
//! | q-digest | [`qdigest`] | the non-comparison-based contrast \[18\] |
//! | CKMS biased quantiles | [`ckms`] | Theorem 6.5's upper-bound side \[3\] |
//! | Workloads & reporting | [`streams`] | experiment harness support |
//! | Fault injection & verdicts | [`faults`] | "any summary" really means any (Theorem 2.2) |
//! | Sharded concurrent service | [`service`] | mergeable summaries \[1\] at serving scale |
//!
//! ## Quickstart
//!
//! Summarise a stream with GK, then watch the lower bound bite:
//!
//! ```
//! use cqs::prelude::*;
//!
//! // Upper bound: GK answers any quantile within ε·N.
//! let mut gk = GkSummary::new(0.01);
//! for x in 0..10_000u64 {
//!     gk.insert(x);
//! }
//! assert!(gk.quantile(0.25).unwrap().abs_diff(2_500) <= 100);
//!
//! // Lower bound: the adversary forces any comparison-based summary to
//! // hold Ω((1/ε)·log εN) items — run it against GK itself.
//! let eps = Eps::from_inverse(32);
//! let report = run_lower_bound(eps, 5, || GkSummary::<Item>::new(eps.value()));
//! assert!(report.equivalence_ok);
//! assert!(report.final_gap <= report.gap_ceiling); // GK stays correct…
//! assert!(report.max_stored as f64 >= report.theorem22_bound); // …and pays.
//! ```

pub mod sketch;

pub use cqs_ckms as ckms;
pub use cqs_core as core;
pub use cqs_faults as faults;
pub use cqs_gk as gk;
pub use cqs_kll as kll;
pub use cqs_mrl as mrl;
pub use cqs_ostree as ostree;
pub use cqs_qdigest as qdigest;
pub use cqs_sampling as sampling;
pub use cqs_service as service;
pub use cqs_streams as streams;
pub use cqs_universe as universe;

/// The most common imports in one place.
pub mod prelude {
    pub use cqs_ckms::{Bias, CkmsSummary};
    pub use cqs_core::{
        equi_depth_histogram, run_lower_bound, try_run_adversary, AdversaryBudget, AdversaryError,
        ComparisonSummary, Eps, Item, MaxSpaceTracker, MergeError, MergeableSummary, RankEstimator,
        RunVerdict,
    };
    pub use cqs_faults::{FaultKind, FaultPlan, FaultySummary};
    pub use cqs_gk::{CappedGk, GkSummary, GreedyGk};
    pub use cqs_kll::{KllSketch, SampledKll};
    pub use cqs_mrl::MrlSummary;
    pub use cqs_qdigest::{MergeMismatch, QDigest};
    pub use cqs_sampling::ReservoirSummary;
    pub use cqs_service::{
        parallel_ingest, QuantileRegistry, ServiceConfig, SummaryHandle, DEFAULT_PHI_GRID,
    };
    pub use cqs_streams::{workload, OrdF64, Workload};
    pub use cqs_universe::{generate_increasing, Interval};
}
