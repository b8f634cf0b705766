//! `AdvStrategy` — Pseudocode 2: the recursive adversarial construction.
//!
//! `AdvStrategy(k, π, ϱ, (ℓ_π, r_π), (ℓ_ϱ, r_ϱ))` walks a full binary
//! recursion tree with 2^{k−1} leaves in-order. Each leaf appends 2/ε
//! fresh items inside the current intervals (the same arrival order on
//! both streams); each internal node refines the intervals into the
//! extreme regions of the largest gap between the two recursive calls.
//! The result is a pair of indistinguishable streams of length
//! N_k = (1/ε)·2^k on which the summary's stored-item count must obey the
//! space-gap inequality at *every* node of the tree.
//!
//! This module executes the construction against two live copies of any
//! [`ComparisonSummary`] and records a [`NodeAudit`] per node, checking
//! Claim 1 and Lemma 5.2 as it goes.

use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

use cqs_universe::{generate_labels_into, Interval, Item, LabelArena};

use crate::eps::Eps;
use crate::gap::{compute_gap_scratch, GapInfo, GapScratch, TieBreak};
use crate::model::{ComparisonSummary, MaxSpaceTracker};
use crate::refine::try_refine_from;
use crate::spacegap::{claim1_holds, space_gap_holds, space_gap_rhs, theorem22_bound};
use crate::state::{EquivalenceChecker, StreamRepr, StreamState};

/// Chunk-sealing group for runs minted into an implicit stream (see
/// [`cqs_universe::LabelArena::seal_grouped_into`]): a summary-retained
/// item pins at most this many labels instead of a whole 2/ε run. The
/// stream index keeps detached copies, which pin only their own label.
/// Groups of one would pin the least but cost a chunk allocation per
/// minted item; eight cost one per eight items.
const LEAF_SEAL_GROUP: usize = 8;

/// Audit record for one node of the recursion tree (post-order).
#[derive(Clone, Debug, PartialEq)]
pub struct NodeAudit {
    /// Recursion level `k` of this node (leaves are level 1).
    pub level: u32,
    /// Items appended during this node's execution, N_k = (1/ε)·2^k.
    pub n_k: u64,
    /// Final gap `g` in this node's input intervals.
    pub g: u64,
    /// Gap `g′` after the left child (internal nodes only).
    pub g_prime: Option<u64>,
    /// Gap `g″` in the refined intervals after the right child
    /// (internal nodes only).
    pub g_dprime: Option<u64>,
    /// `S_k`: size of the restricted item array `I^(ℓ_π, r_π)` at node
    /// completion (boundary entries included, per the paper).
    pub s_k: usize,
    /// Stored items strictly inside the input interval (S_k minus the
    /// two boundary entries).
    pub stored_inside: usize,
    /// Whether Claim 1 (`g ≥ g′ + g″ − 1`) held (vacuously true at
    /// leaves).
    pub claim1_ok: bool,
    /// Whether the space-gap inequality (Lemma 5.2) held at this node.
    pub lemma52_ok: bool,
    /// The inequality's right-hand side, for reporting.
    pub space_gap_rhs: f64,
}

/// The adversary: two live streams, two live summary copies, an audit
/// trail.
pub struct Adversary<S> {
    pi: StreamState<MaxSpaceTracker<S>>,
    rho: StreamState<MaxSpaceTracker<S>>,
    eps: Eps,
    audits: Vec<NodeAudit>,
    tie_break: TieBreak,
    gap_scratch: GapScratch,
    equiv: EquivalenceChecker,
    budget: AdversaryBudget,
    /// Mints every leaf run, keeping its buffers between leaves.
    arena: LabelArena,
}

/// Everything the adversary produced: the final stream states (reusable
/// by the corollary reductions) and the audit trail.
pub struct AdversaryOutcome<S> {
    /// Stream π with its summary copy.
    pub pi: StreamState<MaxSpaceTracker<S>>,
    /// Stream ϱ with its summary copy.
    pub rho: StreamState<MaxSpaceTracker<S>>,
    /// The ε used.
    pub eps: Eps,
    /// The recursion depth k (N = (1/ε)·2^k).
    pub k: u32,
    /// Post-order audit of every recursion-tree node; the root is last.
    pub audits: Vec<NodeAudit>,
    /// First indistinguishability violation observed, if any. The
    /// driver ends a run at its first violation with
    /// [`AdversaryError::ModelViolation`], so its outcomes hold `None`;
    /// outcomes assembled elsewhere (e.g. a replay of the construction)
    /// record theirs here.
    pub equivalence_error: Option<String>,
    /// Result of the final rank-query probe (`None` only in outcomes
    /// assembled outside the driver).
    pub rank_probe: Option<RankProbe>,
}

impl<S: ComparisonSummary<Item>> fmt::Debug for AdversaryOutcome<S> {
    /// Summarises the run (the live stream states are not themselves
    /// `Debug`; their lengths stand in for them).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AdversaryOutcome")
            .field("eps", &self.eps)
            .field("k", &self.k)
            .field("pi_len", &self.pi.len())
            .field("rho_len", &self.rho.len())
            .field("audits", &self.audits.len())
            .field("equivalence_error", &self.equivalence_error)
            .field("rank_probe", &self.rank_probe)
            .finish()
    }
}

/// Flat, display-friendly summary of an adversary run.
#[derive(Clone, Debug, PartialEq)]
pub struct AdversaryReport {
    /// ε of the run.
    pub eps: Eps,
    /// Recursion depth.
    pub k: u32,
    /// Stream length N_k.
    pub n: u64,
    /// Final top-level gap gap(π, ϱ).
    pub final_gap: u64,
    /// Lemma 3.4 ceiling 2εN: correct summaries must have
    /// `final_gap ≤ gap_ceiling`.
    pub gap_ceiling: u64,
    /// |I| at the end of the stream (π copy).
    pub stored_final: usize,
    /// Running-max |I| over the whole stream (π copy) — the honest
    /// space figure for summaries that shrink after compaction.
    pub max_stored: usize,
    /// The space-gap RHS evaluated at the measured final gap.
    pub space_gap_rhs_at_gap: f64,
    /// Theorem 2.2's bound c·(k+1)/(4ε) (applies when the summary is
    /// correct, i.e. when `final_gap ≤ gap_ceiling`).
    pub theorem22_bound: f64,
    /// Number of nodes where Claim 1 failed (expected 0).
    pub claim1_violations: usize,
    /// Number of nodes where the instantaneous space-gap inequality
    /// failed. For summaries whose |I| shrinks over time this can be
    /// nonzero at interior nodes without contradicting the paper (its
    /// model assumes |I| never decreases); the top-level running-max
    /// bound is the meaningful figure.
    pub lemma52_violations: usize,
    /// Whether indistinguishability held throughout.
    pub equivalence_ok: bool,
    /// Longest universe label minted (bytes) — adversary-side cost of
    /// the continuity assumption; grows O(k), not O(N).
    pub max_label_depth: usize,
    /// Algorithm name of the summary under attack.
    pub summary_name: &'static str,
}

/// The five ways an adversary run can end — the failure taxonomy the
/// panic-free driver reports (see DESIGN.md, "Failure taxonomy & fault
/// injection"). The first two come out of a finished
/// [`AdversaryOutcome`] via [`AdversaryOutcome::verdict`]; the last
/// three out of an [`AdversaryError`] via [`AdversaryError::verdict`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RunVerdict {
    /// The construction finished and the summary behaved: the final gap
    /// stayed within Lemma 3.4's ceiling and every probed rank query was
    /// εN-accurate. Theorem 2.2's space bound therefore applies.
    Completed,
    /// The construction finished but the summary is not ε-approximate:
    /// the final gap exceeded 2εN, or a probed rank query missed by more
    /// than εN — the other horn of the paper's dilemma.
    SummaryIncorrect,
    /// The summary stepped outside the deterministic comparison-based
    /// model (Definition 2.1/3.2): its two copies diverged on
    /// indistinguishable streams, it answered with a non-stream item,
    /// its rank responses were grossly non-monotone, or it understated
    /// its stored space. The lower bound does not constrain such a
    /// summary; the run is evidence of the violation, not of incorrectness.
    ModelViolation,
    /// A summary call panicked; the run holds the audit prefix up to the
    /// offending call.
    SummaryPanicked,
    /// A configured [`AdversaryBudget`] ran out before the construction
    /// finished; the partial audit trail is still Lemma 5.2-valid.
    BudgetExhausted,
}

impl RunVerdict {
    /// Stable kebab-case name (CLI output, exit-code tables).
    pub fn as_str(self) -> &'static str {
        match self {
            RunVerdict::Completed => "completed",
            RunVerdict::SummaryIncorrect => "summary-incorrect",
            RunVerdict::ModelViolation => "model-violation",
            RunVerdict::SummaryPanicked => "summary-panicked",
            RunVerdict::BudgetExhausted => "budget-exhausted",
        }
    }
}

impl fmt::Display for RunVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Deterministic resource limits for [`Adversary::try_run`]. All
/// default to unlimited; exceeding any yields
/// [`AdversaryError::BudgetExhausted`] with the partial audit trail.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdversaryBudget {
    /// Maximum stream length (items per stream). Checked before each
    /// leaf, so the construction never feeds a partial leaf.
    pub max_steps: Option<u64>,
    /// Maximum recursion depth k.
    pub max_depth: Option<u32>,
    /// Maximum running-max stored-item count `max |I|` tolerated from
    /// the summary. Checked after each leaf.
    pub max_stored: Option<usize>,
}

/// What the final rank-query probe of [`Adversary::try_run`] measured.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankProbe {
    /// Number of rank queries issued (a grid over [1, N]).
    pub queries: usize,
    /// Largest true rank error |rank(answer) − target| observed.
    pub max_rank_error: u64,
    /// The εN budget a correct summary must stay within.
    pub rank_budget: u64,
}

/// The audit trail salvaged from a run that did not complete — enough
/// to see how far the construction got and that the Lemma 5.2 prefix
/// still holds.
#[derive(Clone, Debug)]
pub struct PartialRun {
    /// The ε of the aborted run.
    pub eps: Eps,
    /// The requested recursion depth.
    pub k: u32,
    /// Items successfully fed to *both* summary copies before the abort;
    /// after an insert panic at step s, s − 1.
    pub items_fed: u64,
    /// Running-max |I| of the π copy over the runs it finished (cached
    /// by [`MaxSpaceTracker`], so it is readable even after a panic left
    /// the summary poisoned).
    pub max_stored: usize,
    /// Post-order audits of every recursion-tree node that *completed*
    /// before the abort — a prefix of the full run's audit list.
    pub audits: Vec<NodeAudit>,
}

impl PartialRun {
    /// Number of nodes whose Lemma 5.2 check failed within the prefix.
    pub fn lemma52_violations(&self) -> usize {
        self.audits.iter().filter(|a| !a.lemma52_ok).count()
    }
}

/// Why [`Adversary::try_run`] could not produce an
/// [`AdversaryOutcome`]. Every variant except
/// [`InvalidConfig`](Self::InvalidConfig) carries the [`PartialRun`]
/// salvaged at the point of failure.
#[derive(Clone, Debug)]
pub enum AdversaryError {
    /// The run was never started: the configuration is unusable.
    InvalidConfig {
        /// Human-readable reason.
        detail: String,
    },
    /// The run was never started: the configured stream length
    /// N_k = (1/ε)·2^k does not fit in `u64`. Split from
    /// [`InvalidConfig`](Self::InvalidConfig) so sweep drivers can tell
    /// "you asked for more items than the machine can count" apart from
    /// structurally bad parameters.
    ConfigOverflow {
        /// Human-readable reason, naming ε and k.
        detail: String,
    },
    /// A process-wide capacity ran out mid-run: the arena id mint or
    /// the implicit stream's run-id space was exhausted. Typed (not a
    /// silent fast-path degradation, not a panic) so billion-item
    /// sweeps can report exactly which wall they hit.
    CapacityExhausted {
        /// Which capacity ran out, and where.
        detail: String,
        /// Salvaged audit prefix.
        partial: PartialRun,
    },
    /// A summary call panicked; the driver caught it, poisoned the run,
    /// and stopped issuing summary calls.
    SummaryPanicked {
        /// 1-based stream position whose processing panicked.
        step: u64,
        /// Which summary operation panicked (`"insert"`/`"query_rank"`).
        during: &'static str,
        /// The panic payload, stringified.
        payload: String,
        /// Salvaged audit prefix.
        partial: PartialRun,
    },
    /// The summary left the deterministic comparison-based model; see
    /// [`RunVerdict::ModelViolation`].
    ModelViolation {
        /// Human-readable description of the violation.
        detail: String,
        /// Salvaged audit prefix.
        partial: PartialRun,
    },
    /// An [`AdversaryBudget`] limit was hit.
    BudgetExhausted {
        /// Which budget ran out, and where.
        detail: String,
        /// Salvaged audit prefix.
        partial: PartialRun,
    },
}

impl AdversaryError {
    /// The verdict this error maps to. A degenerate configuration maps
    /// to [`RunVerdict::BudgetExhausted`]: the run was over before it
    /// began (callers that care distinguish it by matching the variant).
    pub fn verdict(&self) -> RunVerdict {
        match self {
            AdversaryError::InvalidConfig { .. } | AdversaryError::ConfigOverflow { .. } => {
                RunVerdict::BudgetExhausted
            }
            AdversaryError::SummaryPanicked { .. } => RunVerdict::SummaryPanicked,
            AdversaryError::ModelViolation { .. } => RunVerdict::ModelViolation,
            AdversaryError::BudgetExhausted { .. } | AdversaryError::CapacityExhausted { .. } => {
                RunVerdict::BudgetExhausted
            }
        }
    }

    /// The salvaged partial run, when one exists.
    pub fn partial(&self) -> Option<&PartialRun> {
        match self {
            AdversaryError::InvalidConfig { .. } | AdversaryError::ConfigOverflow { .. } => None,
            AdversaryError::SummaryPanicked { partial, .. }
            | AdversaryError::ModelViolation { partial, .. }
            | AdversaryError::BudgetExhausted { partial, .. }
            | AdversaryError::CapacityExhausted { partial, .. } => Some(partial),
        }
    }
}

impl fmt::Display for AdversaryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdversaryError::InvalidConfig { detail } => {
                write!(f, "invalid adversary configuration: {detail}")
            }
            AdversaryError::ConfigOverflow { detail } => {
                write!(f, "adversary configuration overflows u64: {detail}")
            }
            AdversaryError::CapacityExhausted { detail, .. } => {
                write!(f, "capacity exhausted: {detail}")
            }
            AdversaryError::SummaryPanicked {
                step,
                during,
                payload,
                ..
            } => write!(f, "summary panicked in {during} at step {step}: {payload}"),
            AdversaryError::ModelViolation { detail, .. } => {
                write!(f, "comparison-model violation: {detail}")
            }
            AdversaryError::BudgetExhausted { detail, .. } => {
                write!(f, "budget exhausted: {detail}")
            }
        }
    }
}

impl std::error::Error for AdversaryError {}

/// The abort reasons threaded up the `try_adv` recursion; converted
/// into [`AdversaryError`] (with the salvaged [`PartialRun`]) by
/// `Adversary::guarded`.
enum TryAbort {
    Panicked {
        step: u64,
        /// Items the panicking copy had processed: the partial run's
        /// `items_fed`.
        fed: u64,
        during: &'static str,
        payload: String,
    },
    Model {
        detail: String,
    },
    Budget {
        detail: String,
    },
    Exhausted {
        detail: String,
    },
}

/// Stringifies a caught panic payload (the common `&str`/`String`
/// cases; anything else gets a placeholder).
fn payload_string(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl<S: ComparisonSummary<Item>> Adversary<S> {
    /// Creates an adversary attacking two *identical* fresh copies of a
    /// summary (same parameters, same seeds).
    pub fn new(eps: Eps, summary_pi: S, summary_rho: S) -> Self {
        Adversary {
            pi: StreamState::new(MaxSpaceTracker::new(summary_pi)),
            rho: StreamState::new(MaxSpaceTracker::new(summary_rho)),
            eps,
            audits: Vec::new(),
            tie_break: TieBreak::LowestIndex,
            gap_scratch: GapScratch::default(),
            equiv: EquivalenceChecker::new(),
            budget: AdversaryBudget::default(),
            arena: LabelArena::new(),
        }
    }

    /// Sets deterministic resource limits, enforced by every run
    /// ([`run`](Self::run), [`try_run`](Self::try_run) and
    /// [`extend`](Self::extend)).
    pub fn with_budget(mut self, budget: AdversaryBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the gap tie-breaking policy (ablation; the paper allows any).
    pub fn with_tie_break(mut self, tie: TieBreak) -> Self {
        self.tie_break = tie;
        self
    }

    /// Sets the stream representation (see [`StreamRepr`]). Implicit
    /// streams keep memory sublinear in N — the billion-item
    /// configuration.
    ///
    /// # Panics
    ///
    /// Panics if any items were already fed (the representation is a
    /// construction-time choice).
    pub fn with_stream_repr(mut self, repr: StreamRepr) -> Self {
        assert!(
            self.pi.is_empty() && self.rho.is_empty(),
            "stream representation must be chosen before any item is fed"
        );
        self.pi.set_repr(repr);
        self.rho.set_repr(repr);
        self
    }

    /// The representation both streams use.
    fn repr(&self) -> StreamRepr {
        self.pi.repr()
    }

    /// [`try_run`](Self::try_run) for callers that attack summaries
    /// expected to conform: the same run, with an [`AdversaryError`]
    /// raised as a panic.
    ///
    /// # Panics
    ///
    /// Panics with the error's message if `try_run` returns one.
    pub fn run(self, k: u32) -> AdversaryOutcome<S> {
        self.try_run(k)
            .unwrap_or_else(|e| panic!("adversary run failed: {e}"))
    }

    /// Runs `AdvStrategy(k, ∅, ∅, (−∞,∞), (−∞,∞))`, enforcing the
    /// configured [`AdversaryBudget`], and finishes with a rank-query
    /// probe. A summary that panics, leaves the comparison model, or
    /// outlives its budget yields a typed [`AdversaryError`] carrying the
    /// salvaged [`PartialRun`] — no panic originating in the summary (or
    /// in the driver's own invariants, should a lying summary corrupt
    /// them) escapes this call. On success the outcome carries
    /// [`RankProbe`] data; classify it with
    /// [`AdversaryOutcome::verdict`].
    ///
    /// Each leaf indexes its two runs, then feeds each copy its run in
    /// one [`ComparisonSummary::insert_sorted_run`] call (the runs are
    /// generated in increasing order) under one `catch_unwind`. A panic
    /// is attributed to the 1-based stream step after the panicking
    /// copy's [`items_processed`](ComparisonSummary::items_processed).
    /// After both feeds the leaf compares the copies' stored counts,
    /// runs the Definition 3.2 check, and checks that neither copy's
    /// `stored_count()` understates its item array.
    ///
    /// Bulk paths must behave exactly like per-item insertion (the
    /// trait's contract), and summaries without one (KLL, CKMS) take the
    /// trait's per-item loop, so audits and reports equal those of a
    /// per-item feed; `tests/batch_equivalence.rs` pins this.
    pub fn try_run(mut self, k: u32) -> Result<AdversaryOutcome<S>, AdversaryError> {
        self.validate(k)?;
        let whole = Interval::whole();
        self.guarded(k, "mid-run", |a| a.try_adv(k, &whole, &whole))?;
        let probe = self.guarded(k, "during the rank probe", |a| a.final_rank_probe())?;
        Ok(AdversaryOutcome {
            pi: self.pi,
            rho: self.rho,
            eps: self.eps,
            k,
            audits: self.audits,
            equivalence_error: None,
            rank_probe: Some(probe),
        })
    }

    /// Runs the construction at level `k` inside the given intervals on
    /// top of whatever the streams already contain — the building block
    /// of the biased-quantiles phases (Theorem 6.5), which repeatedly
    /// invoke `AdvStrategy(i, π_{i−1}, ϱ_{i−1}, (max(π_{i−1}), ∞), …)`.
    /// Same guarded leaves and budget as [`try_run`](Self::try_run),
    /// without the final rank probe.
    ///
    /// Returns the final gap info in the given intervals. After an
    /// error the adversary's audit trail has moved into the error's
    /// [`PartialRun`].
    pub fn extend(
        &mut self,
        k: u32,
        iv_pi: &Interval,
        iv_rho: &Interval,
    ) -> Result<GapInfo, AdversaryError> {
        self.validate(k)?;
        self.guarded(k, "mid-run", |a| a.try_adv(k, iv_pi, iv_rho))
    }

    /// The live π state.
    pub fn pi(&self) -> &StreamState<MaxSpaceTracker<S>> {
        &self.pi
    }

    /// The live ϱ state.
    pub fn rho(&self) -> &StreamState<MaxSpaceTracker<S>> {
        &self.rho
    }

    /// The ε this adversary was built with.
    pub fn eps(&self) -> Eps {
        self.eps
    }

    /// Node audits accumulated so far (post-order).
    pub fn audits(&self) -> &[NodeAudit] {
        &self.audits
    }

    /// Refuses a depth the construction cannot run: k = 0, a stream
    /// length N_k that overflows `u64`, or one beyond the depth budget.
    fn validate(&mut self, k: u32) -> Result<(), AdversaryError> {
        if k < 1 {
            return Err(AdversaryError::InvalidConfig {
                detail: "recursion depth k must be at least 1".to_string(),
            });
        }
        if self.eps.try_stream_len(k).is_none() {
            return Err(AdversaryError::ConfigOverflow {
                detail: format!(
                    "stream length N_k = (1/{}) * 2^{k} does not fit in u64",
                    self.eps.inverse()
                ),
            });
        }
        match self.budget.max_depth {
            Some(max_depth) if k > max_depth => {
                let detail = format!("recursion depth {k} exceeds the depth budget of {max_depth}");
                Err(self.salvage_error(TryAbort::Budget { detail }, k))
            }
            _ => Ok(()),
        }
    }

    /// Runs one driver phase with the backstop: the driver's own
    /// invariants (stream distinctness, equal restricted-array lengths,
    /// …) are stated as asserts that a sufficiently mendacious summary
    /// can trip; any such escape is, by construction, evidence the
    /// summary left the model. `phase` names where it happened.
    fn guarded<T>(
        &mut self,
        k: u32,
        phase: &str,
        step: impl FnOnce(&mut Self) -> Result<T, TryAbort>,
    ) -> Result<T, AdversaryError> {
        let abort = match catch_unwind(AssertUnwindSafe(|| step(&mut *self))) {
            Ok(Ok(value)) => return Ok(value),
            Ok(Err(abort)) => abort,
            Err(payload) => TryAbort::Model {
                detail: format!(
                    "driver invariant violated {phase}: {}",
                    payload_string(payload)
                ),
            },
        };
        Err(self.salvage_error(abort, k))
    }

    /// One node of the recursion tree: leaves feed with every summary
    /// call guarded, refinement failures become typed aborts. Returns
    /// the node's final gap info in its *input* intervals (which is the
    /// parent's g′ or g″).
    fn try_adv(
        &mut self,
        k: u32,
        iv_pi: &Interval,
        iv_rho: &Interval,
    ) -> Result<GapInfo, TryAbort> {
        let (g_prime, g_dprime) = if k == 1 {
            self.try_leaf(iv_pi, iv_rho)?;
            (None, None)
        } else {
            let left_gap = self.try_adv(k - 1, iv_pi, iv_rho)?;
            let refinement = try_refine_from(&self.pi, &self.rho, iv_pi, iv_rho, left_gap.clone())
                .map_err(|e| TryAbort::Model {
                    detail: e.to_string(),
                })?;
            let right_gap = self.try_adv(k - 1, &refinement.iv_pi, &refinement.iv_rho)?;
            (Some(left_gap.gap), Some(right_gap.gap))
        };
        Ok(self.audit_node(k, iv_pi, iv_rho, g_prime, g_dprime))
    }

    /// Computes the node's gap in its input intervals and pushes its
    /// [`NodeAudit`]. Returns the gap info (the parent's g′ or g″).
    fn audit_node(
        &mut self,
        k: u32,
        iv_pi: &Interval,
        iv_rho: &Interval,
        g_prime: Option<u64>,
        g_dprime: Option<u64>,
    ) -> GapInfo {
        let gap_now = compute_gap_scratch(
            &self.pi,
            &self.rho,
            iv_pi,
            iv_rho,
            self.tie_break,
            &mut self.gap_scratch,
        );
        // `validate` checked N_k at the root; levels below can only be
        // smaller, so the fallback never applies.
        let n_k = self.eps.try_stream_len(k).unwrap_or(u64::MAX);
        let s_k = gap_now.restricted_len;
        let claim1_ok = match (g_prime, g_dprime) {
            (Some(gp), Some(gd)) => claim1_holds(gap_now.gap, gp, gd),
            _ => true,
        };
        self.audits.push(NodeAudit {
            level: k,
            n_k,
            g: gap_now.gap,
            g_prime,
            g_dprime,
            s_k,
            // `compute_gap` guarantees s_k ≥ 2 (the two boundary entries
            // always enclose the restricted array); saturate anyway so a
            // buggy or non-conforming summary yields a zero count in the
            // audit instead of an underflow panic mid-run.
            stored_inside: s_k.saturating_sub(2),
            claim1_ok,
            lemma52_ok: space_gap_holds(self.eps, n_k, gap_now.gap, s_k),
            space_gap_rhs: space_gap_rhs(self.eps, n_k, gap_now.gap),
        });
        gap_now
    }

    /// Mints the two leaf runs of 2/ε fresh items inside the current
    /// intervals. While the intervals coincide (e.g. the first leaf) the
    /// very same items are appended to both streams — the paper's
    /// observation. Each run is sealed with one block of arena ids;
    /// implicit streams seal it in groups of [`LEAF_SEAL_GROUP`], so a
    /// summary-retained item pins at most that many labels, not the
    /// whole run. There the runs die with the leaf; the stream index
    /// keeps only detached copies of a few of their items.
    fn mint_leaf_runs(
        &mut self,
        iv_pi: &Interval,
        iv_rho: &Interval,
        n: usize,
    ) -> (Vec<Item>, Vec<Item>) {
        let repr = self.repr();
        let arena = &mut self.arena;
        let mut mint = |iv: &Interval| {
            generate_labels_into(iv, n, arena);
            let mut run = Vec::with_capacity(n);
            match repr {
                StreamRepr::Materialized => arena.seal_into(&mut run),
                StreamRepr::Implicit => arena.seal_grouped_into(LEAF_SEAL_GROUP, &mut run),
            }
            run
        };
        if iv_pi == iv_rho {
            let shared = mint(iv_pi);
            (shared.clone(), shared)
        } else {
            (mint(iv_pi), mint(iv_rho))
        }
    }

    /// Base case: append 2/ε fresh items inside the current intervals,
    /// in the same order on both streams. Enforces the step budget up
    /// front and indexes both runs before any summary call (so rank
    /// machinery stays coherent even if a summary dies mid-run), then
    /// feeds each copy its run in one guarded bulk call. After the
    /// feeds: the stored-count divergence probe, the full Definition 3.2
    /// check, the space-understatement probe, and the stored-items
    /// budget.
    fn try_leaf(&mut self, iv_pi: &Interval, iv_rho: &Interval) -> Result<(), TryAbort> {
        let n = self.eps.leaf_items() as usize;
        if let Some(max_steps) = self.budget.max_steps {
            let fed = self.pi.len();
            if fed + n as u64 > max_steps {
                return Err(TryAbort::Budget {
                    detail: format!(
                        "step budget of {max_steps} items cannot cover the next leaf \
                         ({fed} fed, {n} more needed)"
                    ),
                });
            }
        }
        // Capacity guards, checked before minting so nothing is wasted
        // on a doomed leaf. Both are typed `Exhausted` aborts (the run's
        // prefix is salvaged into a `PartialRun`), never silent
        // wraparound: the arena mint counter and the run-id space.
        if cqs_universe::ids_exhausted() {
            return Err(TryAbort::Exhausted {
                detail: "label arena mint ids exhausted (2^32 items minted across this process)"
                    .to_string(),
            });
        }
        if self.pi.runs_exhausted() || self.rho.runs_exhausted() {
            return Err(TryAbort::Exhausted {
                detail: "stream run-id space exhausted (2^32 - 1 runs)".to_string(),
            });
        }
        let (items_pi, items_rho) = self.mint_leaf_runs(iv_pi, iv_rho, n);
        self.pi.index_run_in(iv_pi, &items_pi);
        self.rho.index_run_in(iv_rho, &items_rho);
        for (st, run) in [(&mut self.pi, &items_pi), (&mut self.rho, &items_rho)] {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| st.feed_run(run))) {
                let fed = st.summary.items_processed();
                return Err(TryAbort::Panicked {
                    step: fed + 1,
                    fed,
                    during: "insert",
                    payload: payload_string(payload),
                });
            }
        }
        let (a, b) = (
            self.pi.summary.stored_count(),
            self.rho.summary.stored_count(),
        );
        if a != b {
            return Err(TryAbort::Model {
                detail: format!(
                    "|I| diverged in the leaf ending at stream position {}: {a} vs {b}",
                    self.pi.len()
                ),
            });
        }
        let stored = self
            .equiv
            .check(&self.pi, &self.rho)
            .map_err(|detail| TryAbort::Model { detail })?;
        for (name, claimed) in [("pi", a), ("rho", b)] {
            if claimed < stored {
                return Err(TryAbort::Model {
                    detail: format!(
                        "summary ({name} copy) understates its space: stored_count() = \
                         {claimed} but the item array holds {stored} items"
                    ),
                });
            }
        }
        if let Some(max_stored) = self.budget.max_stored {
            let peak = self
                .pi
                .summary
                .max_stored()
                .max(self.rho.summary.max_stored());
            if peak > max_stored {
                return Err(TryAbort::Budget {
                    detail: format!(
                        "stored-items budget of {max_stored} exceeded: peak |I| = {peak}"
                    ),
                });
            }
        }
        Ok(())
    }

    /// Post-construction probe: a ~64-point rank-query grid over [1, N]
    /// on the π copy, each call guarded. Catches summaries that panic
    /// only on query, answer with non-stream items (a comparison-model
    /// impossibility), or answer grossly non-monotonically; accumulates
    /// the worst true rank error for the verdict. Kept out of line: it
    /// runs once per run, yet inlined into `try_run` it slowed both
    /// adversary workloads by 4–5% at ε = 1/256, k = 12.
    #[inline(never)]
    fn final_rank_probe(&mut self) -> Result<RankProbe, TryAbort> {
        let n = self.pi.len();
        let rank_budget = self.eps.rank_budget(n);
        let steps = 64u64.min(n.max(1));
        let denom = steps.saturating_sub(1).max(1);
        let mut max_rank_error = 0u64;
        let mut highest_answer: Option<u64> = None;
        let mut queries = 0usize;
        for j in 0..steps {
            let target = (1 + j * n.saturating_sub(1) / denom).clamp(1, n);
            let pi = &self.pi;
            let answer = match catch_unwind(AssertUnwindSafe(|| pi.summary.query_rank(target))) {
                Ok(a) => a,
                Err(payload) => {
                    return Err(TryAbort::Panicked {
                        step: n,
                        fed: n,
                        during: "query_rank",
                        payload: payload_string(payload),
                    })
                }
            };
            queries += 1;
            let item = match answer {
                Some(it) => it,
                None => {
                    return Err(TryAbort::Model {
                        detail: format!(
                            "query_rank({target}) answered nothing on a stream of {n} items"
                        ),
                    })
                }
            };
            if self.pi.arrival_of(&item).is_none() {
                return Err(TryAbort::Model {
                    detail: format!(
                        "query_rank({target}) answered with an item that never appeared \
                         in the stream"
                    ),
                });
            }
            let rank = self.pi.rank(&item);
            // An ε-approximate answer sits within rank_budget of its
            // target, so along an increasing target grid no answer can
            // fall more than 2·rank_budget below the running max; a
            // bigger drop is non-monotonicity beyond what the model
            // permits any honest summary.
            if let Some(hi) = highest_answer {
                if rank + 2 * rank_budget < hi {
                    return Err(TryAbort::Model {
                        detail: format!(
                            "non-monotone rank responses: query_rank({target}) answered \
                             rank {rank}, more than 2x the rank budget {rank_budget} below \
                             an earlier answer at rank {hi}"
                        ),
                    });
                }
            }
            highest_answer = Some(highest_answer.map_or(rank, |hi| hi.max(rank)));
            max_rank_error = max_rank_error.max(self.pi.rank_error(&item, target));
        }
        Ok(RankProbe {
            queries,
            max_rank_error,
            rank_budget,
        })
    }

    /// Salvages the partial audit trail (moving it out of the
    /// adversary) and wraps the abort reason into the public error.
    /// `max_stored` comes from [`MaxSpaceTracker`]'s cached running max,
    /// which stays readable after the summary itself was poisoned by a
    /// panic.
    fn salvage_error(&mut self, abort: TryAbort, k: u32) -> AdversaryError {
        let items_fed = match abort {
            TryAbort::Panicked { fed, .. } => fed,
            _ => self.pi.len().min(self.rho.len()),
        };
        let partial = PartialRun {
            eps: self.eps,
            k,
            items_fed,
            max_stored: self.pi.summary.max_stored(),
            audits: std::mem::take(&mut self.audits),
        };
        match abort {
            TryAbort::Panicked {
                step,
                during,
                payload,
                ..
            } => AdversaryError::SummaryPanicked {
                step,
                during,
                payload,
                partial,
            },
            TryAbort::Model { detail } => AdversaryError::ModelViolation { detail, partial },
            TryAbort::Budget { detail } => AdversaryError::BudgetExhausted { detail, partial },
            TryAbort::Exhausted { detail } => AdversaryError::CapacityExhausted { detail, partial },
        }
    }
}

impl<S: ComparisonSummary<Item>> AdversaryOutcome<S> {
    /// The root node's audit (the whole construction), or `None` for a
    /// degenerate outcome whose audit list is empty.
    pub fn root(&self) -> Option<&NodeAudit> {
        self.audits.last()
    }

    /// Final top-level gap gap(π, ϱ) (0 when no node was audited).
    pub fn final_gap(&self) -> u64 {
        self.root().map_or(0, |r| r.g)
    }

    /// Whether the summary kept the gap within Lemma 3.4's ceiling —
    /// a *necessary* condition for it to be ε-approximate.
    pub fn gap_within_correctness_ceiling(&self) -> bool {
        self.final_gap() <= self.eps.gap_bound(self.eps.stream_len(self.k))
    }

    /// Classifies a finished run: [`RunVerdict::ModelViolation`] if the
    /// outcome records an indistinguishability violation,
    /// [`RunVerdict::SummaryIncorrect`] if the final gap burst Lemma
    /// 3.4's ceiling or the rank probe (when present) measured an error
    /// beyond εN, [`RunVerdict::Completed`] otherwise.
    pub fn verdict(&self) -> RunVerdict {
        if self.equivalence_error.is_some() {
            return RunVerdict::ModelViolation;
        }
        let probe_ok = match &self.rank_probe {
            Some(p) => p.max_rank_error <= p.rank_budget,
            None => true,
        };
        if self.gap_within_correctness_ceiling() && probe_ok {
            RunVerdict::Completed
        } else {
            RunVerdict::SummaryIncorrect
        }
    }

    /// Flattens into a report.
    pub fn report(&self) -> AdversaryReport {
        let n = self.eps.stream_len(self.k);
        let (final_gap, rhs_at_gap) = self.root().map_or((0, 0.0), |r| (r.g, r.space_gap_rhs));
        AdversaryReport {
            eps: self.eps,
            k: self.k,
            n,
            final_gap,
            gap_ceiling: self.eps.gap_bound(n),
            stored_final: self.pi.summary.stored_count(),
            max_stored: self.pi.summary.max_stored(),
            space_gap_rhs_at_gap: rhs_at_gap,
            theorem22_bound: theorem22_bound(self.eps, self.k),
            claim1_violations: self.audits.iter().filter(|a| !a.claim1_ok).count(),
            lemma52_violations: self.audits.iter().filter(|a| !a.lemma52_ok).count(),
            equivalence_ok: self.equivalence_error.is_none(),
            max_label_depth: self.pi.max_label_depth(),
            summary_name: self.pi.summary.name(),
        }
    }
}

/// Convenience entry point: builds two fresh summaries via `make`, runs
/// the full construction at depth `k` through [`Adversary::run`] (so an
/// [`AdversaryError`] panics), and returns the report.
pub fn run_lower_bound<S, F>(eps: Eps, k: u32, mut make: F) -> AdversaryReport
where
    S: ComparisonSummary<Item>,
    F: FnMut() -> S,
{
    Adversary::new(eps, make(), make()).run(k).report()
}

/// Like [`run_lower_bound`] but returns the full outcome (stream states
/// and audits) for further reductions.
pub fn run_adversary<S, F>(eps: Eps, k: u32, mut make: F) -> AdversaryOutcome<S>
where
    S: ComparisonSummary<Item>,
    F: FnMut() -> S,
{
    Adversary::new(eps, make(), make()).run(k)
}

/// Panic-free convenience entry point: builds two fresh summaries via
/// `make` and runs [`Adversary::try_run`] at depth `k` with an
/// unlimited budget. Pair with [`AdversaryOutcome::verdict`] /
/// [`AdversaryError::verdict`] for the full five-way taxonomy.
pub fn try_run_adversary<S, F>(
    eps: Eps,
    k: u32,
    mut make: F,
) -> Result<AdversaryOutcome<S>, AdversaryError>
where
    S: ComparisonSummary<Item>,
    F: FnMut() -> S,
{
    Adversary::new(eps, make(), make()).try_run(k)
}

/// [`try_run_adversary`] with an explicit stream representation.
/// `StreamRepr::Implicit` keeps both order indexes interval-compressed
/// (memory sublinear in N for summaries that store o(N) items), which
/// is what lets the sweep drive N = 10⁸–10⁹ cells; `Materialized` keeps
/// every run's items and reports byte-for-byte the same.
pub fn try_run_adversary_repr<S, F>(
    eps: Eps,
    k: u32,
    repr: StreamRepr,
    mut make: F,
) -> Result<AdversaryOutcome<S>, AdversaryError>
where
    S: ComparisonSummary<Item>,
    F: FnMut() -> S,
{
    Adversary::new(eps, make(), make())
        .with_stream_repr(repr)
        .try_run(k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{DecimatedSummary, ExactSummary};

    #[test]
    fn stream_lengths_and_tree_shape() {
        let eps = Eps::from_inverse(4);
        let out = run_adversary(eps, 4, ExactSummary::new);
        assert_eq!(out.pi.len(), eps.stream_len(4)); // 64
        assert_eq!(out.rho.len(), eps.stream_len(4));
        // Full binary tree with 2^{k−1} leaves has 2^k − 1 nodes.
        assert_eq!(out.audits.len(), (1 << 4) - 1);
        assert_eq!(out.root().unwrap().level, 4);
    }

    #[test]
    fn try_run_flags_incorrect_summaries_without_erroring() {
        let eps = Eps::from_inverse(8);
        let out = try_run_adversary(eps, 5, || DecimatedSummary::new(3)).unwrap();
        assert_eq!(out.verdict(), RunVerdict::SummaryIncorrect);
    }

    #[test]
    fn try_run_rejects_zero_depth() {
        let eps = Eps::from_inverse(8);
        let err = try_run_adversary(eps, 0, ExactSummary::new).unwrap_err();
        assert!(matches!(err, AdversaryError::InvalidConfig { .. }));
    }

    #[test]
    fn depth_budget_stops_the_run_before_it_starts() {
        let eps = Eps::from_inverse(8);
        let budget = AdversaryBudget {
            max_depth: Some(3),
            ..AdversaryBudget::default()
        };
        let err = Adversary::new(eps, ExactSummary::<Item>::new(), ExactSummary::new())
            .with_budget(budget)
            .try_run(4)
            .unwrap_err();
        assert_eq!(err.verdict(), RunVerdict::BudgetExhausted);
        assert_eq!(err.partial().unwrap().items_fed, 0);
    }

    #[test]
    fn step_budget_preserves_the_audit_prefix() {
        let eps = Eps::from_inverse(8);
        // Enough for half the stream: the left subtree at depth k−1
        // completes, then the next leaf trips the budget.
        let n = eps.stream_len(4);
        let budget = AdversaryBudget {
            max_steps: Some(n / 2),
            ..AdversaryBudget::default()
        };
        let err = Adversary::new(eps, ExactSummary::<Item>::new(), ExactSummary::new())
            .with_budget(budget)
            .try_run(4)
            .unwrap_err();
        let full = run_adversary(eps, 4, ExactSummary::new);
        let partial = err.partial().unwrap();
        assert_eq!(partial.items_fed, n / 2);
        assert!(!partial.audits.is_empty());
        assert_eq!(
            partial.audits.as_slice(),
            &full.audits[..partial.audits.len()],
            "budget abort must preserve the audit prefix verbatim"
        );
        assert_eq!(partial.lemma52_violations(), 0);
    }

    #[test]
    fn empty_outcome_has_no_root_and_reports_gracefully() {
        let eps = Eps::from_inverse(8);
        let out = AdversaryOutcome {
            pi: StreamState::new(MaxSpaceTracker::new(ExactSummary::<Item>::new())),
            rho: StreamState::new(MaxSpaceTracker::new(ExactSummary::new())),
            eps,
            k: 1,
            audits: Vec::new(),
            equivalence_error: None,
            rank_probe: None,
        };
        assert!(out.root().is_none());
        assert_eq!(out.final_gap(), 0);
        let rep = out.report();
        assert_eq!(rep.final_gap, 0);
        assert_eq!(rep.claim1_violations, 0);
    }

    #[test]
    fn exact_summary_keeps_gap_minimal_and_all_checks_pass() {
        let eps = Eps::from_inverse(8);
        let out = run_adversary(eps, 4, ExactSummary::new);
        assert!(
            out.equivalence_error.is_none(),
            "{:?}",
            out.equivalence_error
        );
        assert_eq!(out.final_gap(), 1, "exact summary leaves no uncertainty");
        let rep = out.report();
        assert_eq!(rep.claim1_violations, 0);
        assert_eq!(rep.lemma52_violations, 0);
        assert!(out.gap_within_correctness_ceiling());
        assert_eq!(out.verdict(), RunVerdict::Completed);
        let probe = out.rank_probe.unwrap();
        assert_eq!(probe.max_rank_error, 0, "exact summary answers exactly");
    }

    #[test]
    fn decimated_summary_exceeds_gap_ceiling() {
        let eps = Eps::from_inverse(8);
        // Budget far below ⌈1/(2ε)⌉·(k+1): the gap must blow past 2εN.
        let out = run_adversary(eps, 5, || DecimatedSummary::new(3));
        assert!(
            out.equivalence_error.is_none(),
            "{:?}",
            out.equivalence_error
        );
        assert!(
            !out.gap_within_correctness_ceiling(),
            "gap {} should exceed ceiling {}",
            out.final_gap(),
            eps.gap_bound(eps.stream_len(5))
        );
    }

    #[test]
    fn space_gap_inequality_audited_everywhere_for_reference_summaries() {
        let eps = Eps::from_inverse(8);
        for budget in [3usize, 6, 12, 24] {
            let out = run_adversary(eps, 4, || DecimatedSummary::new(budget));
            let rep = out.report();
            // Lemma 5.2 holds for ANY comparison-based summary whose |I|
            // never decreases; DecimatedSummary's |I| is monotone up to
            // the budget, so no violations are expected.
            assert_eq!(
                rep.lemma52_violations, 0,
                "budget {budget}: space-gap inequality violated"
            );
            assert_eq!(
                rep.claim1_violations, 0,
                "budget {budget}: Claim 1 violated"
            );
        }
    }

    #[test]
    fn max_stored_dominates_theorem_bound_for_correct_summary() {
        let eps = Eps::from_inverse(8);
        let out = run_adversary(eps, 5, ExactSummary::new);
        let rep = out.report();
        // The exact summary is correct, so Theorem 2.2 applies; it
        // stores everything, so the bound is satisfied with huge slack.
        assert!(rep.max_stored as f64 >= rep.theorem22_bound);
    }

    #[test]
    fn label_depth_tracks_the_refinement_chain() {
        // The continuity assumption's cost: every refinement along the
        // in-order chain can deepen labels by O(1) bytes. With the
        // store-everything summary every gap ties at 1, the argmax never
        // moves, and the chain nests at every internal node — depth
        // doubles per level (Θ(2^k) = Θ(εN) bytes), the worst case the
        // paper's "make the strings even longer" remark licences.
        let eps = Eps::from_inverse(16);
        let d5 = run_adversary(eps, 5, ExactSummary::new)
            .report()
            .max_label_depth;
        let d8 = run_adversary(eps, 8, ExactSummary::new)
            .report()
            .max_label_depth;
        assert!(d5 >= 1 && d8 >= d5);
        // Geometric growth, but bounded by the refinement count: one
        // byte-ish per node of the recursion tree.
        assert!(
            d8 <= (1 << 8) + 64,
            "depth {d8} beyond the refinement-chain bound"
        );
        assert!(
            d8 <= 16 * d5,
            "depth growth wildly superlinear: {d5} -> {d8}"
        );
    }

    #[test]
    fn audits_are_post_order_with_root_last() {
        let eps = Eps::from_inverse(4);
        let out = run_adversary(eps, 3, ExactSummary::new);
        let levels: Vec<u32> = out.audits.iter().map(|a| a.level).collect();
        assert_eq!(levels, vec![1, 1, 2, 1, 1, 2, 3]);
    }

    #[test]
    fn absurd_configurations_become_typed_overflow_errors() {
        // 2^20 · 2^50 and the k ≥ 64 shift both blow past u64: the
        // panic-free driver must refuse up front, not unwind later.
        let eps = Eps::from_inverse(1 << 20);
        for k in [50u32, 64, u32::MAX] {
            let err = try_run_adversary(eps, k, ExactSummary::new).unwrap_err();
            assert!(
                matches!(err, AdversaryError::ConfigOverflow { .. }),
                "k = {k}: expected ConfigOverflow, got {err}"
            );
            assert_eq!(err.verdict(), RunVerdict::BudgetExhausted);
            assert!(err.partial().is_none(), "no stream was ever fed");
        }
        // The largest representable configuration still launches.
        assert!(try_run_adversary(Eps::from_inverse(4), 4, ExactSummary::new).is_ok());
    }

    #[test]
    fn implicit_streams_reproduce_the_materialized_report() {
        // The tentpole honesty check at unit scale: the
        // interval-compressed representation must be observationally
        // identical to the stored runs — same audits, same report, same
        // verdict — because the summary sees the very same items in the
        // very same order and every rank/tag query resolves through
        // Definition 3.2-equivalent answers.
        for (inv, k) in [(4u64, 3u32), (8, 4), (16, 5)] {
            let eps = Eps::from_inverse(inv);
            let classic = try_run_adversary(eps, k, ExactSummary::new).unwrap();
            let implicit =
                try_run_adversary_repr(eps, k, StreamRepr::Implicit, ExactSummary::new).unwrap();
            assert_eq!(implicit.audits, classic.audits, "1/eps = {inv}, k = {k}");
            assert_eq!(implicit.report(), classic.report());
            assert_eq!(implicit.verdict(), classic.verdict());
            assert_eq!(implicit.rank_probe, classic.rank_probe);
        }
    }

    #[test]
    fn implicit_streams_flag_incorrect_summaries_too() {
        let eps = Eps::from_inverse(8);
        let classic = try_run_adversary(eps, 5, || DecimatedSummary::new(3)).unwrap();
        let implicit =
            try_run_adversary_repr(eps, 5, StreamRepr::Implicit, || DecimatedSummary::new(3))
                .unwrap();
        assert_eq!(implicit.verdict(), RunVerdict::SummaryIncorrect);
        assert_eq!(implicit.report(), classic.report());
    }
}
