//! # cqs-faults — deterministic fault injection for quantile summaries
//!
//! Theorem 2.2 quantifies over *every* deterministic comparison-based
//! summary — including buggy, lying, or crashing ones. This crate
//! supplies the misbehaving instances: [`FaultySummary`] wraps any
//! [`ComparisonSummary`] and perturbs it according to a
//! [`FaultPlan`] — a deterministic, [`SplitMix64`]-seeded schedule of
//! faults keyed on the number of stream items fed so far.
//!
//! The point is to exercise the panic-free adversary driver
//! (`cqs_core::adversary::Adversary::try_run`): every fault kind below
//! must surface as its documented `RunVerdict` instead of killing the
//! process or silently corrupting the Lemma 5.2 audit trail. The
//! verdict taxonomy and the driver's probes are described in DESIGN.md
//! ("Failure taxonomy & fault injection").
//!
//! | Fault | Behaviour | Expected verdict |
//! |-------|-----------|------------------|
//! | [`FaultKind::PanicOnInsert`] | `insert` panics at the chosen step | `SummaryPanicked` |
//! | [`FaultKind::PanicOnQuery`] | `query_rank` panics once active | `SummaryPanicked` |
//! | [`FaultKind::RankSlack`] | query answers shifted by a rank slack | `SummaryIncorrect` (when the slack exceeds εN) |
//! | [`FaultKind::NonMonotoneRank`] | rank queries answered in reverse | `ModelViolation` |
//! | [`FaultKind::ValuePeek`] | items dropped based on their *value* | `ModelViolation` |
//! | [`FaultKind::UnderstateSpace`] | `stored_count` under-reports `\|I\|` | `ModelViolation` |
//!
//! ## Poisoning
//!
//! Once a panicking fault has fired, the wrapper is *poisoned*: any
//! further `insert`/`query_rank`/`item_array` call panics with a
//! distinct "poisoned" diagnostic. This models real data structures
//! whose invariants are unrecoverable after an internal panic and lets
//! the driver prove it never touches a summary again after catching its
//! first panic.
//!
//! ## Transparency
//!
//! With an empty plan ([`FaultPlan::none`]) the wrapper is a strict
//! pass-through: same stored state, same peaks, same reports — the
//! differential suite (`tests/faults_differential.rs`) holds it
//! bit-identical to the bare summary across GK, greedy-GK and MRL. To
//! keep reports comparable, [`ComparisonSummary::name`] is forwarded
//! unchanged.

use std::cell::Cell;
use std::hash::{Hash, Hasher};

use cqs_core::{ComparisonSummary, SplitMix64};

pub mod storage;
pub use storage::{apply_storage_fault, storage_fault_matrix, StorageFault};

/// One injected misbehaviour, armed at a step count (see [`Fault`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// `insert` panics exactly when the `at`-th item arrives.
    PanicOnInsert,
    /// `query_rank` panics on any call made once `at` items were fed.
    PanicOnQuery,
    /// Query answers are taken `slack` ranks away from the requested
    /// target once active: the summary stays model-conforming but stops
    /// being ε-approximate when `slack > εN`.
    RankSlack(u64),
    /// Rank queries are answered as if `r` were `N + 1 − r` once
    /// active — a grossly non-monotone response pattern no
    /// ε-approximate summary can produce.
    NonMonotoneRank,
    /// Comparison-model violation (Definition 2.1(i)): once active,
    /// each arriving item is hashed — i.e. its *value* is inspected —
    /// and dropped on a pseudo-random bit. The two adversary streams
    /// contain different values at the same positions, so their item
    /// arrays desynchronise and Definition 3.2 verification fails.
    ValuePeek,
    /// `stored_count` under-reports the item array by the given amount
    /// once active — the "lying about space" failure the space-gap
    /// audit must not silently absorb.
    UnderstateSpace(usize),
}

/// A [`FaultKind`] armed at a 1-based stream step: the fault becomes
/// active when the wrapper has been fed `at` items (exactly at `at` for
/// the one-shot panic faults, from `at` onwards for the others).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fault {
    /// 1-based step count at which the fault arms.
    pub at: u64,
    /// What goes wrong.
    pub kind: FaultKind,
}

/// A deterministic schedule of faults plus the seed that parameterises
/// value-dependent decisions ([`FaultKind::ValuePeek`] hashing).
///
/// Plans are plain data: clone one plan into both adversary copies so
/// the π and ϱ summaries misbehave identically (the driver's job is to
/// notice when "identically" stops holding observationally).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct FaultPlan {
    seed: u64,
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// The empty plan: the wrapper behaves exactly like the bare
    /// summary.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// An empty plan carrying a seed for value-dependent faults.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            faults: Vec::new(),
        }
    }

    /// Adds a fault of the given kind arming at step `at` (1-based).
    pub fn inject(mut self, at: u64, kind: FaultKind) -> Self {
        self.faults.push(Fault { at, kind });
        self
    }

    /// A plan with a single fault at a [`SplitMix64`]-chosen step in
    /// `[lo, hi)` (both at least 1), derived deterministically from
    /// `seed`.
    pub fn single_random(seed: u64, kind: FaultKind, lo: u64, hi: u64) -> Self {
        let lo = lo.max(1);
        let hi = hi.max(lo + 1);
        let mut rng = SplitMix64::new(seed);
        let at = lo + rng.below(hi - lo);
        FaultPlan::seeded(seed).inject(at, kind)
    }

    /// The scheduled faults.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// The seed for value-dependent decisions.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

/// FNV-1a, fixed offset/prime: a fully deterministic in-tree hasher so
/// [`FaultKind::ValuePeek`] decisions never depend on std's per-release
/// `DefaultHasher` internals.
struct Fnv1a(u64);

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// The value-peeking decision: hash the item (inspecting its value —
/// the model violation) and flip a seed-mixed coin.
fn peeks_and_drops<T: Hash>(seed: u64, item: &T) -> bool {
    let mut h = Fnv1a(0xcbf2_9ce4_8422_2325 ^ seed);
    item.hash(&mut h);
    SplitMix64::new(h.finish()).next_u64() & 1 == 1
}

/// A [`ComparisonSummary`] wrapper that injects the faults of a
/// [`FaultPlan`] at deterministic step counts. See the crate docs for
/// the fault taxonomy and the poisoning semantics.
pub struct FaultySummary<S> {
    inner: S,
    plan: FaultPlan,
    step: u64,
    dropped: u64,
    queries: Cell<u64>,
    poisoned: Cell<Option<&'static str>>,
}

impl<S> FaultySummary<S> {
    /// Wraps a summary with the given plan.
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        FaultySummary {
            inner,
            plan,
            step: 0,
            dropped: 0,
            queries: Cell::new(0),
            poisoned: Cell::new(None),
        }
    }

    /// Wraps a summary with the empty plan (pure pass-through).
    pub fn pristine(inner: S) -> Self {
        FaultySummary::new(inner, FaultPlan::none())
    }

    /// The wrapped summary.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Items fed so far (the fault clock; counts dropped items too).
    pub fn steps_fed(&self) -> u64 {
        self.step
    }

    /// Items silently dropped by [`FaultKind::ValuePeek`].
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// `query_rank` calls observed so far.
    pub fn queries_seen(&self) -> u64 {
        self.queries.get()
    }

    /// Whether a panicking fault has fired, leaving the wrapper unusable.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.get().is_some()
    }

    fn check_poison(&self, op: &str) {
        if let Some(origin) = self.poisoned.get() {
            panic!("FaultySummary poisoned by an earlier {origin} fault; {op} refused");
        }
    }
}

impl<T, S> ComparisonSummary<T> for FaultySummary<S>
where
    T: Ord + Clone + Hash,
    S: ComparisonSummary<T>,
{
    fn insert(&mut self, item: T) {
        self.check_poison("insert");
        self.step += 1;
        let step = self.step;
        let mut drop_item = false;
        for f in &self.plan.faults {
            match f.kind {
                FaultKind::PanicOnInsert if step == f.at => {
                    self.poisoned.set(Some("insert"));
                    panic!("injected fault: insert panics at step {step}");
                }
                FaultKind::ValuePeek if step >= f.at => {
                    drop_item = drop_item || peeks_and_drops(self.plan.seed, &item);
                }
                _ => {}
            }
        }
        if drop_item {
            self.dropped += 1;
            return;
        }
        self.inner.insert(item);
    }

    // `insert_sorted_run` deliberately keeps the trait's per-item
    // default so step-indexed faults fire mid-run exactly as they would
    // under per-item feeding, and the reported peak matches the
    // fallback that summaries' bulk paths are contractually identical
    // to.

    fn item_array(&self) -> Vec<T> {
        self.check_poison("item_array");
        self.inner.item_array()
    }

    fn for_each_item(&self, f: &mut dyn FnMut(&T)) {
        self.check_poison("for_each_item");
        self.inner.for_each_item(f)
    }

    fn stored_count(&self) -> usize {
        self.check_poison("stored_count");
        let mut count = self.inner.stored_count();
        for f in &self.plan.faults {
            if let FaultKind::UnderstateSpace(by) = f.kind {
                if self.step >= f.at {
                    count = count.saturating_sub(by);
                }
            }
        }
        count
    }

    fn items_processed(&self) -> u64 {
        self.inner.items_processed()
    }

    fn query_rank(&self, r: u64) -> Option<T> {
        self.check_poison("query_rank");
        self.queries.set(self.queries.get() + 1);
        let n = self.inner.items_processed().max(1);
        let mut target = r;
        for f in &self.plan.faults {
            match f.kind {
                FaultKind::PanicOnQuery if self.step >= f.at => {
                    self.poisoned.set(Some("query_rank"));
                    panic!(
                        "injected fault: query_rank panics (armed at step {}, fed {})",
                        f.at, self.step
                    );
                }
                FaultKind::RankSlack(slack) if self.step >= f.at => {
                    target = target.saturating_add(slack).clamp(1, n);
                }
                FaultKind::NonMonotoneRank if self.step >= f.at => {
                    target = (n + 1).saturating_sub(target).clamp(1, n);
                }
                _ => {}
            }
        }
        self.inner.query_rank(target)
    }

    // Forwarded unchanged so a zero-fault wrapper produces reports
    // byte-identical to the bare summary's.
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Compile-time audit that fault plans and wrapped summaries can move
/// onto `cqs-bench` pool workers. Each matrix cell owns its own copies,
/// so `Send` suffices; `FaultySummary` uses [`Cell`] internally and is
/// deliberately *not* `Sync`. The `sharding-send-sync` lint rule keeps
/// these lines from being deleted.
#[allow(dead_code)]
fn sharding_send_audit<S: Send>() {
    fn assert_send<T: Send>() {}
    assert_send::<Fault>();
    assert_send::<FaultKind>();
    assert_send::<FaultPlan>();
    assert_send::<FaultySummary<S>>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqs_core::reference::ExactSummary;

    fn fed(plan: FaultPlan, n: u64) -> FaultySummary<ExactSummary<u64>> {
        let mut s = FaultySummary::new(ExactSummary::new(), plan);
        for x in 1..=n {
            s.insert(x);
        }
        s
    }

    #[test]
    fn empty_plan_is_a_pass_through() {
        let s = fed(FaultPlan::none(), 100);
        assert_eq!(s.stored_count(), 100);
        assert_eq!(s.items_processed(), 100);
        assert_eq!(s.query_rank(40), Some(40));
        assert_eq!(s.dropped(), 0);
        assert_eq!(s.name(), s.inner().name());
    }

    #[test]
    #[should_panic(expected = "insert panics at step 5")]
    fn panic_on_insert_fires_at_the_exact_step() {
        fed(FaultPlan::none().inject(5, FaultKind::PanicOnInsert), 5);
    }

    #[test]
    fn panic_on_insert_poisons_the_wrapper() {
        let plan = FaultPlan::none().inject(3, FaultKind::PanicOnInsert);
        let mut s = FaultySummary::new(ExactSummary::<u64>::new(), plan);
        s.insert(1);
        s.insert(2);
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.insert(3)));
        assert!(boom.is_err());
        assert!(s.is_poisoned());
        let after = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.stored_count()));
        assert!(after.is_err(), "poisoned wrapper must refuse further use");
    }

    #[test]
    fn rank_slack_shifts_answers_once_active() {
        let s = fed(FaultPlan::none().inject(1, FaultKind::RankSlack(10)), 100);
        assert_eq!(s.query_rank(40), Some(50));
        // Clamped at the top of the stream.
        assert_eq!(s.query_rank(95), Some(100));
    }

    #[test]
    fn non_monotone_reverses_targets() {
        let s = fed(FaultPlan::none().inject(1, FaultKind::NonMonotoneRank), 100);
        assert_eq!(s.query_rank(1), Some(100));
        assert_eq!(s.query_rank(100), Some(1));
    }

    #[test]
    fn understate_space_subtracts_from_stored_count() {
        let s = fed(
            FaultPlan::none().inject(1, FaultKind::UnderstateSpace(7)),
            100,
        );
        assert_eq!(s.stored_count(), 93);
        assert_eq!(s.item_array().len(), 100);
    }

    #[test]
    fn value_peek_drops_deterministically() {
        let plan = FaultPlan::seeded(42).inject(1, FaultKind::ValuePeek);
        let a = fed(plan.clone(), 200);
        let b = fed(plan, 200);
        assert!(a.dropped() > 0, "a coin that never drops is no coin");
        assert!(a.dropped() < 200, "a coin that always drops is no coin");
        assert_eq!(a.dropped(), b.dropped(), "decisions must be reproducible");
        assert_eq!(a.item_array(), b.item_array());
        assert_eq!(a.stored_count() as u64 + a.dropped(), 200);
    }

    #[test]
    fn faults_before_their_step_stay_dormant() {
        let plan = FaultPlan::none()
            .inject(50, FaultKind::RankSlack(10))
            .inject(50, FaultKind::UnderstateSpace(5));
        let s = fed(plan, 40);
        assert_eq!(s.stored_count(), 40);
        assert_eq!(s.query_rank(10), Some(10));
    }

    #[test]
    fn single_random_lands_in_range() {
        for seed in 0..50u64 {
            let plan = FaultPlan::single_random(seed, FaultKind::PanicOnInsert, 10, 20);
            let at = plan.faults()[0].at;
            assert!((10..20).contains(&at), "seed {seed}: at = {at}");
        }
    }
}
