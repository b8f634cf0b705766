//! The lock-striped registry, per-key shard slots, and clonable handles.
//!
//! The layout follows the registry/handle split of production metrics
//! facades: the registry owns the striped key map; a [`SummaryHandle`]
//! is a cheap `Arc` clone that writers keep on the hot path so that
//! recording never touches the key map again. Each key owns `S`
//! independent summary shards behind their own mutexes; reads fold the
//! shards from scratch with [`MergeableSummary::try_merge`], so the
//! composed error bound stays at (non-empty shards) × ε₀ no matter how
//! many fold cycles have run.

use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use cqs_core::{ComparisonSummary, MergeError, MergeableSummary};

use crate::worker::WakeQueue;

/// Locks a mutex, recovering the data from a poisoned lock. A panicking
/// sibling thread must not wedge the registry: reads fold shards from
/// scratch, so the worst a poisoned shard can cost is the run that was
/// being applied when its writer panicked.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Sizing knobs for a [`QuantileRegistry`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Per-key shard count `S`. Writers spread across shards (so ingest
    /// scales with cores) and reads pay a composed error bound of at
    /// most `S × ε₀`.
    pub shards: usize,
    /// Number of lock stripes over the key map. Only key *creation and
    /// lookup* contend here — recording goes through handles.
    pub stripes: usize,
    /// Ingest runs between background fold requests for a key. Cadence
    /// is counted in runs, not wall-clock time, so the service stays
    /// deterministic under the workspace's no-clock rule.
    pub fold_cadence: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 8,
            stripes: 16,
            fold_cadence: 64,
        }
    }
}

impl ServiceConfig {
    /// Clamps every knob to at least 1 so a zeroed config degrades to a
    /// single-shard, single-stripe registry instead of panicking.
    pub(crate) fn normalized(self) -> Self {
        ServiceConfig {
            shards: self.shards.max(1),
            stripes: self.stripes.max(1),
            fold_cadence: self.fold_cadence.max(1),
        }
    }
}

/// Cached result of the last fold, stamped with the slot version it saw.
struct FoldCache<S> {
    summary: Option<S>,
    at_version: u64,
}

/// One key's state: `S` summary shards plus the fold cache.
pub(crate) struct KeySlot<S> {
    key: String,
    shards: Box<[Mutex<S>]>,
    /// Round-robin cursor for handle-level recording. Distinct from
    /// `version`: the cursor moves *before* a run is applied, the
    /// version only after, so a concurrent fold can never cache
    /// pre-run data under a post-run stamp.
    cursor: AtomicU64,
    /// Bumped once per applied run; validates the fold cache.
    version: AtomicU64,
    /// Runs since the last fold; crossing the cadence wakes the worker.
    runs_since_fold: AtomicU64,
    merged: Mutex<FoldCache<S>>,
}

impl<S> KeySlot<S> {
    pub(crate) fn new(key: String, shards: usize, make: &dyn Fn() -> S) -> Self {
        KeySlot {
            key,
            shards: (0..shards).map(|_| Mutex::new(make())).collect(),
            cursor: AtomicU64::new(0),
            version: AtomicU64::new(0),
            runs_since_fold: AtomicU64::new(0),
            merged: Mutex::new(FoldCache {
                summary: None,
                at_version: u64::MAX,
            }),
        }
    }

    pub(crate) fn key(&self) -> &str {
        &self.key
    }

    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn next_shard(&self) -> usize {
        (self.cursor.fetch_add(1, Ordering::Relaxed) % self.shards.len() as u64) as usize
    }

    /// Applies one sorted run to a specific shard and stamps the slot.
    /// Returns the number of items recorded (`insert_sorted_run` itself
    /// reports peak space, which the service does not track per run).
    pub(crate) fn apply_run<T>(&self, shard: usize, run: &[T]) -> usize
    where
        T: Ord + Clone,
        S: ComparisonSummary<T>,
    {
        let _peak = lock(&self.shards[shard]).insert_sorted_run(run);
        self.version.fetch_add(1, Ordering::AcqRel);
        run.len()
    }

    /// Applies one item to the next round-robin shard.
    pub(crate) fn apply_item<T>(&self, item: T)
    where
        T: Ord + Clone,
        S: ComparisonSummary<T>,
    {
        let shard = self.next_shard();
        lock(&self.shards[shard]).insert(item);
        self.version.fetch_add(1, Ordering::AcqRel);
    }

    /// Counts a run toward the fold cadence; true exactly when this run
    /// crossed it (the caller then enqueues the slot for the worker).
    pub(crate) fn note_run(&self, cadence: u64) -> bool {
        let prev = self.runs_since_fold.fetch_add(1, Ordering::AcqRel);
        prev + 1 == cadence
    }

    /// Total items across all shards (briefly locks each in turn).
    pub(crate) fn items_processed<T>(&self) -> u64
    where
        T: Ord + Clone,
        S: ComparisonSummary<T>,
    {
        self.shards.iter().map(|s| lock(s).items_processed()).sum()
    }

    /// Runs `f` on the fold of all non-empty shards, borrowed from the
    /// fold cache under its lock; `None` while every shard is empty.
    ///
    /// The cache is valid for the slot version it was folded at. When the
    /// version has moved on, the shards are folded again *from scratch*
    /// (never into a persistent accumulator), so the composed ε stays
    /// bounded by the number of non-empty shards times the per-shard ε₀
    /// however many folds have run. The new fold moves into the cache,
    /// and `f` reads it there: a refold clones only the shard it starts
    /// from, and a fold that finds the version unchanged clones nothing.
    pub(crate) fn with_fold<T, R>(&self, f: impl FnOnce(Option<&S>) -> R) -> Result<R, MergeError>
    where
        T: Ord + Clone,
        S: MergeableSummary<T> + Clone,
    {
        let stamp = self.version.load(Ordering::Acquire);
        let mut cache = lock(&self.merged);
        if cache.at_version != stamp {
            cache.summary = self.fold_shards::<T>()?;
            cache.at_version = stamp;
            self.runs_since_fold.store(0, Ordering::Release);
        }
        Ok(f(cache.summary.as_ref()))
    }

    /// Folds all non-empty shards, in shard order, into one summary.
    fn fold_shards<T>(&self) -> Result<Option<S>, MergeError>
    where
        T: Ord + Clone,
        S: MergeableSummary<T> + Clone,
    {
        let mut acc: Option<S> = None;
        for shard in self.shards.iter() {
            let guard = lock(shard);
            if guard.items_processed() == 0 {
                continue; // empty shards must not widen the composed eps
            }
            match acc.as_mut() {
                None => acc = Some(guard.clone()),
                Some(folded) => folded.try_merge(&guard)?,
            }
        }
        Ok(acc)
    }
}

/// Deterministic FNV-1a stripe placement — no ambient hasher state, so
/// the stripe of a key is the same in every run and process.
fn stripe_of(key: &str, stripes: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % stripes as u64) as usize
}

/// One lock stripe: a sorted key → slot map behind its own mutex.
type Stripe<S> = Mutex<BTreeMap<String, Arc<KeySlot<S>>>>;

struct RegistryInner<S> {
    stripes: Box<[Stripe<S>]>,
    make: Box<dyn Fn() -> S + Send + Sync>,
    config: ServiceConfig,
    wake: Arc<WakeQueue<S>>,
}

/// A multi-tenant registry of sharded quantile summaries.
///
/// Keys live in lock-striped `BTreeMap`s (deterministic iteration; the
/// workspace determinism rule bans `HashMap`). [`handle`] resolves a key
/// once; all recording then goes through the returned
/// [`SummaryHandle`] without touching the stripes again.
///
/// [`handle`]: QuantileRegistry::handle
pub struct QuantileRegistry<T, S> {
    inner: Arc<RegistryInner<S>>,
    _items: PhantomData<fn(T) -> T>,
}

impl<T, S> Clone for QuantileRegistry<T, S> {
    fn clone(&self) -> Self {
        QuantileRegistry {
            inner: Arc::clone(&self.inner),
            _items: PhantomData,
        }
    }
}

impl<T, S> QuantileRegistry<T, S>
where
    T: Ord + Clone,
    S: ComparisonSummary<T>,
{
    /// Creates a registry whose per-key shards are built by `make`.
    pub fn new(config: ServiceConfig, make: impl Fn() -> S + Send + Sync + 'static) -> Self {
        let config = config.normalized();
        let stripes = (0..config.stripes)
            .map(|_| Mutex::new(BTreeMap::new()))
            .collect();
        QuantileRegistry {
            inner: Arc::new(RegistryInner {
                stripes,
                make: Box::new(make),
                config,
                wake: Arc::new(WakeQueue::new()),
            }),
            _items: PhantomData,
        }
    }

    /// The (normalized) configuration this registry runs with.
    pub fn config(&self) -> ServiceConfig {
        self.inner.config
    }

    /// Resolves `key` to a handle, creating its shard slot on first use.
    pub fn handle(&self, key: &str) -> SummaryHandle<T, S> {
        let stripe = &self.inner.stripes[stripe_of(key, self.inner.stripes.len())];
        let slot = {
            let mut map = lock(stripe);
            match map.get(key) {
                Some(slot) => Arc::clone(slot),
                None => {
                    let slot = Arc::new(KeySlot::new(
                        key.to_string(),
                        self.inner.config.shards,
                        self.inner.make.as_ref(),
                    ));
                    map.insert(key.to_string(), Arc::clone(&slot));
                    slot
                }
            }
        };
        SummaryHandle {
            slot,
            wake: Arc::clone(&self.inner.wake),
            cadence: self.inner.config.fold_cadence,
            _items: PhantomData,
        }
    }

    /// All registered keys, in lexicographic order (stripes partition
    /// the key space, so a single sort restores the global order).
    pub fn keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = self
            .inner
            .stripes
            .iter()
            .flat_map(|stripe| lock(stripe).keys().cloned().collect::<Vec<_>>())
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Number of registered keys.
    pub fn len(&self) -> usize {
        self.inner.stripes.iter().map(|s| lock(s).len()).sum()
    }

    /// Whether no key has been registered yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All key slots in lexicographic key order (for one-pass export).
    pub(crate) fn slots_sorted(&self) -> Vec<Arc<KeySlot<S>>> {
        let mut slots: Vec<Arc<KeySlot<S>>> = self
            .inner
            .stripes
            .iter()
            .flat_map(|stripe| lock(stripe).values().cloned().collect::<Vec<_>>())
            .collect();
        slots.sort_unstable_by(|a, b| a.key().cmp(b.key()));
        slots
    }

    pub(crate) fn wake(&self) -> &Arc<WakeQueue<S>> {
        &self.inner.wake
    }
}

impl<T, S> QuantileRegistry<T, S>
where
    T: Ord + Clone,
    S: MergeableSummary<T> + Clone,
{
    /// Folds the named key's shards into one summary; `Ok(None)` when
    /// the key is unknown or has seen no items.
    pub fn folded(&self, key: &str) -> Result<Option<S>, MergeError> {
        let stripe = &self.inner.stripes[stripe_of(key, self.inner.stripes.len())];
        let slot = { lock(stripe).get(key).cloned() };
        match slot {
            Some(slot) => slot.with_fold::<T, _>(|s| s.cloned()),
            None => Ok(None),
        }
    }
}

/// A cheap clonable writer/reader handle for one key.
///
/// Handles are item-opaque: they move items into the underlying
/// comparison-based summaries and never inspect item values themselves
/// (the model-purity lint certifies this).
pub struct SummaryHandle<T, S> {
    slot: Arc<KeySlot<S>>,
    wake: Arc<WakeQueue<S>>,
    cadence: u64,
    _items: PhantomData<fn(T) -> T>,
}

impl<T, S> Clone for SummaryHandle<T, S> {
    fn clone(&self) -> Self {
        SummaryHandle {
            slot: Arc::clone(&self.slot),
            wake: Arc::clone(&self.wake),
            cadence: self.cadence,
            _items: PhantomData,
        }
    }
}

impl<T, S> SummaryHandle<T, S>
where
    T: Ord + Clone,
    S: ComparisonSummary<T>,
{
    /// The key this handle records under.
    pub fn key(&self) -> &str {
        self.slot.key()
    }

    /// Per-key shard count `S`.
    pub fn shard_count(&self) -> usize {
        self.slot.shard_count()
    }

    /// Total items recorded under this key, across all shards.
    pub fn items_processed(&self) -> u64 {
        self.slot.items_processed::<T>()
    }

    /// Records one item on the next round-robin shard.
    pub fn record(&self, item: T) {
        self.slot.apply_item(item);
        self.note_run();
    }

    /// Records a non-decreasing run on the next round-robin shard via
    /// the summary's batched `insert_sorted_run` path. Returns how many
    /// items were recorded (the run length).
    pub fn record_sorted_run(&self, run: &[T]) -> usize {
        let shard = self.slot.next_shard();
        let inserted = self.slot.apply_run(shard, run);
        self.note_run();
        inserted
    }

    /// Records a non-decreasing run on a *specific* shard. The
    /// deterministic parallel-ingest driver uses this to pin batch `b`
    /// to shard `b mod S` so the final state is independent of the
    /// thread count.
    pub fn record_sorted_run_at(&self, shard: usize, run: &[T]) -> usize {
        let inserted = self.slot.apply_run(shard % self.slot.shard_count(), run);
        self.note_run();
        inserted
    }

    fn note_run(&self) {
        if self.slot.note_run(self.cadence) {
            self.wake.enqueue(Arc::clone(&self.slot));
        }
    }
}

impl<T, S> SummaryHandle<T, S>
where
    T: Ord + Clone,
    S: MergeableSummary<T> + Clone,
{
    /// A copy of the fold of all shards (cached per slot version);
    /// `Ok(None)` while the key has seen no items.
    pub fn folded(&self) -> Result<Option<S>, MergeError> {
        self.slot.with_fold::<T, _>(|s| s.cloned())
    }

    /// The φ-quantile of everything recorded under this key, read from
    /// the cached fold without copying it.
    pub fn quantile(&self, phi: f64) -> Result<Option<T>, MergeError> {
        self.slot
            .with_fold::<T, _>(|s| s.and_then(|s| s.quantile(phi)))
    }

    /// The composed worst-case ε after folding, or `None` when the key
    /// is empty or the summary's guarantee is probabilistic.
    pub fn composed_eps(&self) -> Result<Option<f64>, MergeError> {
        self.slot
            .with_fold::<T, _>(|s| s.and_then(|s| s.eps_bound()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqs_gk::GkSummary;

    fn registry(shards: usize) -> QuantileRegistry<u64, GkSummary<u64>> {
        QuantileRegistry::new(
            ServiceConfig {
                shards,
                stripes: 4,
                fold_cadence: 8,
            },
            || GkSummary::new(0.01),
        )
    }

    #[test]
    fn handle_roundtrip_single_shard_matches_direct_summary() {
        let reg = registry(1);
        let h = reg.handle("latency");
        for v in 0..1000u64 {
            h.record(v);
        }
        let mut direct = GkSummary::new(0.01);
        for v in 0..1000u64 {
            direct.insert(v);
        }
        let folded = h.folded().expect("fold").expect("non-empty");
        assert_eq!(folded.items_processed(), 1000);
        for phi in [0.1, 0.5, 0.9] {
            assert_eq!(folded.quantile(phi), direct.quantile(phi));
        }
    }

    #[test]
    fn sharded_fold_stays_within_composed_eps() {
        let shards = 4;
        let reg = registry(shards);
        let h = reg.handle("latency");
        let n = 4000u64;
        for v in 0..n {
            h.record(v);
        }
        let folded = h.folded().expect("fold").expect("non-empty");
        assert_eq!(folded.items_processed(), n);
        let eps = h.composed_eps().expect("fold").expect("gk reports eps");
        assert!(
            eps <= 0.01 * shards as f64 + 1e-12,
            "composed eps {eps} exceeds shards * eps0"
        );
        let allowed = (eps * n as f64).ceil() as i64 + 1;
        for r in (0..n).step_by(97) {
            let got = folded.query_rank(r).expect("rank in range");
            let err = (got as i64 - r as i64).abs();
            assert!(err <= allowed, "rank {r}: got {got}, err {err} > {allowed}");
        }
    }

    #[test]
    fn fold_cache_reuses_unchanged_version() {
        let reg = registry(2);
        let h = reg.handle("k");
        h.record_sorted_run(&[1, 2, 3]);
        let a = h.folded().expect("fold").expect("non-empty");
        let b = h.folded().expect("fold").expect("non-empty");
        assert_eq!(a.items_processed(), b.items_processed());
        h.record(4);
        let c = h.folded().expect("fold").expect("non-empty");
        assert_eq!(c.items_processed(), 4);
    }

    #[test]
    fn keys_are_sorted_across_stripes() {
        let reg = registry(1);
        for key in ["zeta", "alpha", "mid", "beta"] {
            reg.handle(key).record(1u64);
        }
        assert_eq!(reg.keys(), vec!["alpha", "beta", "mid", "zeta"]);
        assert_eq!(reg.len(), 4);
        assert!(!reg.is_empty());
    }

    #[test]
    fn registry_folded_handles_unknown_keys() {
        let reg = registry(2);
        assert!(reg.folded("missing").expect("fold").is_none());
        reg.handle("present").record(7u64);
        assert!(reg.folded("present").expect("fold").is_some());
    }

    thread_local! {
        static CLONES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// GK that counts its clones. Reads here fold on the test's own
    /// thread, so a per-thread count sees every clone they make.
    struct Counted(GkSummary<u64>);

    impl Clone for Counted {
        fn clone(&self) -> Self {
            CLONES.with(|c| c.set(c.get() + 1));
            Counted(self.0.clone())
        }
    }

    impl ComparisonSummary<u64> for Counted {
        fn insert(&mut self, item: u64) {
            self.0.insert(item)
        }
        fn insert_sorted_run(&mut self, run: &[u64]) -> usize {
            self.0.insert_sorted_run(run)
        }
        fn item_array(&self) -> Vec<u64> {
            self.0.item_array()
        }
        fn stored_count(&self) -> usize {
            self.0.stored_count()
        }
        fn items_processed(&self) -> u64 {
            self.0.items_processed()
        }
        fn query_rank(&self, r: u64) -> Option<u64> {
            self.0.query_rank(r)
        }
        fn quantiles(&self, phis: &[f64], out: &mut Vec<Option<u64>>) {
            self.0.quantiles(phis, out)
        }
    }

    impl MergeableSummary<u64> for Counted {
        fn try_merge(&mut self, other: &Self) -> Result<(), MergeError> {
            self.0.try_merge(&other.0)
        }
        fn eps_bound(&self) -> Option<f64> {
            self.0.eps_bound()
        }
    }

    /// Summary clones made by `f`.
    fn clones<R>(f: impl FnOnce() -> R) -> u64 {
        let before = CLONES.with(std::cell::Cell::get);
        f();
        CLONES.with(std::cell::Cell::get) - before
    }

    #[test]
    fn reads_borrow_the_cached_fold() {
        let reg = QuantileRegistry::new(
            ServiceConfig {
                shards: 4,
                stripes: 2,
                fold_cadence: 1 << 20,
            },
            || Counted(GkSummary::new(0.01)),
        );
        let (a, b) = (reg.handle("a"), reg.handle("b"));
        for v in 0..2000u64 {
            a.record(v * 7 % 2003);
            b.record(v * 11 % 2003);
        }
        let grid = crate::DEFAULT_PHI_GRID;
        // A refold of a dirty key clones only the shard it starts from.
        assert_eq!(clones(|| a.quantile(0.5)), 1);
        assert_eq!(clones(|| reg.export_quantiles(&grid)), 1, "b refolds");
        // With both folds cached, reads, ε and exports copy nothing.
        let reads = clones(|| {
            for phi in grid {
                a.quantile(phi).expect("fold");
                b.quantile(phi).expect("fold");
            }
            a.composed_eps().expect("fold");
            reg.export_quantiles(&grid).expect("export")
        });
        assert_eq!(reads, 0);
        b.record(5);
        assert_eq!(clones(|| reg.export_quantiles(&grid)), 1, "b refolds");
        assert_eq!(clones(|| b.composed_eps()), 0);
        // `folded` hands out an owned copy of the cached fold.
        assert_eq!(clones(|| a.folded()), 1);
        let folded = a.folded().expect("fold").expect("non-empty");
        let mut want = Vec::new();
        folded.quantiles(&grid, &mut want);
        let export = reg.export_quantiles(&grid).expect("export");
        assert_eq!(export.keys[0].values, want);
    }
}
