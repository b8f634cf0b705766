//! A live (stream, summary) pair with order-statistic indexing.
//!
//! The adversary grows two of these — one for π, one for ϱ. Each tracks:
//!
//! * the summary under attack (any [`ComparisonSummary<Item>`]);
//! * a run-fragment order index over the stream (`run_order`),
//!   giving the paper's `rank_σ(a)`, `next(σ, a)` and `prev(σ, b)` in
//!   O(log #fragments) plus one lookup inside a run — each run also
//!   records the arrival position of its first item, which yields every
//!   item's arrival tag, used to *verify* (not assume)
//!   indistinguishability: Definition 3.2(2) demands that the i-th stored
//!   items of the two summaries arrived at the same stream position.

use std::borrow::Borrow;

use cqs_universe::{Endpoint, Interval, Item, RunGenerator};

use crate::model::ComparisonSummary;
use crate::run_order::{RunOrder, RunSource};

/// How a [`StreamState`] keeps the items of the runs it indexes. Both
/// share one run-fragment order index and answer byte-identically for
/// the same stream; they differ in what each run keeps and in how the
/// adversary mints leaves for it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamRepr {
    /// Every run keeps its minted items, each with its own arena id:
    /// Θ(N) resident items, and a lookup inside a run is a binary
    /// search. The default.
    Materialized,
    /// Every run keeps only its interval and count, and replays its mint
    /// on demand, so memory is sublinear in N: the index keeps detached
    /// copies of the runs' fragment bounds and interval endpoints, each
    /// pinning its own label only. The adversary seals leaf labels in
    /// groups of eight for it, so an item the summary retains pins at
    /// most eight labels, not its whole run.
    Implicit,
}

/// A stream being fed to a summary, with full order-statistic indexing.
pub struct StreamState<S> {
    /// The summary under adversarial attack.
    pub summary: S,
    order: RunOrder,
    repr: StreamRepr,
    n: u64,
    max_label_depth: usize,
}

impl<S: ComparisonSummary<Item>> StreamState<S> {
    /// Wraps a fresh summary; the stream starts empty. Materialized
    /// representation — see [`with_repr`](Self::with_repr).
    pub fn new(summary: S) -> Self {
        Self::with_repr(summary, StreamRepr::Materialized)
    }

    /// Wraps a fresh summary with an explicit stream representation.
    pub fn with_repr(summary: S, repr: StreamRepr) -> Self {
        StreamState {
            summary,
            order: RunOrder::new(),
            repr,
            n: 0,
            max_label_depth: 0,
        }
    }

    /// The active stream representation.
    pub fn repr(&self) -> StreamRepr {
        self.repr
    }

    /// Sets the representation of the runs indexed from now on. Both
    /// share one index, so switching an empty stream costs nothing.
    pub(crate) fn set_repr(&mut self, repr: StreamRepr) {
        self.repr = repr;
    }

    /// Rebuilds a state from snapshot parts: a restored summary plus the
    /// stream's `(item, arrival tag)` pairs in sorted item order. The
    /// result is materialized: each maximal stretch of pairs whose tags
    /// rise by exactly 1 becomes one stored run.
    ///
    /// Validates everything a corrupt or hand-forged snapshot could get
    /// wrong — items must be strictly increasing, the tags must be a
    /// permutation of `0..pairs.len()`, and the summary must have
    /// processed exactly `pairs.len()` items — and returns a diagnostic
    /// instead of restoring silently. `max_label_depth` is recomputed
    /// from the items themselves.
    pub fn from_snapshot_parts(summary: S, pairs: Vec<(Item, u64)>) -> Result<Self, String> {
        let n = pairs.len() as u64;
        if !pairs.windows(2).all(|w| match (w.first(), w.last()) {
            (Some(a), Some(b)) => a.0 < b.0,
            _ => true,
        }) {
            return Err("stream snapshot items are not strictly increasing".to_string());
        }
        let mut seen = vec![false; pairs.len()];
        for &(_, tag) in &pairs {
            match seen.get_mut(tag as usize) {
                Some(slot) if !*slot => *slot = true,
                _ => {
                    return Err(format!(
                        "stream snapshot arrival tags are not a permutation of 0..{n} \
                         (tag {tag} repeated or out of range)"
                    ));
                }
            }
        }
        if summary.items_processed() != n {
            return Err(format!(
                "stream snapshot length {n} disagrees with summary items_processed {}",
                summary.items_processed()
            ));
        }
        let max_label_depth = pairs.iter().map(|(it, _)| it.depth()).max().unwrap_or(0);
        let order = RunOrder::from_sorted_tagged(pairs).ok_or_else(|| {
            "stream snapshot needs more than 2^32 - 1 runs of consecutive arrival tags".to_string()
        })?;
        Ok(StreamState {
            summary,
            order,
            repr: StreamRepr::Materialized,
            n,
            max_label_depth,
        })
    }

    /// Visits every stream item in sorted order with its arrival tag —
    /// the exact pairs [`from_snapshot_parts`](Self::from_snapshot_parts)
    /// accepts back.
    pub fn for_each_arrival(&self, f: &mut dyn FnMut(&Item, u64)) {
        self.order.for_each_tagged(f);
    }

    /// Visits every item the order index keeps beyond a stored run's own
    /// items: fragment bounds and generated runs' interval endpoints.
    /// Memory-accounting introspection: on an implicit stream fed by the
    /// adversary each should [pin](Item::pinned_bytes) only its label.
    pub fn for_each_index_bound(&self, f: &mut dyn FnMut(&Item)) {
        self.order.for_each_bound(f);
    }

    /// Appends one item to the stream and feeds it to the summary. The
    /// item becomes a one-item stored run, splitting the fragment whose
    /// label span it falls into; works in both representations.
    ///
    /// # Panics
    ///
    /// Panics if the item already occurred — the adversarial streams
    /// consist of distinct items, and `rank_σ` is only well-defined then.
    pub fn push(&mut self, item: Item) {
        let run = std::slice::from_ref(&item);
        self.validate_run(run);
        let source = RunSource::Stored(Box::new([item.clone()]));
        self.order.insert_run(&Interval::whole(), run, source);
        self.summary.insert(item);
        self.n += 1;
    }

    /// Appends a strictly increasing run of fresh items, minted inside
    /// the open interval `iv`, whose closed span `[run[0], run[last]]`
    /// contains no existing stream item — exactly the situation at every
    /// adversary leaf, where the current interval was refined to be
    /// empty of stream items. Returns the largest `|I|` the summary
    /// reported at any point of the run (cf.
    /// [`ComparisonSummary::insert_sorted_run`]).
    ///
    /// Works in both stream representations: a materialized stream keeps
    /// the run's items, an implicit one the interval's run generator.
    /// Equivalent to calling [`push`](Self::push) per item.
    ///
    /// # Panics
    ///
    /// Panics (with the same "distinct" diagnostic as `push`) if the run
    /// is not strictly increasing or its span overlaps existing items.
    pub fn push_run_in(&mut self, iv: &Interval, run: &[Item]) -> usize {
        self.index_run_in(iv, run);
        self.feed_run(run)
    }

    /// Indexes a run minted inside `iv` in the order-statistic index
    /// *without* feeding the summary or advancing the stream length —
    /// the first half of [`push_run_in`](Self::push_run_in), split out
    /// for the panic-free driver: the index must know the items before
    /// any summary call so that, when the summary panics mid-run,
    /// rank/next/prev queries for the partial audit trail stay coherent.
    /// Follow up with [`feed_run`](Self::feed_run).
    ///
    /// # Panics
    ///
    /// Same validity requirements as [`push_run_in`](Self::push_run_in);
    /// additionally panics if the run-id space is exhausted (callers on
    /// the panic-free driver path check
    /// [`runs_exhausted`](Self::runs_exhausted) first).
    pub fn index_run_in(&mut self, iv: &Interval, run: &[Item]) {
        self.validate_run(run);
        debug_assert!(
            run.iter().all(|it| iv.contains(it)),
            "run item escaped its mint interval"
        );
        let source = match self.repr {
            StreamRepr::Materialized => RunSource::Stored(run.into()),
            StreamRepr::Implicit => RunSource::Generated(RunGenerator::of_run(iv, run)),
        };
        self.order.insert_run(iv, run, source);
    }

    /// Shared validity check of the run entry points: strictly increasing
    /// items (the index then checks that their closed span holds no
    /// stream item). Also folds the run into the label-depth statistic.
    fn validate_run(&mut self, run: &[Item]) {
        assert!(
            run.iter().zip(run.iter().skip(1)).all(|(a, b)| a < b),
            "adversarial stream items must be distinct"
        );
        for it in run {
            self.max_label_depth = self.max_label_depth.max(it.depth());
        }
    }

    /// Whether the stream can no longer accept runs: the index has a
    /// `u32` run-id space (4 × 10⁹ runs ≈ 10¹² items at the adversary's
    /// leaf sizes — a capacity probe, not a practical limit).
    pub fn runs_exhausted(&self) -> bool {
        self.order.runs_exhausted()
    }

    /// Feeds a run already indexed via
    /// [`index_run_in`](Self::index_run_in) to the summary in one
    /// [`ComparisonSummary::insert_sorted_run`] call and advances the
    /// stream length; returns the run's peak `|I|`. The second half of
    /// [`push_run_in`](Self::push_run_in): the arrival tags that
    /// `index_run_in` assigned assume the runs are fed in the order
    /// they were indexed.
    pub fn feed_run(&mut self, run: &[Item]) -> usize {
        let peak = self.summary.insert_sorted_run(run);
        self.n += run.len() as u64;
        peak
    }

    /// Capacity hint for `additional` more stream items. The index grows
    /// per run, not per item, and a run's items arrive in one allocation,
    /// so there is nothing to reserve; the hint is accepted and ignored.
    pub fn reserve_items(&mut self, _additional: usize) {}

    /// Stream length so far.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// The longest universe label (in bytes) the stream has minted — the
    /// adversary-side cost of the continuity assumption. Balanced
    /// subdivision adds only O(log 1/ε) per leaf, but the in-order
    /// refinement chain can nest Θ(2^k) times when every gap ties (the
    /// store-everything summary), so worst-case depth is Θ(εN) bytes —
    /// matching the paper's remark that the string universe works "by
    /// making the strings even longer".
    pub fn max_label_depth(&self) -> usize {
        self.max_label_depth
    }

    /// Whether the stream is still empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// `rank_σ(a)`: 1-based position of `a` in the sorted order of the
    /// stream (valid for any universe item, present or not).
    pub fn rank(&self, a: &Item) -> u64 {
        self.order.count_less(a) + 1
    }

    /// `next(σ, a)`: smallest stream item strictly greater than `a`.
    pub fn next(&self, a: &Item) -> Option<Item> {
        self.order.successor(a)
    }

    /// `prev(σ, b)`: largest stream item strictly smaller than `b`.
    pub fn prev(&self, b: &Item) -> Option<Item> {
        self.order.predecessor(b)
    }

    /// Smallest stream item.
    pub fn min(&self) -> Option<Item> {
        self.order.min()
    }

    /// Largest stream item.
    pub fn max(&self) -> Option<Item> {
        self.order.max()
    }

    /// Arrival position (0-based) of a stream item: its run's first
    /// arrival plus its index in the run.
    pub fn arrival_of(&self, a: &Item) -> Option<u64> {
        self.order.tag_of(a)
    }

    /// Number of stream items strictly inside the open interval.
    pub fn count_inside(&self, iv: &Interval) -> u64 {
        let (lo, hi) = iv.finite_bounds();
        let below_hi = hi.map_or(self.order.len(), |h| self.order.count_less(h));
        below_hi - lo.map_or(0, |l| self.order.count_le(l))
    }

    /// The rank of an endpoint within the *restricted substream* of
    /// interval `iv`: the conceptual sorted list
    /// `[lo if finite] ++ (stream items strictly inside iv) ++ [hi if finite]`,
    /// 1-based. The −∞ sentinel has rank 0; the +∞ sentinel has rank
    /// (list length + 1). This realises Definition 5.1's
    /// `rank_σ̄` including the enclosing boundary items of `I^(ℓ,r)`.
    pub fn rank_in(&self, iv: &Interval, x: &Endpoint) -> u64 {
        let lo = iv.finite_bounds().0;
        let lo_finite = lo.is_some();
        let base = lo.map_or(0, |l| self.order.count_le(l));
        match x {
            Endpoint::NegInf => 0,
            Endpoint::Finite(it) => {
                debug_assert!(
                    iv.lo().cmp_item(it).is_le() && iv.hi().cmp_item(it).is_ge(),
                    "rank_in item outside interval"
                );
                let le = self.order.count_le(it);
                (lo_finite as u64) + le.saturating_sub(base)
            }
            Endpoint::PosInf => (lo_finite as u64) + self.count_inside(iv) + 1,
        }
    }

    /// Batched [`rank_in`](Self::rank_in) over the whole restricted item
    /// array: fills `out` with the Definition 5.1 rank sequence
    /// `[rank(lo)] ++ [rank(it) for stored it inside iv] ++ [rank(hi)]`.
    /// The summary lends its stored items inside `iv`
    /// ([`ComparisonSummary::with_items_between`]) and the ranks are
    /// taken inside that loan, so no item is cloned. ALL ranks come from
    /// ONE batched fragment walk (`RunOrder::multi_count_le`) over the
    /// borrowed array `[lo] ++ lent ++ [hi]`: the finite boundaries ride
    /// along as the first/last queries (the open interval keeps the batch
    /// sorted), so no item pays a descent of its own, and a +∞ high
    /// sentinel needs only the stream length. `les` is the walk's count
    /// scratch.
    pub fn restricted_ranks_inside(&self, iv: &Interval, les: &mut Vec<usize>, out: &mut Vec<u64>) {
        let (lo, hi) = iv.finite_bounds();
        les.clear();
        self.summary.with_items_between(lo, hi, &mut |lent| {
            let mut qs: Vec<&Item> = Vec::with_capacity(lent.len() + 2);
            qs.extend(lo);
            qs.extend_from_slice(lent);
            qs.extend(hi);
            self.order.multi_count_le(&qs, les);
        });
        let (lo_finite, hi_finite) = (lo.is_some(), hi.is_some());
        let lo_off = usize::from(lo_finite);
        let base = if lo_finite {
            les.first().copied().unwrap_or(0) as u64
        } else {
            0
        };
        out.clear();
        out.reserve(les.len() + 2);
        // The low boundary's restricted rank is 1 when finite (it is the
        // array's first element), 0 for the −∞ sentinel.
        out.push(u64::from(lo_finite));
        let interior = les.len().saturating_sub(lo_off + usize::from(hi_finite));
        for &le in les.iter().skip(lo_off).take(interior) {
            out.push(u64::from(lo_finite) + (le as u64).saturating_sub(base));
        }
        let hi_rank = if hi_finite {
            u64::from(lo_finite) + (les.last().copied().unwrap_or(0) as u64).saturating_sub(base)
        } else {
            // +∞ sentinel: one past the whole restricted substream,
            // whose length is the stream length minus everything ≤ lo.
            u64::from(lo_finite) + self.order.len().saturating_sub(base) + 1
        };
        out.push(hi_rank);
    }

    /// The `j`-th (0-based) stored item strictly inside `iv`, cloned out
    /// of one loan of the summary's items; `None` past the last.
    pub fn stored_inside_at(&self, iv: &Interval, j: usize) -> Option<Item> {
        let (lo, hi) = iv.finite_bounds();
        let mut found = None;
        self.summary.with_items_between(lo, hi, &mut |lent| {
            found = lent.get(j).map(|&it| it.clone())
        });
        found
    }

    /// Batched [`arrival_of`](Self::arrival_of): arrival tags for a
    /// *sorted* slice of query items, owned or borrowed: items of runs in
    /// the id directory need no walk, and the rest share one fragment
    /// walk.
    pub fn multi_arrival_of<Q: Borrow<Item>>(&self, qs: &[Q], out: &mut Vec<Option<u64>>) {
        self.order.multi_tag_of(qs, out);
    }

    /// The restricted item array `I^(ℓ,r)`: the summary's stored items
    /// that fall strictly inside `iv`, *enclosed* by the interval's own
    /// endpoints (which, per the paper, count as array elements even when
    /// the summary has discarded them).
    pub fn restricted_item_array(&self, iv: &Interval) -> Vec<Endpoint> {
        let mut out = Vec::new();
        out.push(iv.lo().clone());
        self.summary.for_each_item(&mut |it| {
            if iv.contains(it) {
                out.push(Endpoint::Finite(it.clone()));
            }
        });
        out.push(iv.hi().clone());
        out
    }

    /// True rank error of answering rank-query `r` with item `x`:
    /// `|rank_σ(x) − r|`.
    pub fn rank_error(&self, x: &Item, r: u64) -> u64 {
        self.rank(x).abs_diff(r)
    }
}

/// Verifies the *observable* part of stream indistinguishability
/// (Definition 3.2) between the two live states: equal item-array sizes,
/// and positional correspondence — the i-th stored item of each summary
/// arrived at the same position of its stream.
///
/// Returns the common item-array size `|I|`, or `Err` with a
/// human-readable reason on the first violation. A violation means the
/// summary is not deterministic-comparison-based (or the construction
/// is buggy); the paper's argument then does not apply, so the harness
/// treats it as fatal.
pub fn check_indistinguishable<S: ComparisonSummary<Item>>(
    pi: &StreamState<S>,
    rho: &StreamState<S>,
) -> Result<usize, String> {
    let ia = pi.summary.item_array();
    let ib = rho.summary.item_array();
    if ia.len() != ib.len() {
        return Err(format!(
            "item arrays differ in size: |I_pi| = {}, |I_rho| = {}",
            ia.len(),
            ib.len()
        ));
    }
    for (i, (a, b)) in ia.iter().zip(ib.iter()).enumerate() {
        let pa = pi.arrival_of(a);
        let pb = rho.arrival_of(b);
        if pa.is_none() || pb.is_none() {
            return Err(format!(
                "stored item at index {i} never appeared in its stream"
            ));
        }
        if pa != pb {
            return Err(format!(
                "stored items at index {i} arrived at different positions: {pa:?} vs {pb:?}"
            ));
        }
    }
    Ok(ia.len())
}

/// Previous-pass entries probed from the cursor of the positional
/// tag match. Between two leaf checks a summary inserts one leaf's
/// items in one place and deletes short stretches (COMPRESS merges). On
/// the adversary's GK runs (ε = 1/256, k = 12) a window of 8 resolves
/// 80.6% of stored-item visits, as many as a window of 32; 2 resolves
/// 56% and 1 only 13%.
const LOOKAHEAD: usize = 8;

/// Incremental re-verifier for [`check_indistinguishable`] over a
/// growing pair of streams.
///
/// Arrival positions never change once an item enters its stream, and
/// between two checks a summary keeps most of its array, in the same
/// order. So per side the checker keeps the previous call's
/// `(arena id, tag)` pairs in array order, and each call walks the
/// summary's lent item array ([`ComparisonSummary::with_items_between`]:
/// no materialisation, no item clone) with a cursor into them. An item
/// whose id matches the entry at the cursor, or one of the next
/// [`LOOKAHEAD`] − 1, takes that entry's tag and moves the cursor past
/// it. Every other item is a miss — a new arrival, an item without an
/// arena id, or the first item after a deleted stretch longer than the
/// window — and all misses, still borrowed, resolve in one batched
/// index lookup ([`StreamState::multi_arrival_of`]), which answers from
/// the index's run-id directory or its fragment walk. A tag is reused only
/// on id equality, and equal ids prove the same item, so the window
/// changes how many items miss, never an answer. The cost per leaf is
/// O(|I| + new·log N), where `new` counts the items stored since the
/// previous call, instead of O(|I|·log N). That is what makes the
/// per-leaf Definition 3.2 check affordable at depth k = 12 and beyond.
///
/// Any anomaly (size mismatch, unknown item, tag divergence) falls back
/// to the full [`check_indistinguishable`] walk, so results — including
/// the diagnostic strings — are always identical to the reference check.
pub struct EquivalenceChecker {
    pi: Vec<(u32, u64)>,
    rho: Vec<(u32, u64)>,
    lookahead: usize,
    // Streaming scratch, reused across calls so a steady-state check
    // allocates only the misses' borrow list.
    next: Vec<(u32, u64)>,
    miss_pos: Vec<usize>,
    miss_tags: Vec<Option<u64>>,
}

impl Default for EquivalenceChecker {
    fn default() -> Self {
        EquivalenceChecker {
            pi: Vec::new(),
            rho: Vec::new(),
            lookahead: LOOKAHEAD,
            next: Vec::new(),
            miss_pos: Vec::new(),
            miss_tags: Vec::new(),
        }
    }
}

impl EquivalenceChecker {
    /// A checker with no previous pass (the first call resolves every
    /// stored item through the index).
    pub fn new() -> Self {
        Self::default()
    }

    /// A checker probing `lookahead` previous-pass entries per item; 0
    /// resolves every item through the index, which the tests use to
    /// check the batched path alone.
    #[cfg(test)]
    pub(crate) fn with_lookahead(lookahead: usize) -> Self {
        EquivalenceChecker {
            lookahead,
            ..Self::default()
        }
    }

    /// Semantically identical to [`check_indistinguishable`] on the same
    /// pair of states, including the returned `|I|` (the length of the
    /// arrays it was lent); see the type docs for the cost model.
    pub fn check<S: ComparisonSummary<Item>>(
        &mut self,
        pi: &StreamState<S>,
        rho: &StreamState<S>,
    ) -> Result<usize, String> {
        let EquivalenceChecker {
            pi: prev_pi,
            rho: prev_rho,
            lookahead,
            next,
            miss_pos,
            miss_tags,
        } = self;
        let ok = resolve_side(pi, prev_pi, *lookahead, next, miss_pos, miss_tags)
            && resolve_side(rho, prev_rho, *lookahead, next, miss_pos, miss_tags);
        // Equal tag sequences imply equal array sizes (one tag per
        // stored item), so this is the whole Definition 3.2 condition.
        if ok && prev_pi.iter().map(|e| e.1).eq(prev_rho.iter().map(|e| e.1)) {
            return Ok(prev_pi.len());
        }
        // Anomaly: let the reference walk produce the diagnostic. The
        // previous passes stay — a resolved tag is an immutable fact
        // about its stream, never stale.
        check_indistinguishable(pi, rho)
    }
}

/// Resolves the arrival tags of one side's item array against that
/// side's previous pass `prev` (see [`EquivalenceChecker`]) and, on
/// success, makes the result the new previous pass. Returns `false` if
/// some stored item never appeared in its stream (an anomaly; the caller
/// falls back to the reference walk for the diagnostic), keeping the
/// old pass.
fn resolve_side<S: ComparisonSummary<Item>>(
    st: &StreamState<S>,
    prev: &mut Vec<(u32, u64)>,
    lookahead: usize,
    next: &mut Vec<(u32, u64)>,
    miss_pos: &mut Vec<usize>,
    miss_tags: &mut Vec<Option<u64>>,
) -> bool {
    next.clear();
    miss_pos.clear();
    let mut ok = true;
    st.summary.with_items_between(None, None, &mut |lent| {
        let mut misses: Vec<&Item> = Vec::new();
        let mut at = 0;
        for &q in lent {
            let id = q.arena_id();
            let hit = id.and_then(|id| {
                let window = prev.get(at..).unwrap_or_default();
                let d = window.iter().take(lookahead).position(|e| e.0 == id)?;
                at += d + 1;
                window.get(d).map(|e| e.1)
            });
            // Items without an id get a key no id matches.
            let key = id.unwrap_or(u32::MAX);
            match hit {
                Some(tag) => next.push((key, tag)),
                None => {
                    miss_pos.push(next.len());
                    next.push((key, 0));
                    misses.push(q);
                }
            }
        }
        // All index lookups in one batch, then patched into place.
        st.multi_arrival_of(&misses, miss_tags);
        ok = miss_tags.len() == miss_pos.len()
            && miss_pos.iter().zip(miss_tags.iter()).all(|(&pos, tag)| {
                match (next.get_mut(pos), tag) {
                    (Some(slot), Some(t)) => {
                        slot.1 = *t;
                        true
                    }
                    _ => false,
                }
            });
    });
    if ok {
        std::mem::swap(prev, next);
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ExactSummary;
    use crate::rng::SplitMix64;
    use crate::run_order::model::{reshape, SortedModel, ID_SHAPES};
    use cqs_universe::{between_items, generate_increasing};

    fn state_with(n: usize) -> StreamState<ExactSummary<Item>> {
        let mut st = StreamState::new(ExactSummary::new());
        for it in generate_increasing(&Interval::whole(), n) {
            st.push(it);
        }
        st
    }

    #[test]
    fn ranks_and_neighbours() {
        let st = state_with(10);
        let items = st.summary.item_array();
        for (i, it) in items.iter().enumerate() {
            assert_eq!(st.rank(it), i as u64 + 1);
        }
        assert_eq!(st.next(&items[3]), Some(items[4].clone()));
        assert_eq!(st.prev(&items[3]), Some(items[2].clone()));
        assert_eq!(st.min(), Some(items[0].clone()));
        assert_eq!(st.max(), Some(items[9].clone()));
    }

    #[test]
    fn rank_in_whole_interval_matches_global_rank() {
        let st = state_with(10);
        let iv = Interval::whole();
        let items = st.summary.item_array();
        assert_eq!(st.rank_in(&iv, &Endpoint::NegInf), 0);
        assert_eq!(st.rank_in(&iv, &Endpoint::PosInf), 11);
        for (i, it) in items.iter().enumerate() {
            assert_eq!(st.rank_in(&iv, &Endpoint::Finite(it.clone())), i as u64 + 1);
        }
    }

    #[test]
    fn rank_in_finite_interval_counts_boundary_as_one() {
        let st = state_with(10);
        let items = st.summary.item_array();
        // Interval (items[2], items[7]): inside are items 3..=6 (4 items).
        let iv = Interval::open(items[2].clone(), items[7].clone());
        assert_eq!(st.count_inside(&iv), 4);
        assert_eq!(st.rank_in(&iv, &Endpoint::Finite(items[2].clone())), 1);
        assert_eq!(st.rank_in(&iv, &Endpoint::Finite(items[3].clone())), 2);
        assert_eq!(st.rank_in(&iv, &Endpoint::Finite(items[6].clone())), 5);
        assert_eq!(st.rank_in(&iv, &Endpoint::Finite(items[7].clone())), 6);
    }

    #[test]
    fn restricted_item_array_encloses_with_boundaries() {
        let st = state_with(10);
        let items = st.summary.item_array();
        let iv = Interval::open(items[2].clone(), items[7].clone());
        let arr = st.restricted_item_array(&iv);
        // lo + 4 inside + hi.
        assert_eq!(arr.len(), 6);
        assert_eq!(arr[0], Endpoint::Finite(items[2].clone()));
        assert_eq!(arr[5], Endpoint::Finite(items[7].clone()));
        assert_eq!(st.stored_inside_at(&iv, 0), Some(items[3].clone()));
        assert_eq!(st.stored_inside_at(&iv, 3), Some(items[6].clone()));
        assert_eq!(st.stored_inside_at(&iv, 4), None);
    }

    #[test]
    fn identical_streams_are_indistinguishable() {
        let a = state_with(20);
        let b = state_with(20);
        assert!(check_indistinguishable(&a, &b).is_ok());
    }

    #[test]
    fn different_length_arrays_are_flagged() {
        let a = state_with(20);
        let b = state_with(21);
        assert!(check_indistinguishable(&a, &b).is_err());
    }

    /// Checkers under test: the default window; look-ahead 0, which
    /// sends every stored item through the index; and look-ahead 1,
    /// which loses its place at every deleted item.
    fn checkers() -> [EquivalenceChecker; 3] {
        [
            EquivalenceChecker::new(),
            EquivalenceChecker::with_lookahead(0),
            EquivalenceChecker::with_lookahead(1),
        ]
    }

    const REPRS: [StreamRepr; 2] = [StreamRepr::Materialized, StreamRepr::Implicit];

    #[test]
    fn incremental_checker_matches_reference_as_streams_grow() {
        for repr in REPRS {
            for mut chk in checkers() {
                let items = generate_increasing(&Interval::whole(), 30);
                let mut a = StreamState::with_repr(ExactSummary::new(), repr);
                let mut b = StreamState::with_repr(ExactSummary::new(), repr);
                for it in items {
                    a.push(it.clone());
                    b.push(it);
                    assert_eq!(chk.check(&a, &b), check_indistinguishable(&a, &b));
                }
            }
        }
    }

    #[test]
    fn incremental_checker_reports_reference_diagnostics() {
        for repr in REPRS {
            for mut chk in checkers() {
                let items = generate_increasing(&Interval::whole(), 8);
                let mut a = StreamState::with_repr(ExactSummary::new(), repr);
                let mut b = StreamState::with_repr(ExactSummary::new(), repr);
                // Same first four items, verified once to record a
                // previous pass.
                for it in &items[..4] {
                    a.push(it.clone());
                    b.push(it.clone());
                }
                assert!(chk.check(&a, &b).is_ok());
                // Diverge: the same two items arrive in swapped order, so
                // the sorted arrays agree but positional correspondence
                // breaks and the incremental path must produce the exact
                // reference diagnostics.
                a.push(items[5].clone());
                a.push(items[4].clone());
                b.push(items[4].clone());
                b.push(items[5].clone());
                assert_eq!(chk.check(&a, &b), check_indistinguishable(&a, &b));
                assert!(chk.check(&a, &b).is_err());
                // After a fallback the previous passes stay and keep
                // agreeing.
                a.push(items[6].clone());
                b.push(items[6].clone());
                assert_eq!(chk.check(&a, &b), check_indistinguishable(&a, &b));
            }
        }
    }

    /// An exact summary whose stored items a test can delete, as a
    /// COMPRESS drops a stretch of tuples between two checks.
    #[derive(Default)]
    struct Prunable {
        items: Vec<Item>,
        n: u64,
    }

    impl ComparisonSummary<Item> for Prunable {
        fn insert(&mut self, item: Item) {
            let at = self.items.partition_point(|x| *x < item);
            self.items.insert(at, item);
            self.n += 1;
        }

        fn item_array(&self) -> Vec<Item> {
            self.items.clone()
        }

        fn stored_count(&self) -> usize {
            self.items.len()
        }

        fn items_processed(&self) -> u64 {
            self.n
        }

        fn query_rank(&self, r: u64) -> Option<Item> {
            let last = self.items.len().checked_sub(1)?;
            self.items
                .get((r as usize).saturating_sub(1).min(last))
                .cloned()
        }
    }

    #[test]
    fn incremental_checker_survives_deletions_longer_than_its_window() {
        for repr in REPRS {
            for mut chk in checkers() {
                let whole = Interval::whole();
                let root = generate_increasing(&whole, 64);
                let mut a = StreamState::with_repr(Prunable::default(), repr);
                let mut b = StreamState::with_repr(Prunable::default(), repr);
                a.push_run_in(&whole, &root);
                b.push_run_in(&whole, &root);
                assert_eq!(chk.check(&a, &b), Ok(a.summary.item_array().len()));
                // Both sides drop the same 20-item stretch, well past
                // the window, then take a leaf run in a gap above it.
                for st in [&mut a, &mut b] {
                    st.summary.items.drain(10..30);
                }
                assert_eq!(chk.check(&a, &b), check_indistinguishable(&a, &b));
                assert!(chk.check(&a, &b).is_ok());
                let iv = Interval::open(root[40].clone(), root[41].clone());
                let leaf = generate_increasing(&iv, 12);
                a.push_run_in(&iv, &leaf);
                b.push_run_in(&iv, &leaf);
                for st in [&mut a, &mut b] {
                    st.summary.items.drain(2..6);
                    st.summary.items.drain(30..45);
                }
                assert_eq!(chk.check(&a, &b), check_indistinguishable(&a, &b));
                assert!(chk.check(&a, &b).is_ok());
                // Equal sizes, different long stretches kept: the
                // positions disagree from the first cut on.
                a.summary.items.drain(0..12);
                b.summary.items.drain(20..32);
                assert_eq!(chk.check(&a, &b), check_indistinguishable(&a, &b));
                assert!(chk.check(&a, &b).is_err());
                // One more deletion on one side: sizes differ.
                a.summary.items.drain(0..9);
                assert_eq!(chk.check(&a, &b), check_indistinguishable(&a, &b));
                assert!(chk.check(&a, &b).is_err());
            }
        }
    }

    #[test]
    fn incremental_checker_matches_reference_on_implicit_streams() {
        // Both streams refine the same way: a root run, then a run inside
        // a gap of it, then one above its maximum. ϱ's third run lands in
        // the next gap up instead, so from then on the arrays keep their
        // size but disagree on arrival positions.
        let whole = Interval::whole();
        let root = generate_increasing(&whole, 16);
        let ivs = [
            whole,
            Interval::open(root[7].clone(), root[8].clone()),
            Interval::new(Endpoint::Finite(root[15].clone()), Endpoint::PosInf),
            Interval::open(root[8].clone(), root[9].clone()),
        ];
        let mut runs = vec![root];
        runs.extend(
            ivs.iter()
                .skip(1)
                .zip([8, 4, 4])
                .map(|(iv, n)| generate_increasing(iv, n)),
        );
        for ids in ID_SHAPES {
            // The index holds the runs in shape `ids`, the summary the
            // items as queries see them.
            let (indexed, fed) = reshape(&runs, ids);
            for mut chk in checkers() {
                let mut a = StreamState::with_repr(ExactSummary::new(), StreamRepr::Implicit);
                let mut b = StreamState::with_repr(ExactSummary::new(), StreamRepr::Implicit);
                for (i, ok) in [(0, true), (1, true), (2, false)] {
                    let j = if ok { i } else { 3 };
                    a.index_run_in(&ivs[i], &indexed[i]);
                    a.feed_run(&fed[i]);
                    b.index_run_in(&ivs[j], &indexed[j]);
                    b.feed_run(&fed[j]);
                    assert_eq!(
                        chk.check(&a, &b),
                        check_indistinguishable(&a, &b),
                        "{ids:?}"
                    );
                    assert_eq!(chk.check(&a, &b).is_ok(), ok, "{ids:?}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn duplicate_stream_items_rejected() {
        let mut st = StreamState::new(ExactSummary::new());
        let it = generate_increasing(&Interval::whole(), 1).pop().unwrap();
        st.push(it.clone());
        st.push(it);
    }

    #[test]
    fn push_run_matches_per_item_push() {
        let items = generate_increasing(&Interval::whole(), 24);
        let mut bulk = StreamState::new(ExactSummary::new());
        bulk.push_run_in(&Interval::whole(), &items);
        let mut single = StreamState::new(ExactSummary::new());
        for it in items.clone() {
            single.push(it);
        }
        assert_eq!(bulk.len(), single.len());
        assert_eq!(bulk.summary.item_array(), single.summary.item_array());
        for it in &items {
            assert_eq!(bulk.rank(it), single.rank(it));
            assert_eq!(bulk.arrival_of(it), single.arrival_of(it));
            assert_eq!(bulk.next(it), single.next(it));
            assert_eq!(bulk.prev(it), single.prev(it));
        }
    }

    /// Every order query of `st` — on each stream item and on a probe
    /// between each adjacent pair — answers as the reference model does.
    fn assert_matches_reference(st: &StreamState<ExactSummary<Item>>, reference: &SortedModel) {
        assert_eq!(st.len(), reference.len() as u64);
        assert_eq!(st.min(), reference.min().cloned());
        assert_eq!(st.max(), reference.max().cloned());
        let all: Vec<Item> = reference
            .tagged()
            .iter()
            .map(|(it, _)| it.clone())
            .collect();
        let probes = all.windows(2).map(|w| between_items(&w[0], &w[1]));
        for q in all.iter().cloned().chain(probes) {
            assert_eq!(st.rank(&q), reference.count_less(&q) as u64 + 1);
            assert_eq!(st.arrival_of(&q), reference.tag_of(&q));
            assert_eq!(st.next(&q), reference.successor(&q).cloned());
            assert_eq!(st.prev(&q), reference.predecessor(&q).cloned());
        }
    }

    #[test]
    fn interior_pushes_match_reference_treap() {
        // Per-item pushes strictly between adjacent items split a
        // fragment mid-span (stored or generated); the odd push below the
        // minimum or above the maximum lands beside every fragment. Each
        // push is checked against the sorted model query by query.
        for repr in [StreamRepr::Materialized, StreamRepr::Implicit] {
            let mut rng = SplitMix64::new(0x5e1);
            let mut st = StreamState::with_repr(ExactSummary::new(), repr);
            let mut reference = SortedModel::new();
            let whole = Interval::whole();
            let mut sorted = generate_increasing(&whole, 32);
            st.push_run_in(&whole, &sorted);
            for (tag, it) in (0..).zip(&sorted) {
                reference.insert_tagged(it.clone(), tag);
            }
            for _ in 0..64 {
                let i = rng.below(sorted.len() as u64 + 1) as usize;
                let item = match (i.checked_sub(1).map(|j| &sorted[j]), sorted.get(i)) {
                    (Some(a), Some(b)) => between_items(a, b),
                    (a, b) => {
                        let lo = a.map_or(Endpoint::NegInf, |a| Endpoint::Finite(a.clone()));
                        let hi = b.map_or(Endpoint::PosInf, |b| Endpoint::Finite(b.clone()));
                        generate_increasing(&Interval::new(lo, hi), 1).remove(0)
                    }
                };
                reference.insert_tagged(item.clone(), st.len());
                st.push(item.clone());
                sorted.insert(i, item);
                assert_matches_reference(&st, &reference);
            }
        }
    }

    #[test]
    fn push_run_tracks_label_depth_and_peak() {
        let items = generate_increasing(&Interval::whole(), 8);
        let depth = items.iter().map(|i| i.depth()).max().unwrap();
        let mut st = StreamState::new(ExactSummary::new());
        let peak = st.push_run_in(&Interval::whole(), &items);
        assert_eq!(peak, 8, "exact summary peak is the run length");
        assert_eq!(st.max_label_depth(), depth);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn push_run_rejects_span_overlapping_existing_items() {
        let items = generate_increasing(&Interval::whole(), 4);
        let mut st = StreamState::new(ExactSummary::new());
        st.push(items[1].clone());
        // The run's closed span [items[0], items[2]] contains items[1].
        st.push_run_in(&Interval::whole(), &[items[0].clone(), items[2].clone()]);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn push_run_rejects_non_increasing_runs() {
        let items = generate_increasing(&Interval::whole(), 2);
        let mut st = StreamState::new(ExactSummary::new());
        st.push_run_in(&Interval::whole(), &[items[1].clone(), items[0].clone()]);
    }
}
