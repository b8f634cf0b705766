//! Interval-compressed stream index — the billion-item adversary's
//! order statistics without the billion items.
//!
//! The materialized [`StreamState`](crate::state::StreamState) keeps
//! every appended item in an order-statistic treap, so memory grows as
//! Θ(N). But the adversary's stream has far more structure than an
//! arbitrary item sequence: it is a concatenation of *runs*, each run
//! minted by the deterministic balanced subdivision of
//! [`cqs_universe::generate_increasing`] inside one open interval. A
//! run is therefore a **pure function of its interval and count** — the
//! stream is fully described by the run table, which has one entry per
//! leaf of the recursion tree (2^{k-1} entries) instead of one per item
//! (N = (1/ε)·2^k).
//!
//! [`ImplicitOrder`] stores exactly that: a [`RunGenerator`] per run
//! (the label oracle), a fragment treap ([`RunTree`]) ordering the
//! runs' contiguous blocks by label with cached *virtual* counts, and a
//! bounded direct-mapped id→arrival-tag cache ([`TagCache`]) so the hot
//! queries — rank and arrival tag of summary-retained items — skip the
//! O(log n · |label|) generator descent. A rank query is one
//! neighbour-free fragment descent (a batch of them, one
//! [`RunTree::multi_locate`] walk) plus an O(1) cache lookup for the
//! offset inside the fragment. Every answer is byte-identical to what
//! the materialized treap over the same stream would give (the
//! differential suite in `cqs-bench` pins this at moderate N), because
//! both sides replay the identical subdivision.
//!
//! Memory is O(#fragments + cache capacity + summary-retained label
//! bytes): sublinear in N, which is what lets the Theorem 2.2 sweep
//! verify the Ω((1/ε)·log εN) shape at N = 10⁸–10⁹ on one machine.

use cqs_ostree::{Fragment, Locate, RunTree};
use cqs_universe::{Interval, Item, RunGenerator};

use crate::tag_cache::TagCache;

/// The interval-compressed order index. See the module docs.
pub(crate) struct ImplicitOrder {
    /// Label oracle per run, indexed by the `run` field of fragments.
    gens: Vec<RunGenerator>,
    /// Global arrival tag of each run's item 0: runs arrive whole, so
    /// the tag of run `r`'s `j`-th item is `starts[r] + j`.
    starts: Vec<u64>,
    /// Fragments of contiguous in-run index ranges, in label order.
    tree: RunTree<Item>,
    /// Total virtual items (= stream length so far).
    len: u64,
    /// Id → arrival tag fast path, seeded with every run as it arrives
    /// and re-seeded by every generator lookup.
    cache: TagCache,
}

impl ImplicitOrder {
    pub(crate) fn new() -> Self {
        ImplicitOrder {
            gens: Vec::new(),
            starts: Vec::new(),
            tree: RunTree::new(),
            len: 0,
            cache: TagCache::default(),
        }
    }

    /// An index whose tag cache has `cap` slots — small capacities force
    /// constant evictions, which the collision tests rely on.
    #[cfg(test)]
    pub(crate) fn with_cache_capacity(cap: usize) -> Self {
        ImplicitOrder {
            cache: TagCache::with_capacity(cap),
            ..Self::new()
        }
    }

    /// Number of virtual items indexed.
    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    /// Number of fragments — the actual resident footprint driver.
    #[cfg(test)]
    pub(crate) fn fragment_count(&self) -> usize {
        self.tree.fragment_count()
    }

    /// Appends a freshly minted run of `items` (strictly increasing,
    /// all inside the open interval `iv`) to the stream.
    ///
    /// The adversary only ever mints into an interval whose endpoints
    /// are order-adjacent existing stream items (or ±∞), so at most the
    /// fragment containing `iv`'s low endpoint needs splitting — the
    /// high endpoint is the very next virtual item and lands on a
    /// fragment boundary automatically.
    ///
    /// # Panics
    ///
    /// Panics if the run table would exceed the fragment treap's `u32`
    /// run-id space; callers on the panic-free driver path check
    /// [`Self::runs_exhausted`] before minting.
    pub(crate) fn insert_run(&mut self, iv: &Interval, items: &[Item]) {
        let Some((first, last)) = items.first().zip(items.last()) else {
            return;
        };
        assert!(
            self.gens.len() < u32::MAX as usize,
            "implicit stream exhausted the u32 run-id space"
        );
        self.split_at_endpoint(iv);
        let run = self.gens.len() as u32;
        let count = items.len() as u64;
        self.tree.insert_fragment(Fragment {
            lo: first.clone(),
            hi: last.clone(),
            count,
            run,
            base: 0,
        });
        let start = self.len;
        for (j, it) in (start..).zip(items) {
            if let Some(id) = it.arena_id() {
                self.cache.set(id, j);
            }
        }
        self.gens.push(RunGenerator::new(iv, count));
        self.starts.push(start);
        self.len += count;
    }

    /// Whether one more run can be registered without overflowing the
    /// `u32` run-id space.
    pub(crate) fn runs_exhausted(&self) -> bool {
        self.gens.len() >= u32::MAX as usize
    }

    /// Splits the fragment containing `iv`'s low endpoint so the
    /// endpoint becomes a fragment's `hi`. No-op when the endpoint is
    /// infinite, not inside any fragment, or already a boundary.
    fn split_at_endpoint(&mut self, iv: &Interval) {
        let cqs_universe::Endpoint::Finite(a) = iv.lo() else {
            return;
        };
        let idx = match self.tree.locate(a).hit {
            Some(f) if f.hi != *a => self.position_in(f, a),
            _ => return,
        };
        // A locate hit on a stream item guarantees both lookups succeed;
        // on the guarded driver path we still degrade to a no-op
        // (reinserting what was removed) rather than unwind.
        let Ok(idx) = idx else {
            return;
        };
        let Some(f) = self.tree.remove_containing(a) else {
            return;
        };
        let Some(gen) = self.gens.get(f.run as usize) else {
            self.tree.insert_fragment(f);
            return;
        };
        debug_assert!(idx >= f.base && idx < f.base + f.count);
        let left = Fragment {
            lo: f.lo,
            hi: a.clone(),
            count: idx + 1 - f.base,
            run: f.run,
            base: f.base,
        };
        let right = Fragment {
            lo: gen.item_at(idx + 1),
            hi: f.hi,
            count: f.base + f.count - idx - 1,
            run: f.run,
            base: idx + 1,
        };
        debug_assert!(right.count >= 1, "endpoint was not mid-fragment after all");
        self.tree.insert_fragment(left);
        self.tree.insert_fragment(right);
    }

    /// Where `q` falls in the run of fragment `f`, which contains it by
    /// label range: `Ok(in-run index)` when `q` is a stream item, else
    /// `Err(run items below q)` (cf. [`RunGenerator::position`]).
    ///
    /// The cache answers stream items in O(1); everything else pays the
    /// generator descent, and a stream item found that way is cached for
    /// next time. A missing generator (never on a well-formed index)
    /// degrades to "nothing of the fragment below `q`".
    fn position_in(&self, f: &Fragment<Item>, q: &Item) -> Result<u64, u64> {
        let start = self.starts.get(f.run as usize).copied();
        let cached = q
            .arena_id()
            .and_then(|id| self.cache.get(id))
            .zip(start)
            .and_then(|(tag, start)| tag.checked_sub(start));
        if let Some(idx) = cached.filter(|&idx| idx >= f.base && idx < f.base + f.count) {
            return Ok(idx);
        }
        let pos = self
            .gens
            .get(f.run as usize)
            .map_or(Err(f.base), |g| g.position(q.label()));
        if let (Ok(idx), Some(id), Some(start)) = (pos, q.arena_id(), start) {
            self.cache.set(id, start + idx);
        }
        pos
    }

    /// How many stream items compare `<= q`, for the probe whose
    /// fragment search ended at `l`.
    fn le_at(&self, l: &Locate<'_, Item>, q: &Item) -> u64 {
        match l.hit {
            None => l.before,
            Some(f) => {
                let le = self
                    .position_in(f, q)
                    .map_or_else(|below| below, |idx| idx + 1);
                l.before + le.saturating_sub(f.base)
            }
        }
    }

    /// How many stream items compare strictly below `q`.
    pub(crate) fn count_less(&self, q: &Item) -> u64 {
        let l = self.tree.locate(q);
        match l.hit {
            None => l.before,
            Some(f) => {
                let less = self.position_in(f, q).unwrap_or_else(|below| below);
                l.before + less.saturating_sub(f.base)
            }
        }
    }

    /// How many stream items compare `<= q`.
    pub(crate) fn count_le(&self, q: &Item) -> u64 {
        self.le_at(&self.tree.locate(q), q)
    }

    /// The arrival tag of `q` if the cache holds it — no tree descent.
    fn cached_tag(&self, q: &Item) -> Option<u64> {
        self.cache.get(q.arena_id()?)
    }

    /// The arrival tag of the probe whose fragment search ended at `l`,
    /// if it is a stream item.
    fn tag_at(&self, l: &Locate<'_, Item>, q: &Item) -> Option<u64> {
        let f = l.hit?;
        let idx = self.position_in(f, q).ok()?;
        Some(*self.starts.get(f.run as usize)? + idx)
    }

    /// The arrival tag of stream item `q`, if `q` is in the stream.
    pub(crate) fn tag_of(&self, q: &Item) -> Option<u64> {
        self.cached_tag(q)
            .or_else(|| self.tag_at(&self.tree.locate(q), q))
    }

    /// The smallest stream item strictly above `q`, freshly
    /// materialized. Label-equality makes the mint interchangeable with
    /// the original arrival.
    pub(crate) fn successor(&self, q: &Item) -> Option<Item> {
        if let Some(f) = self.tree.locate(q).hit {
            let le = self
                .position_in(f, q)
                .map_or_else(|below| below, |idx| idx + 1);
            if le < f.base + f.count {
                return self.gens.get(f.run as usize).map(|g| g.item_at(le));
            }
        }
        self.tree.first_above(q).map(|s| s.lo.clone())
    }

    /// The largest stream item strictly below `q`, freshly materialized.
    pub(crate) fn predecessor(&self, q: &Item) -> Option<Item> {
        if let Some(f) = self.tree.locate(q).hit {
            let less = self.position_in(f, q).unwrap_or_else(|below| below);
            if less > f.base {
                return self.gens.get(f.run as usize).map(|g| g.item_at(less - 1));
            }
        }
        self.tree.last_below(q).map(|p| p.hi.clone())
    }

    /// The smallest stream item.
    pub(crate) fn min(&self) -> Option<Item> {
        self.tree.first().map(|f| f.lo.clone())
    }

    /// The largest stream item.
    pub(crate) fn max(&self) -> Option<Item> {
        self.tree.last().map(|f| f.hi.clone())
    }

    /// Batched [`Self::count_le`] over label-sorted queries: one
    /// [`RunTree::multi_locate`] walk finds every query's fragment, and
    /// the in-fragment offsets come from the cache. `out` is cleared
    /// first; `out[i]` answers `qs[i]`.
    pub(crate) fn multi_count_le(&self, qs: &[Item], out: &mut Vec<usize>) {
        let mut found = Vec::with_capacity(qs.len());
        self.tree.multi_locate(qs, &mut found);
        out.clear();
        out.extend(
            qs.iter()
                .zip(&found)
                .map(|(q, l)| self.le_at(l, q) as usize),
        );
    }

    /// Batched [`Self::tag_of`] over label-sorted queries. Cached items
    /// resolve without touching the tree; only when some query misses
    /// does one [`RunTree::multi_locate`] walk run, and it resolves
    /// every miss. `out` is cleared first; `out[i]` answers `qs[i]`.
    pub(crate) fn multi_tag_of(&self, qs: &[Item], out: &mut Vec<Option<u64>>) {
        out.clear();
        out.extend(qs.iter().map(|q| self.cached_tag(q)));
        if out.iter().all(Option::is_some) {
            return;
        }
        let mut found = Vec::with_capacity(qs.len());
        self.tree.multi_locate(qs, &mut found);
        for ((slot, q), l) in out.iter_mut().zip(qs).zip(&found) {
            if slot.is_none() {
                *slot = self.tag_at(l, q);
            }
        }
    }

    /// Visits every stream item in label order with its arrival tag,
    /// materializing each item on the fly. O(N log N) label mints —
    /// meant for snapshots and differential tests at moderate N, not
    /// for the billion-item hot path.
    pub(crate) fn for_each_tagged(&self, f: &mut dyn FnMut(&Item, u64)) {
        self.tree.for_each(&mut |frag| {
            let (Some(gen), Some(&start)) = (
                self.gens.get(frag.run as usize),
                self.starts.get(frag.run as usize),
            ) else {
                return;
            };
            for j in frag.base..frag.base + frag.count {
                let it = gen.item_at(j);
                f(&it, start + j);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqs_ostree::OsTree;
    use cqs_universe::{generate_increasing, Endpoint};

    /// Builds the same stream both ways: a materialized treap and an
    /// implicit index, from a root run refined twice in the adversary's
    /// pattern (mint between order-adjacent items).
    fn build_both(root_n: usize, leaf_n: usize) -> (OsTree<Item>, ImplicitOrder) {
        build_both_with(ImplicitOrder::new(), root_n, leaf_n)
    }

    /// [`build_both`] into a caller-configured implicit index.
    fn build_both_with(
        mut imp: ImplicitOrder,
        root_n: usize,
        leaf_n: usize,
    ) -> (OsTree<Item>, ImplicitOrder) {
        let mut mat = OsTree::new();
        let mut tag = 0u64;
        let mut feed =
            |mat: &mut OsTree<Item>, imp: &mut ImplicitOrder, iv: &Interval, n: usize| {
                let items = generate_increasing(iv, n);
                for it in &items {
                    mat.insert_unique_tagged(it.clone(), tag);
                    tag += 1;
                }
                imp.insert_run(iv, &items);
                items
            };
        let whole = Interval::whole();
        let root = feed(&mut mat, &mut imp, &whole, root_n);
        // Refine between two order-adjacent items in the middle.
        let m = root_n / 2;
        let iv1 = Interval::open(root[m].clone(), root[m + 1].clone());
        let left = feed(&mut mat, &mut imp, &iv1, leaf_n);
        // And again inside the new run (order-adjacent pair of it).
        let iv2 = Interval::open(left[0].clone(), left[1].clone());
        feed(&mut mat, &mut imp, &iv2, leaf_n);
        // Also refine at a fragment boundary: just above the root max.
        let iv3 = Interval::new(Endpoint::Finite(root[root_n - 1].clone()), Endpoint::PosInf);
        feed(&mut mat, &mut imp, &iv3, leaf_n);
        (mat, imp)
    }

    #[test]
    fn matches_materialized_treap_on_refined_stream() {
        let (mat, imp) = build_both(32, 8);
        assert_matches_materialized(&mat, &imp);
    }

    /// Every point query of `imp` — on each stream item and on a probe
    /// between each adjacent pair — answers as the treap `mat` does.
    fn assert_matches_materialized(mat: &OsTree<Item>, imp: &ImplicitOrder) {
        assert_eq!(imp.len(), mat.len() as u64);
        let mut all: Vec<(Item, u64)> = Vec::new();
        mat.for_each_tagged(&mut |it, t| all.push((it.clone(), t)));
        for (it, t) in &all {
            assert_eq!(imp.count_less(it), mat.count_less(it) as u64);
            assert_eq!(imp.count_le(it), mat.count_le(it) as u64);
            assert_eq!(imp.tag_of(it), Some(*t));
            assert_eq!(imp.successor(it), mat.successor(it).cloned());
            assert_eq!(imp.predecessor(it), mat.predecessor(it).cloned());
        }
        assert_eq!(imp.min(), mat.min().cloned());
        assert_eq!(imp.max(), mat.max().cloned());
        // Probes between adjacent stream items.
        for w in all.windows(2) {
            if w[0].0 < w[1].0 {
                let probe = cqs_universe::between_items(&w[0].0, &w[1].0);
                assert_eq!(imp.count_less(&probe), mat.count_less(&probe) as u64);
                assert_eq!(imp.count_le(&probe), mat.count_le(&probe) as u64);
                assert_eq!(imp.tag_of(&probe), None);
                assert_eq!(imp.successor(&probe), mat.successor(&probe).cloned());
                assert_eq!(imp.predecessor(&probe), mat.predecessor(&probe).cloned());
            }
        }
    }

    #[test]
    fn replay_visits_identical_items_and_tags() {
        let (mat, imp) = build_both(16, 4);
        let mut a: Vec<(Vec<u8>, u64)> = Vec::new();
        mat.for_each_tagged(&mut |it, t| a.push((it.label().to_vec(), t)));
        let mut b: Vec<(Vec<u8>, u64)> = Vec::new();
        imp.for_each_tagged(&mut |it, t| b.push((it.label().to_vec(), t)));
        assert_eq!(a, b);
    }

    #[test]
    fn fresh_remints_resolve_without_memo() {
        let (mat, imp) = build_both(16, 4);
        let mut items: Vec<(Item, u64)> = Vec::new();
        mat.for_each_tagged(&mut |it, t| items.push((it.clone(), t)));
        for (it, t) in &items {
            // A brand-new mint of the same label: different arena id,
            // so every memo lookup misses and the generator descent
            // must produce the same answers.
            let fresh = Item::from_label(it.label().to_vec());
            assert_eq!(imp.tag_of(&fresh), Some(*t));
            assert_eq!(imp.count_less(&fresh), mat.count_less(it) as u64);
        }
    }

    #[test]
    fn multi_queries_match_scalar_queries() {
        let (mat, imp) = build_both(16, 4);
        let mut qs: Vec<Item> = Vec::new();
        mat.for_each_tagged(&mut |it, _| qs.push(it.clone()));
        // Probes between adjacent items, and fresh re-mints that miss
        // the cache, ride in the same sorted batch.
        let mut batch: Vec<Item> = Vec::new();
        for w in qs.windows(2) {
            batch.push(w[0].clone());
            batch.push(Item::from_label(w[0].label().to_vec()));
            batch.push(cqs_universe::between_items(&w[0], &w[1]));
        }
        let mut tags = Vec::new();
        imp.multi_tag_of(&batch, &mut tags);
        let mut les = Vec::new();
        imp.multi_count_le(&batch, &mut les);
        assert_eq!((tags.len(), les.len()), (batch.len(), batch.len()));
        for (i, q) in batch.iter().enumerate() {
            assert_eq!(tags[i], imp.tag_of(q));
            assert_eq!(les[i] as u64, imp.count_le(q));
            assert_eq!(les[i], mat.count_le(q));
        }
        // Whole-cache hits skip the walk and still answer in order.
        imp.multi_tag_of(&qs, &mut tags);
        for (i, q) in qs.iter().enumerate() {
            assert_eq!(tags[i], mat.tag_of(q));
        }
    }

    #[test]
    fn cache_collisions_keep_answers_correct() {
        // One and four slots: nearly every lookup collides with, or was
        // evicted by, another id, so answers come from the generators.
        for cap in [1, 4] {
            let (mat, imp) = build_both_with(ImplicitOrder::with_cache_capacity(cap), 32, 8);
            assert_matches_materialized(&mat, &imp);
            // A second pass runs against the re-stored (and re-evicted)
            // entries of the first.
            assert_matches_materialized(&mat, &imp);
        }
    }

    #[test]
    fn empty_run_is_a_no_op() {
        let mut imp = ImplicitOrder::new();
        imp.insert_run(&Interval::whole(), &[]);
        assert_eq!(imp.len(), 0);
        assert_eq!(imp.fragment_count(), 0);
        assert!(imp.min().is_none() && imp.max().is_none());
    }
}
