//! The stream's order index: order statistics over runs, not items.
//!
//! The adversary's stream is a concatenation of *runs*: every leaf
//! appends 2/ε fresh items, minted by [`cqs_universe::generate_increasing`]
//! inside one open interval between order-adjacent stream items (or
//! ±∞). In label order the stream is therefore a sequence of contiguous
//! blocks of runs, and an index over those blocks answers the paper's
//! `rank_σ(a)`, `next(σ, a)`, `prev(σ, b)` and arrival tags with one
//! entry per block — each refinement splits at most one block, so there
//! are fewer than twice as many blocks as the 2^{k-1} runs — instead of
//! one entry per item (N = (1/ε)·2^k).
//!
//! [`RunOrder`] keeps a fragment treap ([`RunTree`]) ordering the runs'
//! contiguous blocks by label with cached counts, each run's arrival tag
//! of its item 0, and a [`RunSource`] per run that answers lookups
//! inside the run:
//!
//! * [`RunSource::Stored`] keeps a [`StoredRun`]
//!   ([`StreamRepr::Materialized`](crate::state::StreamRepr)): the run's
//!   labels in one chunk — the leaf's sealed chunk itself — plus a
//!   4-byte bound per item, so Θ(N) resident label bytes; a probe with
//!   no run id binary-searches at most 2/ε labels.
//! * [`RunSource::Generated`] keeps a [`RunGenerator`]
//!   ([`StreamRepr::Implicit`](crate::state::StreamRepr)): a run is a
//!   pure function of its interval and count, so the generator replays
//!   the deterministic mint on demand and memory is sublinear in N —
//!   what lets the Theorem 2.2 sweep verify the Ω((1/ε)·log εN) shape at
//!   N = 10⁸–10⁹ on one machine.
//!
//! A sealed run's items carry consecutive arena ids
//! ([`cqs_universe::run_first_id`]), so each run records its first id,
//! and an in-run lookup of one of its items is `id − first`. A small
//! id-ordered directory of `(first id, run)` finds a stream item's run,
//! and so its arrival tag, with no tree descent; a rank query is one
//! fragment descent (a batch of them, one [`RunTree::multi_locate`] walk)
//! plus that O(1) offset. Items with no run id (single mints, snapshot
//! stretches whose ids are not consecutive, post-exhaustion items) fall
//! back to the tree and the run source. Both sources answer identically,
//! because the generator replays the very subdivision that minted the
//! stored labels (the differential suite in `cqs-bench` pins this).

use std::borrow::Borrow;

use cqs_ostree::{Fragment, Locate, RunTree};
use cqs_universe::{Endpoint, Interval, Item, RunGenerator, StoredRun};

/// Where one run's items come from.
pub(crate) enum RunSource {
    /// The run's labels, resident in label order.
    Stored(StoredRun),
    /// The label oracle that replays the run's mint on demand.
    Generated(RunGenerator),
}

impl RunSource {
    /// The run's `j`-th item in label order: a view of the stored
    /// labels, or a re-mint; either equals the original, and carries its
    /// id when the run's ids are consecutive.
    fn item_at(&self, j: u64) -> Option<Item> {
        (j < self.count()).then(|| match self {
            RunSource::Stored(s) => s.item_at(j),
            RunSource::Generated(g) => g.item_at(j),
        })
    }

    /// Number of items in the run.
    fn count(&self) -> u64 {
        match self {
            RunSource::Stored(s) => s.count(),
            RunSource::Generated(g) => g.count(),
        }
    }

    /// Arena id of the run's item 0 when item `j` carries id `first + j`.
    fn first_id(&self) -> Option<u32> {
        match self {
            RunSource::Stored(s) => s.first_id(),
            RunSource::Generated(g) => g.first_id(),
        }
    }

    /// Where label `q` falls in the run, as [`slice::binary_search`]
    /// reports it.
    fn position(&self, q: &[u8]) -> Result<u64, u64> {
        match self {
            RunSource::Stored(s) => s.position(q),
            RunSource::Generated(g) => g.position(q),
        }
    }

    /// The copy of run item `it`, at in-run index `j`, that the index
    /// keeps as a fragment bound. A stored run gives a view of its own
    /// chunk, which costs no label bytes; a generated run keeps the
    /// [detached](Item::detached) item, which pins its own label and not
    /// its seal group.
    fn keep(&self, it: &Item, j: u64) -> Item {
        match self {
            RunSource::Stored(_) => self.item_at(j).unwrap_or_else(|| it.detached()),
            RunSource::Generated(_) => it.detached(),
        }
    }
}

/// One run of the stream.
struct Run {
    /// Global arrival tag of the run's item 0: runs arrive whole, so the
    /// tag of its `j`-th item is `start + j`.
    start: u64,
    source: RunSource,
}

impl Run {
    /// The in-run index of `q`, if its id marks it as one of this run's
    /// items.
    fn index_by_id(&self, q: &Item) -> Option<u64> {
        let j = u64::from(q.arena_id()?.checked_sub(self.source.first_id()?)?);
        (j < self.source.count()).then_some(j)
    }
}

/// One entry of the id directory: run `run` holds the items with arena
/// ids `first..end`.
#[derive(Clone, Copy)]
struct IdRange {
    first: u32,
    end: u32,
    run: u32,
}

/// The run-fragment order index. See the module docs.
pub(crate) struct RunOrder {
    /// Indexed by the `run` field of fragments.
    runs: Vec<Run>,
    /// Fragments of contiguous in-run index ranges, in label order; their
    /// counts sum to the stream length.
    tree: RunTree<Item>,
    /// The id ranges of runs with consecutive ids, in id order. A run
    /// whose ids lie below the last entry's stays out; its items resolve
    /// through the tree.
    by_id: Vec<IdRange>,
}

impl RunOrder {
    pub(crate) fn new() -> Self {
        RunOrder {
            runs: Vec::new(),
            tree: RunTree::new(),
            by_id: Vec::new(),
        }
    }

    /// An index over a whole stream given as `(item, arrival tag)` pairs
    /// in label order, which the caller has validated (strictly
    /// increasing items, tags a permutation of `0..pairs.len()`). Each
    /// maximal stretch whose tags rise by exactly 1 becomes one stored
    /// run, its labels copied into one chunk (a stretch past 4 GiB of
    /// labels continues as a second run), and the index keeps nothing of
    /// the given items. Returns `None` if the stretches overflow the
    /// `u32` run-id space.
    pub(crate) fn from_sorted_tagged(pairs: Vec<(Item, u64)>) -> Option<Self> {
        let mut order = Self::new();
        let mut stretch: Vec<Item> = Vec::new();
        let (mut start, mut bytes) = (0, 0usize);
        let mut pairs = pairs.into_iter().peekable();
        while let Some((item, tag)) = pairs.next() {
            if stretch.is_empty() {
                (start, bytes) = (tag, 0);
            }
            bytes += item.depth();
            stretch.push(item);
            if pairs.peek().is_some_and(|(next_item, next)| {
                tag.checked_add(1) == Some(*next) && bytes + next_item.depth() <= u32::MAX as usize
            }) {
                continue;
            }
            if order.runs_exhausted() {
                return None;
            }
            let source = RunSource::Stored(StoredRun::new(&stretch));
            stretch.clear();
            let bounds = source
                .item_at(0)
                .zip(source.item_at(source.count().saturating_sub(1)));
            if let Some(span) = bounds {
                order.push_run(start, span, source);
            }
        }
        Some(order)
    }

    /// Number of items indexed.
    pub(crate) fn len(&self) -> u64 {
        self.tree.virtual_len()
    }

    /// Number of fragments — the index's resident footprint driver.
    #[cfg(test)]
    pub(crate) fn fragment_count(&self) -> usize {
        self.tree.fragment_count()
    }

    /// Appends a run of strictly increasing fresh `items`, minted inside
    /// the open interval `iv`; `source` answers lookups inside the run
    /// from then on.
    ///
    /// The run lands between two adjacent stream items, so at most one
    /// fragment — the one whose label span contains the run — needs
    /// splitting. The adversary mints between order-adjacent items, so
    /// splitting after `iv`'s low endpoint, a stream item whose id finds
    /// its offset, finds the cut with no in-run search; the split around
    /// the run's first item then covers any looser interval, and in the
    /// adversary's case is one descent that hits no fragment. Only then
    /// is the run's closed span checked to hold no stream item, so that
    /// check's two descents land in a gap too.
    ///
    /// # Panics
    ///
    /// Panics if the span holds a stream item ("distinct"), or if the run
    /// table would exceed the fragment treap's `u32` run-id space; callers
    /// on the panic-free driver path check [`Self::runs_exhausted`]
    /// before minting.
    pub(crate) fn insert_run(&mut self, iv: &Interval, items: &[Item], source: RunSource) {
        let Some((first, last)) = items.first().zip(items.last()) else {
            return;
        };
        assert!(
            !self.runs_exhausted(),
            "stream exhausted the u32 run-id space"
        );
        if let Endpoint::Finite(a) = iv.lo() {
            self.split_around(a);
        }
        self.split_around(first);
        assert!(
            self.count_le(last) == self.count_less(first),
            "adversarial stream items must be distinct"
        );
        let span = (
            source.keep(first, 0),
            source.keep(last, source.count().saturating_sub(1)),
        );
        self.push_run(self.len(), span, source);
    }

    /// Registers a run spanning `lo..=hi` that overlaps no fragment as
    /// one whole fragment, and in the id directory when its ids run
    /// consecutively and above every entry's.
    fn push_run(&mut self, start: u64, (lo, hi): (Item, Item), source: RunSource) {
        let (count, run, first_id) = (source.count(), self.runs.len() as u32, source.first_id());
        self.tree.insert_fragment(Fragment {
            lo,
            hi,
            count,
            run,
            base: 0,
        });
        let end = first_id.and_then(|first| u32::try_from(u64::from(first) + count).ok());
        if let Some((first, end)) = first_id.zip(end) {
            if self.by_id.last().is_none_or(|last| last.end <= first) {
                self.by_id.push(IdRange { first, end, run });
            }
        }
        self.runs.push(Run { start, source });
    }

    /// Whether one more run can be registered without overflowing the
    /// `u32` run-id space.
    pub(crate) fn runs_exhausted(&self) -> bool {
        self.runs.len() >= u32::MAX as usize
    }

    /// Splits the fragment whose label span holds `q` below its `hi`, so
    /// that `q` ends up on a fragment boundary: a stream item becomes the
    /// left piece's `hi`, any other item falls between the two pieces.
    /// No-op when no fragment's span holds `q` or `q` already is a
    /// fragment's `hi`.
    fn split_around(&mut self, q: &Item) {
        // `Ok` carries q's in-run index, `Err` the run items below q; the
        // cut is the in-run index of the first item above q.
        let (cut, q_is_item) = match self.tree.locate(q).hit {
            Some(f) if *q < f.hi => match self.position_in(f, q) {
                Ok(idx) => (idx + 1, true),
                Err(below) => (below, false),
            },
            _ => return,
        };
        // A locate hit guarantees the removal and both lookups succeed;
        // on the guarded driver path a malformed index still degrades to
        // a no-op (reinserting what was removed) rather than unwind.
        let Some(f) = self.tree.remove_containing(q) else {
            return;
        };
        let pieces = self
            .runs
            .get(f.run as usize)
            .filter(|_| cut > f.base && cut < f.base + f.count)
            .and_then(|run| {
                let left_hi = if q_is_item {
                    Some(run.source.keep(q, cut - 1))
                } else {
                    run.source.item_at(cut - 1)
                };
                left_hi.zip(run.source.item_at(cut))
            });
        let Some((left_hi, right_lo)) = pieces else {
            self.tree.insert_fragment(f);
            return;
        };
        let left = Fragment {
            lo: f.lo,
            hi: left_hi,
            count: cut - f.base,
            run: f.run,
            base: f.base,
        };
        let right = Fragment {
            lo: right_lo,
            hi: f.hi,
            count: f.base + f.count - cut,
            run: f.run,
            base: cut,
        };
        self.tree.insert_fragment(left);
        self.tree.insert_fragment(right);
    }

    /// Where `q` falls in the run of fragment `f`, whose label span holds
    /// it: `Ok(in-run index)` when `q` is a stream item, else `Err(run
    /// items below q)`, as [`slice::binary_search`] reports it.
    ///
    /// An item of the run answers from its id in O(1); everything else
    /// pays the run source's lookup. A missing run (never on a
    /// well-formed index) degrades to "nothing of the fragment below `q`".
    fn position_in(&self, f: &Fragment<Item>, q: &Item) -> Result<u64, u64> {
        let Some(run) = self.runs.get(f.run as usize) else {
            return Err(f.base);
        };
        let end = f.base + f.count;
        if let Some(idx) = run.index_by_id(q).filter(|&idx| idx >= f.base && idx < end) {
            return Ok(idx);
        }
        run.source.position(q.label())
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

    /// The arrival tag of `q` if its id falls in a directory entry — no
    /// tree descent. The search tries `slot`, the previous answer's
    /// entry, first (a batch's queries mostly ask about one run), and
    /// leaves this answer's entry there.
    fn tag_by_id(&self, q: &Item, slot: &mut usize) -> Option<u64> {
        let id = q.arena_id()?;
        let holds = |slot: usize| self.by_id.get(slot).filter(|r| r.first <= id && id < r.end);
        let range = match holds(*slot) {
            Some(range) => range,
            None => {
                *slot = self.by_id.partition_point(|r| r.end <= id);
                holds(*slot)?
            }
        };
        Some(self.runs.get(range.run as usize)?.start + u64::from(id - range.first))
    }

    /// The arrival tag of the probe whose fragment search ended at `l`,
    /// if it is a stream item.
    fn tag_at(&self, l: &Locate<'_, Item>, q: &Item) -> Option<u64> {
        let f = l.hit?;
        let idx = self.position_in(f, q).ok()?;
        Some(self.runs.get(f.run as usize)?.start + idx)
    }

    /// The arrival tag of stream item `q`, if `q` is in the stream.
    pub(crate) fn tag_of(&self, q: &Item) -> Option<u64> {
        self.tag_by_id(q, &mut 0)
            .or_else(|| self.tag_at(&self.tree.locate(q), q))
    }

    /// The run item at in-run index `j` of fragment `f`'s run.
    fn item_in(&self, f: &Fragment<Item>, j: u64) -> Option<Item> {
        self.runs.get(f.run as usize)?.source.item_at(j)
    }

    /// The smallest stream item strictly above `q`.
    pub(crate) fn successor(&self, q: &Item) -> Option<Item> {
        if let Some(f) = self.tree.locate(q).hit {
            let le = self
                .position_in(f, q)
                .map_or_else(|below| below, |idx| idx + 1);
            if le < f.base + f.count {
                return self.item_in(f, le);
            }
        }
        self.tree.first_above(q).map(|s| s.lo.clone())
    }

    /// The largest stream item strictly below `q`.
    pub(crate) fn predecessor(&self, q: &Item) -> Option<Item> {
        if let Some(f) = self.tree.locate(q).hit {
            let less = self.position_in(f, q).unwrap_or_else(|below| below);
            if less > f.base {
                return self.item_in(f, less - 1);
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

    /// Batched [`Self::count_le`] over label-sorted queries, owned or
    /// borrowed: one [`RunTree::multi_locate`] walk finds every query's
    /// fragment, and the in-fragment offsets come from the items' ids.
    /// `out` is cleared first; `out[i]` answers `qs[i]`.
    pub(crate) fn multi_count_le<Q: Borrow<Item>>(&self, qs: &[Q], out: &mut Vec<usize>) {
        let mut found = Vec::with_capacity(qs.len());
        self.tree.multi_locate(qs, &mut found);
        out.clear();
        out.extend(
            qs.iter()
                .zip(&found)
                .map(|(q, l)| self.le_at(l, q.borrow()) as usize),
        );
    }

    /// Batched [`Self::tag_of`] over label-sorted queries, owned or
    /// borrowed. Items in the id directory resolve without touching the
    /// tree; only when some query misses it does one
    /// [`RunTree::multi_locate`] walk run, and it resolves every miss.
    /// `out` is cleared first; `out[i]` answers `qs[i]`.
    pub(crate) fn multi_tag_of<Q: Borrow<Item>>(&self, qs: &[Q], out: &mut Vec<Option<u64>>) {
        out.clear();
        let mut slot = 0;
        out.extend(qs.iter().map(|q| self.tag_by_id(q.borrow(), &mut slot)));
        if out.iter().all(Option::is_some) {
            return;
        }
        let mut found = Vec::with_capacity(qs.len());
        self.tree.multi_locate(qs, &mut found);
        for ((slot, q), l) in out.iter_mut().zip(qs).zip(&found) {
            if slot.is_none() {
                *slot = self.tag_at(l, q.borrow());
            }
        }
    }

    /// Visits every item the index keeps beyond a stored run's own
    /// items: each fragment's bounds and each generated run's finite
    /// endpoints — what the index pins on an implicit stream.
    pub(crate) fn for_each_bound(&self, f: &mut dyn FnMut(&Item)) {
        self.tree.for_each(&mut |frag| {
            f(&frag.lo);
            f(&frag.hi);
        });
        for run in &self.runs {
            if let RunSource::Generated(g) = &run.source {
                g.lo().into_iter().chain(g.hi()).for_each(&mut *f);
            }
        }
    }

    /// Visits every stored run with the bytes its chunk holds and its
    /// item count; the run's bounds add 4 bytes per item and one more.
    pub(crate) fn for_each_stored(&self, f: &mut dyn FnMut(usize, u64)) {
        for run in &self.runs {
            if let RunSource::Stored(s) = &run.source {
                f(s.pinned_bytes(), s.count());
            }
        }
    }

    /// Visits every stream item in label order with its arrival tag.
    /// Generated runs mint each item on the fly, O(N log N) label mints
    /// in all — meant for snapshots and differential tests at moderate N,
    /// not for the billion-item hot path.
    pub(crate) fn for_each_tagged(&self, f: &mut dyn FnMut(&Item, u64)) {
        self.tree.for_each(&mut |frag| {
            let Some(run) = self.runs.get(frag.run as usize) else {
                return;
            };
            for j in frag.base..frag.base + frag.count {
                if let Some(it) = run.source.item_at(j) {
                    f(&it, run.start + j);
                }
            }
        });
    }
}

/// The test oracle of the stream's order index: every item with its
/// arrival tag in one sorted `Vec`, each query one `partition_point`.
/// The run index and `StreamState` are checked against it query by
/// query; a sorted vector is correct by inspection.
#[cfg(test)]
pub(crate) mod model {
    use cqs_universe::{Item, LabelArena};

    /// The arena-id shapes a stream's runs come in. The index must give
    /// the same answers for each; only the path to them differs.
    #[derive(Clone, Copy, Debug)]
    pub(crate) enum Ids {
        /// Sealed runs: item `j` of a run carries id `first + j`.
        Sealed,
        /// Items minted one at a time with unrelated mints between.
        Scattered,
        /// Runs sealed in reverse order, so each run after the first has
        /// lower ids than one already indexed: out of the id directory.
        Reversed,
        /// Sealed runs, queried through fresh re-mints matching no id.
        Reminted,
    }

    pub(crate) const ID_SHAPES: [Ids; 4] =
        [Ids::Sealed, Ids::Scattered, Ids::Reversed, Ids::Reminted];

    /// The sealed runs `runs`, in indexing order, re-minted in shape
    /// `ids`: the runs to index, and the same labels as queries see them.
    pub(crate) fn reshape(runs: &[Vec<Item>], ids: Ids) -> (Vec<Vec<Item>>, Vec<Vec<Item>>) {
        let each = |runs: &[Vec<Item>], f: &dyn Fn(&Item) -> Item| -> Vec<Vec<Item>> {
            runs.iter().map(|run| run.iter().map(f).collect()).collect()
        };
        let remint = |it: &Item| Item::from_label(it.label().to_vec());
        let mut indexed = match ids {
            Ids::Sealed | Ids::Reminted | Ids::Reversed => runs.to_vec(),
            Ids::Scattered => each(runs, &|it| {
                let _unrelated = remint(it);
                remint(it)
            }),
        };
        if let Ids::Reversed = ids {
            let mut arena = LabelArena::new();
            for run in indexed.iter_mut().rev() {
                run.iter().for_each(|it| arena.push_label(it.label()));
                *run = arena.seal();
            }
        }
        let queried = match ids {
            Ids::Reminted => each(&indexed, &remint),
            _ => indexed.clone(),
        };
        (indexed, queried)
    }

    /// Distinct items with their arrival tags, in label order.
    #[derive(Default)]
    pub(crate) struct SortedModel {
        items: Vec<(Item, u64)>,
    }

    impl SortedModel {
        pub(crate) fn new() -> Self {
            Self::default()
        }

        /// Inserts `item` with arrival tag `tag`; `false` (and no
        /// change) when the item is already present.
        pub(crate) fn insert_tagged(&mut self, item: Item, tag: u64) -> bool {
            let i = self.count_less(&item);
            if self.items.get(i).is_some_and(|(x, _)| *x == item) {
                return false;
            }
            self.items.insert(i, (item, tag));
            true
        }

        pub(crate) fn len(&self) -> usize {
            self.items.len()
        }

        pub(crate) fn count_less(&self, q: &Item) -> usize {
            self.items.partition_point(|(x, _)| x < q)
        }

        pub(crate) fn count_le(&self, q: &Item) -> usize {
            self.items.partition_point(|(x, _)| x <= q)
        }

        pub(crate) fn tag_of(&self, q: &Item) -> Option<u64> {
            let (x, tag) = self.items.get(self.count_less(q))?;
            (x == q).then_some(*tag)
        }

        pub(crate) fn successor(&self, q: &Item) -> Option<&Item> {
            self.items.get(self.count_le(q)).map(|(x, _)| x)
        }

        pub(crate) fn predecessor(&self, q: &Item) -> Option<&Item> {
            let i = self.count_less(q).checked_sub(1)?;
            self.items.get(i).map(|(x, _)| x)
        }

        pub(crate) fn min(&self) -> Option<&Item> {
            self.items.first().map(|(x, _)| x)
        }

        pub(crate) fn max(&self) -> Option<&Item> {
            self.items.last().map(|(x, _)| x)
        }

        /// Every `(item, tag)` pair, in label order.
        pub(crate) fn tagged(&self) -> &[(Item, u64)] {
            &self.items
        }
    }
}

#[cfg(test)]
mod tests {
    use super::model::{reshape, Ids, SortedModel, ID_SHAPES};
    use super::*;
    use crate::rng::SplitMix64;
    use cqs_universe::generate_increasing;

    /// The run source a test index stores: the run's items, or its
    /// generator.
    #[derive(Clone, Copy, Debug)]
    enum Kind {
        Stored,
        Generated,
    }

    const KINDS: [Kind; 2] = [Kind::Stored, Kind::Generated];

    /// The run source of `kind` for `items`, minted inside `iv`.
    fn source(kind: Kind, iv: &Interval, items: &[Item]) -> RunSource {
        match kind {
            Kind::Stored => RunSource::Stored(StoredRun::new(items)),
            Kind::Generated => RunSource::Generated(RunGenerator::of_run(iv, items)),
        }
    }

    /// Appends a fresh run of `n` items minted inside `iv` to both the
    /// reference model (tags continuing from its length) and `imp`.
    fn feed(
        mat: &mut SortedModel,
        imp: &mut RunOrder,
        kind: Kind,
        iv: &Interval,
        n: usize,
    ) -> Vec<Item> {
        let items = generate_increasing(iv, n);
        for it in &items {
            mat.insert_tagged(it.clone(), mat.len() as u64);
        }
        imp.insert_run(iv, &items, source(kind, iv, &items));
        items
    }

    /// A root run refined in the adversary's pattern (mint between
    /// order-adjacent items), as `(interval, run)` in arrival order.
    fn refined_runs(root_n: usize, leaf_n: usize) -> Vec<(Interval, Vec<Item>)> {
        let root = generate_increasing(&Interval::whole(), root_n);
        // Refine between two order-adjacent items in the middle.
        let m = root_n / 2;
        let iv1 = Interval::open(root[m].clone(), root[m + 1].clone());
        let left = generate_increasing(&iv1, leaf_n);
        // And again inside the new run (order-adjacent pair of it).
        let iv2 = Interval::open(left[0].clone(), left[1].clone());
        let inner = generate_increasing(&iv2, leaf_n);
        // Also refine at a fragment boundary: just above the root max.
        let iv3 = Interval::new(Endpoint::Finite(root[root_n - 1].clone()), Endpoint::PosInf);
        let top = generate_increasing(&iv3, leaf_n);
        vec![
            (Interval::whole(), root),
            (iv1, left),
            (iv2, inner),
            (iv3, top),
        ]
    }

    /// Builds the same refined stream both ways: the reference model,
    /// over the items as queries see them, and a run-fragment index of
    /// `kind` runs whose ids have shape `ids`.
    fn build_both(kind: Kind, ids: Ids, root_n: usize, leaf_n: usize) -> (SortedModel, RunOrder) {
        let (ivs, runs): (Vec<Interval>, Vec<Vec<Item>>) =
            refined_runs(root_n, leaf_n).into_iter().unzip();
        let (indexed, queried) = reshape(&runs, ids);
        let (mut mat, mut imp) = (SortedModel::new(), RunOrder::new());
        for ((iv, run), seen) in ivs.iter().zip(&indexed).zip(queried) {
            for it in seen {
                mat.insert_tagged(it, mat.len() as u64);
            }
            imp.insert_run(iv, run, source(kind, iv, run));
        }
        (mat, imp)
    }

    #[test]
    fn matches_materialized_treap_on_refined_stream() {
        // Sealed runs answer from their ids.
        for kind in KINDS {
            let (mat, imp) = build_both(kind, Ids::Sealed, 32, 8);
            assert_matches_materialized(&mat, &imp);
        }
    }

    #[test]
    fn cache_collisions_keep_answers_correct() {
        // Scattered, reversed and re-minted items miss the id lookup, as
        // colliding or evicted ids once missed a tag cache: their answers
        // come from the binary search over stored items or the generator
        // descent.
        for kind in KINDS {
            for ids in [Ids::Scattered, Ids::Reversed, Ids::Reminted] {
                let (mat, imp) = build_both(kind, ids, 32, 8);
                assert_matches_materialized(&mat, &imp);
                // A second pass finds the index as the first left it.
                assert_matches_materialized(&mat, &imp);
            }
        }
    }

    /// Every point query of `imp` — on each stream item and on a probe
    /// between each adjacent pair — answers as the model `mat` does.
    fn assert_matches_materialized(mat: &SortedModel, imp: &RunOrder) {
        assert_eq!(imp.len(), mat.len() as u64);
        let all = mat.tagged();
        for (it, t) in all {
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
        for kind in KINDS {
            let (mat, imp) = build_both(kind, Ids::Sealed, 16, 4);
            let a: Vec<(Vec<u8>, u64)> = mat
                .tagged()
                .iter()
                .map(|(it, t)| (it.label().to_vec(), *t))
                .collect();
            let mut b: Vec<(Vec<u8>, u64)> = Vec::new();
            imp.for_each_tagged(&mut |it, t| b.push((it.label().to_vec(), t)));
            assert_eq!(a, b, "{kind:?}");
        }
    }

    #[test]
    fn fresh_remints_resolve_without_memo() {
        for kind in KINDS {
            let (mat, imp) = build_both(kind, Ids::Sealed, 16, 4);
            for (it, t) in mat.tagged() {
                // A brand-new mint of the same label: its arena id is in
                // no run, so the tree and the run source must produce the
                // same answers.
                let fresh = Item::from_label(it.label().to_vec());
                assert_eq!(imp.tag_of(&fresh), Some(*t));
                assert_eq!(imp.count_less(&fresh), mat.count_less(it) as u64);
            }
        }
    }

    #[test]
    fn multi_queries_match_scalar_queries() {
        for kind in KINDS {
            let (mat, imp) = build_both(kind, Ids::Sealed, 16, 4);
            let qs: Vec<Item> = mat.tagged().iter().map(|(it, _)| it.clone()).collect();
            // Probes between adjacent items, and fresh re-mints whose ids
            // are in no run, ride in the same sorted batch.
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
            // Batches the id directory answers whole skip the walk and
            // still answer in order.
            imp.multi_tag_of(&qs, &mut tags);
            for (i, q) in qs.iter().enumerate() {
                assert_eq!(tags[i], mat.tag_of(q));
            }
        }
    }

    #[test]
    fn restore_from_sorted_pairs_matches_reference() {
        for ids in ID_SHAPES {
            // The pairs a snapshot holds: the indexed items, in label
            // order, with their tags.
            let (mat, built) = build_both(Kind::Stored, ids, 32, 8);
            let mut pairs = Vec::new();
            built.for_each_tagged(&mut |it, t| pairs.push((it.clone(), t)));
            let imp = RunOrder::from_sorted_tagged(pairs).unwrap();
            // Root run, two refinements splitting it and the first leaf,
            // and the run above the maximum: six tag stretches.
            assert_eq!(imp.fragment_count(), 6);
            assert_matches_materialized(&mat, &imp);
        }
    }

    #[test]
    fn generated_runs_keep_bounds_that_pin_only_their_labels() {
        // Runs sealed in groups of eight, indexed as generated runs and
        // then dropped: whatever the index kept must hold its own label
        // and nothing of the seal group around it.
        let (mut mat, mut imp) = (SortedModel::new(), RunOrder::new());
        let mut index = |iv: &Interval, n| {
            let run = cqs_universe::generate_increasing_grouped(iv, n, 8);
            for it in &run {
                mat.insert_tagged(it.clone(), mat.len() as u64);
            }
            imp.insert_run(iv, &run, source(Kind::Generated, iv, &run));
            run
        };
        let root = index(&Interval::whole(), 64);
        // Interior pushes: runs between order-adjacent root items split
        // the root's fragment at a stream item…
        for i in [5, 17, 40] {
            index(&Interval::open(root[i].clone(), root[i + 1].clone()), 16);
        }
        // …and a run whose low endpoint is no stream item splits it
        // between two of them.
        let probe = cqs_universe::between_items(&root[50], &root[51]);
        index(&Interval::open(probe, root[51].clone()), 16);
        drop(root);
        assert_eq!(imp.fragment_count(), 9);
        let mut kept = 0;
        imp.for_each_bound(&mut |it| {
            assert_eq!(it.pinned_bytes(), it.label().len(), "{it:?} pins its group");
            kept += 1;
        });
        // Nine fragments' bounds and the inner runs' eight endpoints.
        assert_eq!(kept, 2 * 9 + 8);
        assert_matches_materialized(&mat, &imp);
    }

    #[test]
    fn empty_run_is_a_no_op() {
        for source in [
            RunSource::Stored(StoredRun::new(&[])),
            RunSource::Generated(RunGenerator::new(&Interval::whole(), 0)),
        ] {
            let mut imp = RunOrder::new();
            imp.insert_run(&Interval::whole(), &[], source);
            assert_eq!(imp.len(), 0);
            assert_eq!(imp.fragment_count(), 0);
            assert!(imp.min().is_none() && imp.max().is_none());
        }
    }

    /// Random labels with lengths straddling the 8-byte prefix key.
    fn random_labels(rng: &mut SplitMix64, n: usize) -> Vec<Item> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let len = 1 + rng.index(20);
            let label: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            out.push(Item::from_label(label));
        }
        out
    }

    /// Labels sharing a 16-byte prefix, so every comparison falls through
    /// the equal-key path into the tail tiebreak.
    fn prefix_heavy_labels(rng: &mut SplitMix64, n: usize) -> Vec<Item> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let mut label = vec![7u8; 16];
            let tail = rng.index(6);
            for _ in 0..tail {
                label.push(rng.next_u64() as u8);
            }
            out.push(Item::from_label(label));
        }
        out
    }

    /// Indexes the distinct `labels` in arrival order as one-item stored
    /// runs, as per-item pushes do, then mints a four-item run of `kind`
    /// inside every third gap between label-adjacent items. Runs minted
    /// between prefix-heavy labels share their prefix.
    fn index_labels(kind: Kind, labels: &[Item]) -> (SortedModel, RunOrder) {
        let (mut mat, mut imp) = (SortedModel::new(), RunOrder::new());
        for it in labels {
            if mat.insert_tagged(it.clone(), mat.len() as u64) {
                let run = std::slice::from_ref(it);
                imp.insert_run(
                    &Interval::whole(),
                    run,
                    RunSource::Stored(StoredRun::new(run)),
                );
            }
        }
        let sorted: Vec<Item> = mat.tagged().iter().map(|(it, _)| it.clone()).collect();
        // Minting between two labels needs both free of a trailing zero.
        let mintable = |it: &Item| it.label().last() != Some(&0);
        for w in sorted.windows(2).step_by(3) {
            if mintable(&w[0]) && mintable(&w[1]) {
                let iv = Interval::open(w[0].clone(), w[1].clone());
                feed(&mut mat, &mut imp, kind, &iv, 4);
            }
        }
        (mat, imp)
    }

    /// Asserts both batched walks of `imp` against its scalar queries and
    /// against the model, on `queries` plus a fresh re-mint of every
    /// indexed item (no id match, answered by the run source), sorted.
    fn assert_batches_match(mat: &SortedModel, imp: &RunOrder, queries: &[Item]) {
        let mut qs: Vec<Item> = queries.to_vec();
        qs.extend(
            mat.tagged()
                .iter()
                .map(|(it, _)| Item::from_label(it.label().to_vec())),
        );
        qs.sort();
        let (mut le, mut tags) = (Vec::new(), Vec::new());
        imp.multi_tag_of(&qs, &mut tags);
        imp.multi_count_le(&qs, &mut le);
        assert_eq!((le.len(), tags.len()), (qs.len(), qs.len()));
        for ((q, &l), &tag) in qs.iter().zip(&le).zip(&tags) {
            assert_eq!(l as u64, imp.count_le(q), "count_le diverged on {q:?}");
            assert_eq!(l, mat.count_le(q), "model count_le diverged on {q:?}");
            assert_eq!(tag, imp.tag_of(q), "tag_of diverged on {q:?}");
            assert_eq!(tag, mat.tag_of(q), "model tag_of diverged on {q:?}");
        }
        // Borrowed queries take the same walks to the same answers.
        let lent: Vec<&Item> = qs.iter().collect();
        let (mut lent_le, mut lent_tags) = (Vec::new(), Vec::new());
        imp.multi_tag_of(&lent, &mut lent_tags);
        imp.multi_count_le(&lent, &mut lent_le);
        assert_eq!((lent_le, lent_tags), (le, tags));
    }

    #[test]
    fn batched_walks_match_singles_on_adversary_labels() {
        for kind in KINDS {
            let (mut mat, mut imp) = (SortedModel::new(), RunOrder::new());
            let items = feed(&mut mat, &mut imp, kind, &Interval::whole(), 300);
            // Queries: stored items, plus fresh in-between mints (absent
            // keys).
            let mut queries = items.clone();
            queries.extend(generate_increasing(&Interval::whole(), 97));
            assert_batches_match(&mat, &imp, &queries);
        }
    }

    #[test]
    fn batched_walks_match_singles_on_random_labels() {
        let mut rng = SplitMix64::new(0x5eed);
        for round in 0..8 {
            let stored = random_labels(&mut rng, 60 + round * 40);
            let queries = random_labels(&mut rng, 80);
            for kind in KINDS {
                let (mat, imp) = index_labels(kind, &stored);
                assert_batches_match(&mat, &imp, &queries);
            }
        }
    }

    #[test]
    fn batched_walks_match_singles_on_prefix_heavy_labels() {
        let mut rng = SplitMix64::new(0x9e37);
        for _ in 0..8 {
            let stored = prefix_heavy_labels(&mut rng, 120);
            // Query with a mix of stored and fresh prefix-heavy labels so
            // both the equal and absent key-collision paths are exercised.
            let mut queries = prefix_heavy_labels(&mut rng, 60);
            queries.extend(stored.iter().take(30).cloned());
            for kind in KINDS {
                let (mat, imp) = index_labels(kind, &stored);
                assert_batches_match(&mat, &imp, &queries);
            }
        }
    }

    #[test]
    fn batched_walks_handle_empty_tree_and_empty_queries() {
        let qs = generate_increasing(&Interval::whole(), 5);
        let (mut le, mut tags) = (Vec::new(), Vec::new());
        let empty_index = RunOrder::new();
        empty_index.multi_count_le(&qs, &mut le);
        assert_eq!(le, vec![0; 5]);
        empty_index.multi_tag_of(&qs, &mut tags);
        assert_eq!(tags, vec![None; 5]);

        for kind in KINDS {
            let (mut mat, mut imp) = (SortedModel::new(), RunOrder::new());
            feed(&mut mat, &mut imp, kind, &Interval::whole(), 5);
            imp.multi_count_le::<Item>(&[], &mut le);
            assert!(le.is_empty());
            imp.multi_tag_of::<Item>(&[], &mut tags);
            assert!(tags.is_empty());
        }
    }
}
