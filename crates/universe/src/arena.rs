//! Label arena: batch interning of minted labels into shared chunks.
//!
//! The adversary mints labels in *runs* — every leaf of the recursion
//! tree appends a strictly increasing batch of fresh items to each
//! stream. Before this module each label owned its own `Arc<[u8]>`
//! allocation, so a run of `m` labels cost `m` allocator round-trips
//! and scattered the label bytes across the heap; comparisons then paid
//! a pointer chase per operand into unrelated cache lines.
//!
//! [`LabelArena`] instead accumulates a run's labels into one
//! contiguous buffer and *seals* the run into a single shared chunk
//! (`Arc<[u8]>`): every [`Item`] of the run is a `(chunk, offset,
//! length)` slice of that chunk, so a leaf's labels — exactly the items
//! the summary and treap will compare against each other most often —
//! sit adjacent in memory. Sealing is the only copy; the arena keeps no
//! unsafe self-references (the workspace forbids `unsafe`), it simply
//! never hands out an item before its chunk is frozen.
//!
//! Sealing also assigns each item a fresh **arena id** (a `u32` from a
//! process-wide mint counter). A sealed run reserves its ids with one
//! atomic add, so item `j` of a run carries id `first + j`: a run's ids
//! are consecutive even while other threads seal theirs, and an id
//! alone tells an index which run an item came from and at which
//! offset ([`run_first_id`]). Ids are globally unique across all arenas
//! and [`Item::from_label`] mints, and clones share their original's id
//! — so id equality proves label equality and gives `Ord`/`Eq` a
//! one-word fast path that needs no pointer chase. Ids are *never*
//! observable through the comparison API: they only ever short-circuit
//! `Ord`/`Eq` toward the verdict the label bytes would produce anyway,
//! so mint order (which may vary across thread interleavings of the
//! parallel sweep) cannot influence any comparison outcome, keeping
//! runs byte-for-byte reproducible.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::item::Item;

/// Sentinel id carried by items minted after the 32-bit id space is
/// exhausted. Two `NO_ID` items are *not* assumed equal — they fall
/// through to the byte-wise comparison — so exhaustion only costs the
/// fast path, never correctness.
pub(crate) const NO_ID: u32 = u32::MAX;

/// Process-wide mint counter. 64-bit so `fetch_add` can never wrap back
/// into the valid 32-bit id range; everything past `NO_ID` saturates to
/// the sentinel.
static NEXT_ID: AtomicU64 = AtomicU64::new(0);

/// Reserves `n` consecutive arena ids with one atomic add; the returned
/// map gives item `j` of the block its id, or [`NO_ID`] past exhaustion.
///
/// `Relaxed` suffices: ids carry no ordering information — uniqueness
/// (guaranteed by the atomic read-modify-write) is the only property
/// the comparison fast path relies on.
pub(crate) fn reserve_ids(n: usize) -> impl Fn(usize) -> u32 {
    let base = NEXT_ID.fetch_add(n as u64, Ordering::Relaxed);
    move |j| match base.checked_add(j as u64) {
        Some(id) if id < u64::from(NO_ID) => id as u32,
        _ => NO_ID,
    }
}

/// The arena id of `run[0]` when every `run[j]` carries id `run[0] + j`,
/// as the items of a sealed run do; `None` for an empty run and for any
/// other id shape, including one with a `NO_ID` item. Since id
/// equality proves label equality, an item whose id falls in the
/// returned range *is* the run's item at the id's offset.
pub fn run_first_id(run: &[Item]) -> Option<u32> {
    let first = run.first()?.arena_id()?;
    run.iter()
        .zip(u64::from(first)..)
        .all(|(it, id)| it.arena_id().map(u64::from) == Some(id))
        .then_some(first)
}

/// Whether the process-wide 32-bit id space has run out: every item
/// minted from now on carries the [`NO_ID`] sentinel. Comparisons stay
/// correct (they fall through to the byte-wise path), but callers that
/// promise typed errors instead of silent degradation — the adversary's
/// panic-free driver — check this before each minting burst and surface a
/// `CapacityExhausted` error rather than silently losing the fast path
/// and the id-keyed run lookups.
pub fn ids_exhausted() -> bool {
    NEXT_ID.load(Ordering::Relaxed) >= u64::from(NO_ID)
}

/// A batch interner for label runs.
///
/// Push the run's labels in stream order, then [`seal`](Self::seal) the
/// run into items backed by one shared chunk. The arena is reusable:
/// sealing drains it (keeping its buffers' capacity), so one arena per
/// adversary serves every leaf without fresh allocations once the
/// high-water mark is reached.
///
/// ## Ownership and lifetime contract
///
/// The arena owns the pending bytes until `seal`; after `seal` the
/// chunk is owned jointly by the returned items (plain `Arc`
/// reference counting — the chunk outlives the arena and is freed when
/// the last item drops). A chunk is immutable from the moment any item
/// can see it, which is what lets items alias it without `unsafe`.
#[derive(Default)]
pub struct LabelArena {
    buf: Vec<u8>,
    ends: Vec<usize>,
}

impl LabelArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one label to the pending run.
    pub fn push_label(&mut self, label: &[u8]) {
        self.buf.extend_from_slice(label);
        self.ends.push(self.buf.len());
    }

    /// Number of labels in the pending (unsealed) run.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the pending run is empty.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Seals the pending run into one shared chunk and returns its
    /// items, in push order. Resets the arena for the next run.
    pub fn seal(&mut self) -> Vec<Item> {
        let mut out = Vec::with_capacity(self.ends.len());
        self.seal_into(&mut out);
        out
    }

    /// [`seal`](Self::seal) into a caller-owned buffer (appends). The
    /// run's ids are reserved in one block: item `j` gets `first + j`.
    pub fn seal_into(&mut self, out: &mut Vec<Item>) {
        self.seal_grouped_into(usize::MAX, out);
    }

    /// [`seal_into`](Self::seal_into), but splitting the run across
    /// chunks of at most `group` labels each. Label bytes and push order
    /// are identical to single-chunk sealing — only the chunk boundaries
    /// differ, and those are invisible to every comparison. The ids are
    /// the same one block.
    ///
    /// This is the sealing mode of the implicit stream representation:
    /// there, a run's items are *transient* (fed to the summary, then
    /// dropped) and a single summary-retained item would otherwise pin
    /// the whole run's chunk alive. With grouped sealing a retained item
    /// pins at most `group` labels, keeping resident label bytes
    /// proportional to the summary's stored size rather than to N.
    ///
    /// # Panics
    ///
    /// Panics if `group == 0`.
    pub fn seal_grouped_into(&mut self, group: usize, out: &mut Vec<Item>) {
        assert!(group > 0, "seal group must be non-empty");
        out.reserve(self.ends.len());
        let id_at = reserve_ids(self.ends.len());
        let mut start = 0usize;
        let mut j = 0usize;
        for ends in self.ends.chunks(group) {
            let Some(&chunk_end) = ends.last() else {
                continue;
            };
            let chunk: Arc<[u8]> = Arc::from(&self.buf[start..chunk_end]);
            let chunk_start = start;
            for &end in ends {
                out.push(Item::from_chunk(
                    Arc::clone(&chunk),
                    start - chunk_start,
                    end - chunk_start,
                    id_at(j),
                ));
                start = end;
                j += 1;
            }
        }
        self.buf.clear();
        self.ends.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sealed_items_share_one_chunk_and_keep_order() {
        let mut arena = LabelArena::new();
        arena.push_label(&[1]);
        arena.push_label(&[2, 2]);
        arena.push_label(&[3, 3, 3]);
        assert_eq!(arena.len(), 3);
        let items = arena.seal();
        assert!(arena.is_empty());
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].label(), &[1]);
        assert_eq!(items[1].label(), &[2, 2]);
        assert_eq!(items[2].label(), &[3, 3, 3]);
        assert!(items[0] < items[1] && items[1] < items[2]);
    }

    #[test]
    fn arena_is_reusable_after_seal() {
        let mut arena = LabelArena::new();
        arena.push_label(&[9]);
        let first = arena.seal();
        arena.push_label(&[7]);
        let second = arena.seal();
        assert_eq!(first[0].label(), &[9]);
        assert_eq!(second[0].label(), &[7]);
        assert!(second[0] < first[0]);
    }

    #[test]
    fn minted_ids_are_distinct_but_clones_share() {
        let mut arena = LabelArena::new();
        arena.push_label(&[5]);
        arena.push_label(&[6]);
        let items = arena.seal();
        // Distinct mints never compare equal unless the bytes agree.
        assert_ne!(items[0], items[1]);
        let c = items[0].clone();
        assert_eq!(items[0], c);
        assert_eq!(items[0].cmp(&c), std::cmp::Ordering::Equal);
    }

    #[test]
    fn concurrent_seals_keep_each_run_consecutive() {
        // Four threads seal runs at once, plain and grouped: every run's
        // ids stay one block, and no id repeats anywhere.
        let seal_runs = |t: u8| {
            let mut arena = LabelArena::new();
            let mut ids = Vec::new();
            for r in 0..200u8 {
                (1..=40u8).for_each(|b| arena.push_label(&[t + 1, r, b]));
                let mut run = Vec::new();
                arena.seal_grouped_into([usize::MAX, 7][usize::from(r % 2)], &mut run);
                let first = run_first_id(&run).expect("one id block per run");
                ids.extend(first..first + 40);
            }
            ids
        };
        let mut ids: Vec<u32> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4).map(|t| s.spawn(move || seal_runs(t))).collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect()
        });
        let minted = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), minted, "an id was minted twice");
    }

    #[test]
    fn empty_run_seals_to_no_items() {
        let mut arena = LabelArena::new();
        assert!(arena.seal().is_empty());
    }

    #[test]
    fn grouped_sealing_preserves_labels_and_order() {
        let labels: Vec<Vec<u8>> = (1u8..=11).map(|b| vec![b, b]).collect();
        for group in [1usize, 2, 3, 4, 11, 64] {
            let mut arena = LabelArena::new();
            for l in &labels {
                arena.push_label(l);
            }
            let mut grouped = Vec::new();
            arena.seal_grouped_into(group, &mut grouped);
            assert!(arena.is_empty());
            assert_eq!(grouped.len(), labels.len());
            for (it, l) in grouped.iter().zip(&labels) {
                assert_eq!(it.label(), l.as_slice());
            }
            assert!(grouped.windows(2).all(|w| w[0] < w[1]));
            assert!(run_first_id(&grouped).is_some(), "one id block per run");
        }
    }

    #[test]
    fn id_space_is_not_exhausted_under_test_loads() {
        // The typed-exhaustion probe itself: it must read false for any
        // realistic test-scale mint volume.
        let _ = LabelArena::new();
        assert!(!crate::ids_exhausted());
    }

    #[test]
    fn interned_equals_individually_minted() {
        let mut arena = LabelArena::new();
        arena.push_label(&[4, 4]);
        let interned = arena.seal().pop().unwrap();
        let single = Item::from_label(vec![4, 4]);
        // Different chunks, different ids — equality must come from the
        // label bytes alone.
        assert_eq!(interned, single);
        assert_eq!(interned.cmp(&single), std::cmp::Ordering::Equal);
    }
}
