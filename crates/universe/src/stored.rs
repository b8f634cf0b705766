//! A minted run kept as its label bytes — the materialized stream's run
//! store.
//!
//! A run's labels fully describe it: item `j` of a sealed run views
//! label `j` of the run's chunk and carries arena id `first + j`. A
//! [`StoredRun`] therefore keeps the labels in one `Arc<[u8]>` chunk,
//! `count + 1` `u32` label bounds into it, and the first arena id — a
//! label's bytes plus 4 B per item, against the 40-byte [`Item`] handle
//! per item a `Box<[Item]>` holds, each handle repeating the chunk
//! pointer, an offset, a length and an id the run already implies.
//!
//! It answers the lookups a [`RunGenerator`](crate::RunGenerator)
//! answers — [`count`](StoredRun::count),
//! [`item_at`](StoredRun::item_at) and
//! [`position`](StoredRun::position) — by reading the chunk instead of
//! replaying the mint, so an order index can hold either run source.

use std::cmp::Ordering;
use std::sync::Arc;

use crate::arena::run_first_id;
use crate::item::Item;

/// The labels of one run in label order, kept in one shared chunk.
#[derive(Clone)]
pub struct StoredRun {
    chunk: Arc<[u8]>,
    /// `count + 1` offsets into `chunk`: label `j` is
    /// `chunk[bounds[j]..bounds[j + 1]]`.
    bounds: Box<[u32]>,
    /// Arena id of item 0, when item `j` carried id `first + j`.
    first_id: Option<u32>,
}

impl StoredRun {
    /// The run of `items`, in label order. Items that are one sealed
    /// block — views of one chunk, back to back, covering all of it, with
    /// one block of arena ids, as
    /// [`LabelArena::seal_into`](crate::LabelArena::seal_into) seals a
    /// run — share that chunk, and [`item_at`](Self::item_at) gives back
    /// exactly the original items. Any other run copies its labels into
    /// one fresh chunk of exactly their bytes, so the run never pins a
    /// chunk larger than its own labels.
    ///
    /// # Panics
    ///
    /// Panics if the run's label bytes exceed the `u32` offset space.
    pub fn new(items: &[Item]) -> Self {
        let mut bounds = Vec::with_capacity(items.len() + 1);
        let mut end = 0usize;
        bounds.push(0);
        for it in items {
            end += it.depth();
            assert!(
                u32::try_from(end).is_ok(),
                "stored run exceeds u32 offset space"
            );
            bounds.push(end as u32);
        }
        let first_id = run_first_id(items);
        let chunk = match sealed_block(items).filter(|_| first_id.is_some()) {
            Some(chunk) => Arc::clone(chunk),
            None => {
                let mut labels = Vec::with_capacity(end);
                items
                    .iter()
                    .for_each(|it| labels.extend_from_slice(it.label()));
                labels.into()
            }
        };
        StoredRun {
            chunk,
            bounds: bounds.into(),
            first_id,
        }
    }

    /// Number of items in the run.
    pub fn count(&self) -> u64 {
        self.bounds.len().saturating_sub(1) as u64
    }

    /// Arena id of the run's item 0, when the items it was built from
    /// carried consecutive ids ([`run_first_id`]).
    pub fn first_id(&self) -> Option<u32> {
        self.first_id
    }

    /// The bytes the run keeps alive besides its bounds: the length of
    /// its chunk. Memory-accounting introspection, like
    /// [`Item::pinned_bytes`].
    pub fn pinned_bytes(&self) -> usize {
        self.chunk.len()
    }

    /// The byte range of label `j` in the chunk, if `j < count`.
    fn span(&self, j: u64) -> Option<(usize, usize)> {
        let j = usize::try_from(j).ok()?;
        let start = *self.bounds.get(j)?;
        let end = *self.bounds.get(j.checked_add(1)?)?;
        Some((start as usize, end as usize))
    }

    /// The label of item `j`; empty past the end.
    fn label(&self, j: u64) -> &[u8] {
        self.span(j)
            .and_then(|(start, end)| self.chunk.get(start..end))
            .unwrap_or_default()
    }

    /// The run's `j`-th item (0-based, in label order), a view of the
    /// run's chunk. It carries the original's arena id `first + j` when
    /// the run's ids were consecutive, else a fresh one, as
    /// [`RunGenerator::item_at`](crate::RunGenerator::item_at) mints.
    ///
    /// # Panics
    ///
    /// Panics if `j >= count`.
    pub fn item_at(&self, j: u64) -> Item {
        let Some((start, end)) = self.span(j) else {
            panic!("run index {j} out of range {}", self.count());
        };
        let id = match self.first_id {
            // Every id of the run is valid, so `first + j` cannot overflow.
            Some(first) => first + j as u32,
            None => crate::arena::reserve_ids(1)(0),
        };
        Item::from_chunk(Arc::clone(&self.chunk), start, end, id)
    }

    /// Where `q` falls in the run, in the shape of
    /// [`slice::binary_search`]: `Ok(index)` when a run label equals
    /// `q`, else `Err(number of run labels below q)`. A binary search
    /// over the bounds comparing label bytes; the probe may be any byte
    /// string.
    pub fn position(&self, q: &[u8]) -> Result<u64, u64> {
        let (mut lo, mut hi) = (0u64, self.count());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.label(mid).cmp(q) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }
}

/// The chunk `items` view when they are one sealed block: the same
/// chunk, back to back from its start to its end.
fn sealed_block(items: &[Item]) -> Option<&Arc<[u8]>> {
    let (chunk, _, _) = items.first()?.chunk_span();
    let mut at = 0;
    for it in items {
        let (c, start, end) = it.chunk_span();
        if !Arc::ptr_eq(c, chunk) || start != at {
            return None;
        }
        at = end;
    }
    (at == chunk.len()).then_some(chunk)
}

impl std::fmt::Debug for StoredRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "StoredRun(x{}, {} B)", self.count(), self.pinned_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate_increasing, Interval, LabelArena};

    /// Asserts `run` answers for `items` as the slice would: same labels,
    /// ids where the items' ids are consecutive, and `position` agreeing
    /// with `slice::binary_search` on every item and between-label probe.
    fn assert_answers_as_slice(run: &StoredRun, items: &[Item]) {
        assert_eq!(run.count(), items.len() as u64);
        assert_eq!(run.first_id(), run_first_id(items));
        let labels: Vec<&[u8]> = items.iter().map(Item::label).collect();
        for (j, it) in items.iter().enumerate() {
            let re = run.item_at(j as u64);
            assert_eq!((re.label(), &re), (it.label(), it));
            if run.first_id().is_some() {
                assert_eq!(re.arena_id(), it.arena_id());
            }
            assert_eq!(run.position(it.label()), Ok(j as u64));
        }
        let mut probes: Vec<Vec<u8>> = vec![vec![0], vec![255, 255, 255]];
        for w in items.windows(2) {
            probes.push(crate::between_labels(
                Some(w[0].label()),
                Some(w[1].label()),
            ));
        }
        for q in &probes {
            let want = labels.binary_search(&q.as_slice());
            let want = want.map(|i| i as u64).map_err(|i| i as u64);
            assert_eq!(run.position(q), want, "probe {q:?}");
        }
    }

    fn shares(run: &StoredRun, items: &[Item]) -> bool {
        items
            .first()
            .is_some_and(|it| Arc::ptr_eq(&run.chunk, it.chunk_span().0))
    }

    fn label_bytes(items: &[Item]) -> usize {
        items.iter().map(Item::depth).sum()
    }

    #[test]
    fn a_sealed_block_shares_its_chunk() {
        let items = generate_increasing(&Interval::whole(), 40);
        let run = StoredRun::new(&items);
        assert!(shares(&run, &items), "sealed block was copied");
        assert_eq!(run.pinned_bytes(), label_bytes(&items));
        assert_answers_as_slice(&run, &items);
        // Re-created items view the very chunk, with no copy.
        assert!(Arc::ptr_eq(&run.chunk, run.item_at(7).chunk_span().0));
    }

    #[test]
    fn other_runs_copy_their_labels() {
        let sealed = generate_increasing(&Interval::whole(), 24);
        let reminted: Vec<Item> = sealed
            .iter()
            .map(|it| Item::from_label(it.label().to_vec()))
            .collect();
        let gapped: Vec<Item> = sealed.iter().step_by(2).cloned().collect();
        let no_id: Vec<Item> = sealed.iter().map(Item::with_no_id).collect();
        let mut mixed = sealed[..12].to_vec();
        mixed.extend(reminted[12..].iter().cloned());
        // One chunk whose labels were sealed in descending order: the
        // run lists its items back to front.
        let mut arena = LabelArena::new();
        sealed
            .iter()
            .rev()
            .for_each(|it| arena.push_label(it.label()));
        let mut reversed = arena.seal();
        reversed.reverse();
        // A sealed block's head and tail: back to back, but short of
        // the chunk's end or start.
        let (head, tail) = (sealed[..12].to_vec(), sealed[12..].to_vec());
        for items in [&reminted, &gapped, &no_id, &mixed, &reversed, &head, &tail] {
            let run = StoredRun::new(items);
            assert!(!shares(&run, items), "{items:?} shared a chunk");
            assert_eq!(run.pinned_bytes(), label_bytes(items));
            assert_answers_as_slice(&run, items);
        }
        // Runs without consecutive ids re-create items with fresh ids.
        for items in [&gapped, &no_id, &reversed] {
            assert_eq!(StoredRun::new(items).first_id(), None);
        }
        let fresh = StoredRun::new(&gapped).item_at(0);
        assert_ne!(fresh.arena_id(), gapped[0].arena_id());
        assert_eq!(fresh, gapped[0]);
    }

    #[test]
    fn empty_and_one_item_runs_work() {
        let empty = StoredRun::new(&[]);
        assert_eq!((empty.count(), empty.pinned_bytes()), (0, 0));
        assert_eq!(empty.position(&[7]), Err(0));
        let items = generate_increasing(&Interval::whole(), 9);
        // An item sealed alone is its own block; one slice of a larger
        // chunk is copied, so the run pins its label only.
        let alone = generate_increasing(&Interval::whole(), 1);
        for one in [&alone[..], &items[..1], &items[4..5]] {
            let run = StoredRun::new(one);
            assert_eq!(run.pinned_bytes(), one[0].depth());
            assert_answers_as_slice(&run, one);
        }
        assert!(shares(&StoredRun::new(&alone), &alone));
        for one in [&items[..1], &items[4..5]] {
            assert!(!shares(&StoredRun::new(one), one));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn item_at_rejects_out_of_range() {
        StoredRun::new(&generate_increasing(&Interval::whole(), 3)).item_at(3);
    }
}
