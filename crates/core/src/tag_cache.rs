//! Bounded, direct-mapped arena-id → arrival-tag cache.
//!
//! An item's arrival position never changes once it enters its stream,
//! and arena ids are globally unique with id equality proving label
//! equality ([`Item::arena_id`](cqs_universe::Item::arena_id)), so
//! `id → tag` is an immutable fact about one stream: a cached entry is
//! never stale, only evicted. The stream order index
//! ([`crate::run_order`]) answers its hot tag and rank lookups from one
//! of these, in either stream representation; that includes the
//! [`EquivalenceChecker`](crate::state::EquivalenceChecker)'s misses,
//! the items it could not resolve by position against its previous
//! pass.
//!
//! The table is a fixed array of slots. A lookup hits only on a full id
//! match; a store simply overwrites its slot. The slot is the top bits
//! of the id times 2⁶⁴/φ (Fibonacci hashing) rather than the id's low
//! bits: the adversary mints the same number of ids per leaf, so items
//! a summary keeps at the same offset of runs 2¹⁸ ids apart would share
//! a low-bits slot and evict each other on every check. Multiplying by
//! the golden ratio still spreads any run of consecutive ids up to
//! about `cap / 3` long over distinct slots (the three-gap theorem), so
//! one leaf's run never collides with itself. An evicted entry costs
//! its owner one exact lookup (which re-stores it) the next time it is
//! asked for. Memory is `8 · cap` bytes regardless of N, allocated on
//! the first store so that building a stream stays free.

use std::cell::{Cell, OnceCell};

/// Slots per cache: 2¹⁸ × 8 bytes = 2 MiB. Holds the adversary's largest
/// summary working set (under 2¹¹ stored items) plus a leaf run with
/// room to spare, and stays small beside the index it accelerates.
pub(crate) const TAG_CACHE_CAP: usize = 1 << 18;

/// 2⁶⁴ divided by the golden ratio, rounded to odd.
const FIBONACCI: u64 = 0x9e37_79b9_7f4a_7c15;

/// The cache. Interior-mutable so `&self` rank and tag queries can
/// re-store what they had to look up.
pub(crate) struct TagCache {
    /// `64 − log₂(cap)`: the hash keeps the product's top bits.
    shift: u32,
    /// One packed slot per index: `(id + 1) << 32 | tag`, so the all-zero
    /// slot reads as empty (no id maps to key 0).
    slots: OnceCell<Box<[Cell<u64>]>>,
}

impl Default for TagCache {
    fn default() -> Self {
        TagCache {
            shift: 64 - TAG_CACHE_CAP.trailing_zeros(),
            slots: OnceCell::new(),
        }
    }
}

impl TagCache {
    /// A cache of `cap` slots, for tests that force evictions.
    ///
    /// # Panics
    ///
    /// Panics unless `cap` is a power of two.
    #[cfg(test)]
    pub(crate) fn with_capacity(cap: usize) -> Self {
        assert!(
            cap.is_power_of_two(),
            "tag cache capacity must be a power of two"
        );
        TagCache {
            shift: 64 - cap.trailing_zeros(),
            slots: OnceCell::new(),
        }
    }

    /// The slot arena id `id` maps to.
    fn slot_of(&self, id: u32) -> usize {
        // A one-slot cache shifts by 64, which `checked_shr` maps to 0.
        let h = u64::from(id).wrapping_mul(FIBONACCI);
        h.checked_shr(self.shift).unwrap_or(0) as usize
    }

    /// The cached tag of arena id `id`, if its slot holds it.
    pub(crate) fn get(&self, id: u32) -> Option<u64> {
        let slot = self.slots.get()?.get(self.slot_of(id))?.get();
        (slot >> 32 == u64::from(id) + 1).then_some(slot & u64::from(u32::MAX))
    }

    /// Caches `tag` for arena id `id`, evicting whatever shared its
    /// slot. Tags at or above `u32::MAX` are not cached; the item just
    /// stays a miss.
    pub(crate) fn set(&self, id: u32, tag: u64) {
        if tag >= u64::from(u32::MAX) {
            return;
        }
        let slots = self.slots.get_or_init(|| {
            let cap = 1usize << (64 - self.shift);
            (0..cap).map(|_| Cell::new(0)).collect()
        });
        if let Some(slot) = slots.get(self.slot_of(id)) {
            slot.set((u64::from(id) + 1) << 32 | tag);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_need_a_full_id_match() {
        let c = TagCache::with_capacity(4);
        assert_eq!(c.get(0), None, "an unallocated cache misses");
        c.set(1, 10);
        assert_eq!(c.get(1), Some(10));
        // An id sharing id 1's slot misses, then evicts id 1.
        let other = (2..).find(|&j| c.slot_of(j) == c.slot_of(1)).unwrap();
        assert_eq!(c.get(other), None);
        c.set(other, 50);
        assert_eq!((c.get(1), c.get(other)), (None, Some(50)));
        // Id 0 and tag 0 are ordinary values, not the empty marker.
        c.set(0, 0);
        assert_eq!(c.get(0), Some(0));
    }

    #[test]
    fn consecutive_ids_never_share_a_slot() {
        let c = TagCache::with_capacity(1 << 12);
        for start in [0u32, 12_345, u32::MAX - 2_000] {
            let mut seen: Vec<usize> = (start..start + 1_000).map(|id| c.slot_of(id)).collect();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), 1_000, "a run of ids collided from {start}");
        }
    }

    #[test]
    fn unrepresentable_tags_are_not_cached() {
        let c = TagCache::with_capacity(1);
        c.set(7, 3);
        c.set(8, u64::from(u32::MAX));
        c.set(9, u64::MAX);
        assert_eq!((c.get(7), c.get(8), c.get(9)), (Some(3), None, None));
        c.set(u32::MAX - 1, u64::from(u32::MAX) - 1);
        assert_eq!(c.get(u32::MAX - 1), Some(u64::from(u32::MAX) - 1));
    }
}
