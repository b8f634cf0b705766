//! Opaque universe items.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use crate::arena::{reserve_ids, NO_ID};

/// An element of the totally ordered universe.
///
/// Internally an item is an immutable byte-string label compared
/// lexicographically, but the label bytes are deliberately *not* part of
/// the comparison-based API surface used by summaries: a summary that is
/// generic over `T: Ord + Clone` and instantiated with `T = Item` can
/// only compare, test equality, hash, and clone — exactly the operations
/// permitted by Definition 2.1(i) of the paper.
///
/// Cloning is O(1) (the label chunk is reference-counted).
///
/// ## Memory layout
///
/// An item is a view into an arena chunk (see
/// [`LabelArena`](crate::LabelArena)): a shared `Arc<[u8]>` holding the
/// labels of a whole minted run, plus the `(off, len)` slice locating
/// this label. Two inline fields are precomputed at mint time so the
/// common comparisons never dereference the chunk at all:
///
/// * `key` — the first 8 label bytes, big-endian, zero-padded. Because
///   labels never end in `0x00` (the [`between_labels`]
///   (crate::between_labels) invariant), zero-padding cannot collide a
///   short label with a longer one that it is not genuinely ordered
///   against: if two keys differ, their order *is* the lexicographic
///   order of the labels; if they agree, the labels agree on their
///   first `min(8, len)` bytes and only the tail needs a byte-wise
///   tiebreak.
/// * `id` — a globally unique arena id; a sealed run's items carry
///   consecutive ones. Clones share their original's id, so `id`
///   equality proves the labels are the same and yields `Equal` without
///   touching memory. Inequality of ids proves nothing and falls
///   through. The [`NO_ID`] sentinel (minted only after id
///   exhaustion) is excluded from the fast path entirely.
///
/// The observable semantics are exactly the derived ones on the label
/// bytes: lexicographic byte order. The prefix `key` is not reachable
/// through the public API, and the `id` is exposed read-only
/// ([`arena_id`](Item::arena_id)) for adversary-side bookkeeping only —
/// summaries, being generic over `T: Ord + Clone`, cannot observe
/// anything beyond comparison outcomes (the `model-purity` lint
/// certifies this).
#[derive(Clone)]
pub struct Item {
    key: u64,
    id: u32,
    off: u32,
    len: u32,
    chunk: Arc<[u8]>,
}

impl PartialEq for Item {
    fn eq(&self, other: &Self) -> bool {
        (self.id == other.id && self.id != NO_ID)
            || (self.key == other.key && self.label() == other.label())
    }
}

impl Eq for Item {}

// Manual alongside the manual `PartialEq` (id equality implies label
// equality, so the `k1 == k2 ⇒ hash(k1) == hash(k2)` contract holds);
// hashes the label bytes exactly as the old `Arc<[u8]>` layout did.
impl std::hash::Hash for Item {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.label().hash(state);
    }
}

impl Ord for Item {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.id == other.id && self.id != NO_ID {
            return Ordering::Equal;
        }
        if self.key != other.key {
            // Big-endian keys order exactly like the padded first 8
            // bytes, which (no-trailing-zero invariant aside, see the
            // type docs) is the labels' lexicographic order.
            return self.key.cmp(&other.key);
        }
        let a = self.label();
        let b = other.label();
        // Equal keys ⇒ the labels agree on bytes 0..m; compare tails.
        let m = a.len().min(b.len()).min(8);
        lex_cmp(&a[m..], &b[m..])
    }
}

impl PartialOrd for Item {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Lexicographic byte comparison that skips the shared prefix one
/// `u64` word at a time before falling back to the per-byte verdict.
/// Equivalent to `a.cmp(b)` on byte slices.
fn lex_cmp(a: &[u8], b: &[u8]) -> Ordering {
    const W: usize = 8;
    let common = a.len().min(b.len());
    let mut i = 0;
    while i + W <= common {
        // Word-wise equality probe; big-endian interpretation preserves
        // lexicographic order, so the first differing word decides.
        let wa = u64::from_be_bytes(a[i..i + W].try_into().expect("8-byte chunk"));
        let wb = u64::from_be_bytes(b[i..i + W].try_into().expect("8-byte chunk"));
        if wa != wb {
            return wa.cmp(&wb);
        }
        i += W;
    }
    while i < common {
        if a[i] != b[i] {
            return a[i].cmp(&b[i]);
        }
        i += 1;
    }
    a.len().cmp(&b.len())
}

/// The fixed-width comparison key: first 8 label bytes, big-endian,
/// zero-padded on the right.
fn prefix_key(label: &[u8]) -> u64 {
    let mut k = [0u8; 8];
    let n = label.len().min(8);
    k[..n].copy_from_slice(&label[..n]);
    u64::from_be_bytes(k)
}

impl Item {
    /// Wraps a raw label in a single-label chunk. Intended for the
    /// adversary/universe machinery; summaries should never construct
    /// items. Run minting goes through [`LabelArena`](crate::LabelArena)
    /// instead, which packs a whole run into one chunk.
    pub fn from_label(label: Vec<u8>) -> Self {
        Self::from_label_with_id(label, reserve_ids(1)(0))
    }

    /// [`from_label`](Self::from_label) with the arena id `id`, which the
    /// caller guarantees belongs to an item with this very label — a
    /// replay of a sealed run re-minting its item with the item's id.
    pub(crate) fn from_label_with_id(label: Vec<u8>, id: u32) -> Self {
        let chunk: Arc<[u8]> = label.into();
        let end = chunk.len();
        Self::from_chunk(chunk, 0, end, id)
    }

    /// An item with arena id `id` viewing `chunk[start..end]`. The chunk
    /// must already be frozen (no mutable access can exist behind an
    /// `Arc<[u8]>`).
    ///
    /// # Panics
    ///
    /// Panics if the slice bounds are out of range or exceed the `u32`
    /// offset space (a single chunk holds one minted run; runs are
    /// nowhere near 4 GiB).
    pub(crate) fn from_chunk(chunk: Arc<[u8]>, start: usize, end: usize, id: u32) -> Self {
        assert!(
            start <= end && end <= chunk.len(),
            "chunk slice out of range"
        );
        let off = u32::try_from(start).expect("arena chunk exceeds u32 offset space");
        let len = u32::try_from(end - start).expect("label exceeds u32 length space");
        let key = prefix_key(&chunk[start..end]);
        Item {
            key,
            id,
            off,
            len,
            chunk,
        }
    }

    /// The underlying label bytes (adversary-side introspection only).
    pub fn label(&self) -> &[u8] {
        let start = self.off as usize;
        &self.chunk[start..start + self.len as usize]
    }

    /// The chunk this item views and its label's byte range in it.
    pub(crate) fn chunk_span(&self) -> (&Arc<[u8]>, usize, usize) {
        let start = self.off as usize;
        (&self.chunk, start, start + self.len as usize)
    }

    /// Length of the label in bytes — a proxy for how deeply nested in
    /// the interval-refinement recursion this item was minted.
    pub fn depth(&self) -> usize {
        self.len as usize
    }

    /// The item's arena id, if it carries a real one (`None` for the
    /// post-exhaustion [`NO_ID`] sentinel). Ids are globally unique and
    /// id equality proves label equality, so adversary-side bookkeeping
    /// (e.g. the equivalence checker's previous-pass match) may use the id
    /// as a stable identity key, and a sealed run's consecutive ids
    /// locate an item inside its run. Like [`label`](Self::label), this is
    /// adversary-side introspection only — summaries stay generic over
    /// `T: Ord + Clone` and physically cannot observe it.
    pub fn arena_id(&self) -> Option<u32> {
        (self.id != NO_ID).then_some(self.id)
    }

    /// The bytes this item keeps alive: the length of the chunk it views,
    /// which a sealed run's item shares with the rest of its seal group.
    /// Memory-accounting introspection for the adversary side only, like
    /// [`label`](Self::label).
    pub fn pinned_bytes(&self) -> usize {
        self.chunk.len()
    }

    /// An equal item that keeps alive only its own label: same label,
    /// same arena id, so `Eq`, `Ord`, `Hash` and id lookups see no
    /// difference. An item that already owns a single-label chunk is
    /// cloned, so detached copies share that chunk; any other gets a
    /// fresh chunk of exactly its label, one allocation.
    ///
    /// For items an index keeps long after their run was fed: a clone
    /// would pin the whole seal group.
    pub fn detached(&self) -> Self {
        if self.off == 0 && self.len as usize == self.chunk.len() {
            return self.clone();
        }
        Item {
            chunk: Arc::from(self.label()),
            off: 0,
            ..*self
        }
    }

    /// A copy of this item carrying the [`NO_ID`] sentinel — test-only,
    /// for exercising the id-exhaustion comparison path without minting
    /// 2³² items.
    #[cfg(test)]
    pub(crate) fn with_no_id(&self) -> Self {
        Item {
            id: NO_ID,
            ..self.clone()
        }
    }
}

impl fmt::Debug for Item {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Item(")?;
        for (i, b) in self.label().iter().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            if i >= 8 {
                write!(f, "\u{2026}")?;
                break;
            }
            write!(f, "{b:02x}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Item {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_lexicographic() {
        let a = Item::from_label(vec![1, 2]);
        let b = Item::from_label(vec![1, 2, 3]);
        let c = Item::from_label(vec![2]);
        assert!(a < b);
        assert!(b < c);
        assert!(a < c);
    }

    #[test]
    fn clone_is_equal() {
        let a = Item::from_label(vec![9, 9]);
        let b = a.clone();
        assert_eq!(a, b);
    }

    #[test]
    fn debug_is_compact() {
        let a = Item::from_label(vec![0xab; 20]);
        let s = format!("{a:?}");
        assert!(s.len() < 40, "debug too long: {s}");
    }

    #[test]
    fn fast_path_matches_slice_lexicographic_order() {
        // Exhaustive-ish differential check against the reference
        // (`<[u8]>::cmp`), with lengths straddling the 8-byte key/word
        // size and differences at every position.
        let mut labels: Vec<Vec<u8>> = vec![vec![]];
        for len in [1usize, 7, 8, 9, 15, 16, 17, 31] {
            for fill in [0u8, 1, 127, 255] {
                labels.push(vec![fill; len]);
                let mut v = vec![fill; len];
                v[len / 2] = fill.wrapping_add(1);
                labels.push(v);
                let mut w = vec![fill; len];
                w[len - 1] = fill.wrapping_sub(1);
                labels.push(w);
            }
        }
        for a in &labels {
            for b in &labels {
                let ia = Item::from_label(a.clone());
                let ib = Item::from_label(b.clone());
                assert_eq!(
                    ia.cmp(&ib),
                    a.as_slice().cmp(b.as_slice()),
                    "fast path diverged on {a:?} vs {b:?}"
                );
                assert_eq!(ia == ib, a == b);
            }
        }
    }

    #[test]
    fn shared_id_compares_equal_without_byte_walk() {
        let a = Item::from_label(vec![5; 1000]);
        let b = a.clone();
        assert_eq!(a.cmp(&b), std::cmp::Ordering::Equal);
        assert_eq!(a, b);
    }

    #[test]
    fn equal_keys_divergent_tails_still_order_correctly() {
        // Shared 8-byte prefix: the key cannot decide, the tail must.
        let a = Item::from_label(vec![7, 7, 7, 7, 7, 7, 7, 7, 1]);
        let b = Item::from_label(vec![7, 7, 7, 7, 7, 7, 7, 7, 2]);
        let p = Item::from_label(vec![7, 7, 7, 7, 7, 7, 7, 7]);
        assert!(a < b);
        assert!(p < a, "8-byte prefix orders below its extensions");
    }

    #[test]
    fn zero_padded_key_collision_resolves_by_length() {
        // key([5]) == key([5,0,0,0,0,0,0,0,1]) — both pad to
        // 05 00 00 00 00 00 00 00. The shorter (a strict prefix once
        // padded) must order first, exactly as slice::cmp says.
        let short = Item::from_label(vec![5]);
        let long = Item::from_label(vec![5, 0, 0, 0, 0, 0, 0, 0, 1]);
        assert!(short < long);
        assert_eq!(
            short.cmp(&long),
            short.label().cmp(long.label()),
            "key-equal path diverged from reference"
        );
    }

    #[test]
    fn no_id_sentinel_never_fast_paths_to_equal() {
        let a = Item::from_label(vec![3, 3]).with_no_id();
        let b = Item::from_label(vec![3, 3]).with_no_id();
        let c = Item::from_label(vec![3, 4]).with_no_id();
        // Equal bytes: still Equal — via the byte path, not the id.
        assert_eq!(a.cmp(&b), std::cmp::Ordering::Equal);
        assert_eq!(a, b);
        // Distinct bytes with matching sentinel ids must NOT be equal.
        assert!(a < c);
        assert_ne!(a, c);
        // Sentinel vs regular id also byte-compares.
        let d = Item::from_label(vec![3, 3]);
        assert_eq!(a.cmp(&d), std::cmp::Ordering::Equal);
    }

    /// Four items sealed into one chunk, so each pins all four labels.
    fn sealed_group() -> Vec<Item> {
        let mut arena = crate::LabelArena::new();
        for b in [1u8, 2, 3, 4] {
            arena.push_label(&[9, 9, 9, 9, 9, 9, 9, 9, b]);
        }
        arena.seal()
    }

    #[test]
    fn detached_items_compare_and_hash_as_their_originals() {
        use std::hash::BuildHasher;
        let hasher = std::hash::RandomState::new();
        let group = sealed_group();
        let mut items: Vec<Item> = group.iter().map(Item::with_no_id).collect();
        items.extend(group);
        for a in &items {
            let d = a.detached();
            assert_eq!((d.label(), d.arena_id()), (a.label(), a.arena_id()));
            assert_eq!(d.pinned_bytes(), a.label().len());
            assert_eq!(hasher.hash_one(&d), hasher.hash_one(a));
            for b in &items {
                assert_eq!(d.cmp(b), a.cmp(b), "{a:?} vs {b:?}");
                assert_eq!(b.cmp(&d), b.cmp(a), "{b:?} vs {a:?}");
                assert_eq!(d == *b, a == b);
            }
        }
    }

    #[test]
    fn detaching_is_idempotent() {
        for a in sealed_group() {
            assert_eq!(a.pinned_bytes(), 4 * a.label().len());
            let once = a.detached();
            let twice = once.detached();
            // A detached item already owns its chunk: detaching again
            // shares it instead of copying the label.
            assert!(Arc::ptr_eq(&once.chunk, &twice.chunk));
            assert_eq!((twice.label(), twice.arena_id()), (a.label(), a.arena_id()));
        }
        let single = Item::from_label(vec![4, 2]);
        assert!(Arc::ptr_eq(&single.chunk, &single.detached().chunk));
    }

    #[test]
    fn hash_agrees_with_equality_across_mints() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |it: &Item| {
            let mut s = DefaultHasher::new();
            it.hash(&mut s);
            s.finish()
        };
        let a = Item::from_label(vec![1, 2, 3]);
        let b = Item::from_label(vec![1, 2, 3]); // distinct mint, equal bytes
        assert_eq!(a, b);
        assert_eq!(h(&a), h(&b));
    }
}
