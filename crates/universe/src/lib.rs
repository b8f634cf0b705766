//! A continuous, unbounded, totally ordered universe of opaque items.
//!
//! The lower-bound proof of Cormode & Veselý (PODS'20) assumes a universe
//! that is *continuous*: any non-empty open interval contains an unbounded
//! number of items, so the adversary can always draw a fresh element
//! strictly between any two previously observed ones. The paper suggests
//! realising such a universe as "a large enough set of long incompressible
//! strings, ordered lexicographically".
//!
//! This crate implements exactly that: an [`Item`] is an immutable byte
//! string compared lexicographically, and [`between_labels`] produces a fresh
//! label strictly inside any open interval. Labels never end in a `0x00`
//! byte, which is the invariant that guarantees a strict in-between label
//! always exists (between `b"ab"` and `b"ab\0"` there is no byte string,
//! so trailing-zero labels are never minted).
//!
//! The only operations a consumer of [`Item`] gets are comparison,
//! equality, hashing and cloning — which is precisely the comparison-based
//! model of Definition 2.1 in the paper. Code that is generic over
//! `T: Ord` and is instantiated with `T = Item` is therefore
//! machine-checked to be comparison-based: it cannot average items, hash
//! them into buckets by value structure, or otherwise inspect them.
//!
//! # Example
//!
//! ```
//! use cqs_universe::{Interval, between_items, generate_increasing};
//!
//! let whole = Interval::whole();
//! let items = generate_increasing(&whole, 5);
//! assert!(items.windows(2).all(|w| w[0] < w[1]));
//!
//! // The universe is continuous: we can always go in between.
//! let mid = between_items(&items[1], &items[2]);
//! assert!(items[1] < mid && mid < items[2]);
//! ```

mod arena;
mod interval;
mod item;
mod label;
mod rungen;
mod stored;

pub use arena::{ids_exhausted, run_first_id, LabelArena};
pub use interval::{Endpoint, Interval};
pub use item::Item;
pub use label::between_labels;
pub use rungen::RunGenerator;
pub use stored::StoredRun;

/// Produces a fresh item strictly between `a` and `b`.
///
/// # Panics
///
/// Panics if `a >= b`; the open interval `(a, b)` must be non-empty,
/// which for this universe just means `a < b`.
pub fn between_items(a: &Item, b: &Item) -> Item {
    assert!(a < b, "between_items requires a < b");
    Item::from_label(between_labels(Some(a.label()), Some(b.label())))
}

/// Generates `n` strictly increasing fresh items inside the open interval.
///
/// The items are produced by balanced binary subdivision, so label length
/// grows only O(log n) rather than O(n) as naive repeated insertion after
/// the previous item would give. The whole run is interned through a
/// [`LabelArena`]: labels are generated first (raw bytes, in order),
/// then sealed into one shared chunk — so a run's items are contiguous
/// in memory and cost one chunk allocation instead of `n`.
pub fn generate_increasing(interval: &Interval, n: usize) -> Vec<Item> {
    let mut arena = LabelArena::new();
    generate_labels_into(interval, n, &mut arena);
    arena.seal()
}

/// Generates the raw labels of [`generate_increasing`] into `arena`
/// (same balanced subdivision, same byte-identical labels) without
/// sealing, so a caller batching several runs can share one chunk.
pub fn generate_labels_into(interval: &Interval, n: usize, arena: &mut LabelArena) {
    let (lo, hi) = mint_bounds(interval);
    // Midpoint buffer pool: the subdivision holds at most O(log n) mid
    // labels alive at once (one per recursion level), so a run of n
    // mints costs O(log n) buffer allocations instead of n.
    let mut pool: Vec<Vec<u8>> = Vec::new();
    fill_labels(
        lo.map(Item::label),
        hi.map(Item::label),
        n,
        arena,
        &mut pool,
    );
}

/// The finite endpoints of a mint interval (`None` for an infinite
/// side), with their labels checked once for what the subdivision
/// needs: non-empty, and not ending in `0x00` (`Interval` already
/// guarantees `lo < hi`). The subdivision keeps both by induction, so
/// the per-label midpoint calls skip the O(label depth) re-checks.
///
/// # Panics
///
/// Panics if a finite endpoint's label is empty or ends in `0x00`.
fn mint_bounds(interval: &Interval) -> (Option<&Item>, Option<&Item>) {
    let (lo, hi) = interval.finite_bounds();
    for side in [lo, hi].into_iter().flatten() {
        let label = side.label();
        assert!(!label.is_empty(), "finite label must be non-empty");
        assert!(
            label.last().is_some_and(|b| *b != 0),
            "label must not end in 0x00"
        );
    }
    (lo, hi)
}

/// [`generate_increasing`] with grouped chunk sealing: byte-identical
/// labels in the same order, but split across chunks of at most `group`
/// labels each (see [`LabelArena::seal_grouped_into`]), so a retained
/// item pins O(`group`) label bytes instead of a whole run — the sealing
/// of runs fed to the implicit stream representation.
pub fn generate_increasing_grouped(interval: &Interval, n: usize, group: usize) -> Vec<Item> {
    let mut arena = LabelArena::new();
    generate_labels_into(interval, n, &mut arena);
    let mut out = Vec::new();
    arena.seal_grouped_into(group, &mut out);
    out
}

/// Compile-time audit that items (and the endpoints and intervals built
/// from them) can be shared across the `cqs-bench` parallel sweep
/// pool's worker threads. The `sharding-send-sync` lint rule keeps
/// these lines from being deleted.
#[allow(dead_code)]
fn sharding_send_audit() {
    fn assert_send<T: Send + Sync>() {}
    assert_send::<Item>();
    assert_send::<Endpoint>();
    assert_send::<Interval>();
    // The shared arena handle: minted-run chunks (and the arena that
    // builds them) cross the parallel sweep pool inside Items and leaf
    // scratch state.
    assert_send::<LabelArena>();
}

/// Balanced subdivision over raw labels: the mid label splits `(lo, hi)`
/// and the halves recurse, pushing labels in increasing order. Mid
/// buffers are drawn from (and returned to) `pool` so the recursion
/// reuses one buffer per level.
fn fill_labels(
    lo: Option<&[u8]>,
    hi: Option<&[u8]>,
    n: usize,
    arena: &mut LabelArena,
    pool: &mut Vec<Vec<u8>>,
) {
    if n == 0 {
        return;
    }
    let m = n / 2;
    let mut mid = pool.pop().unwrap_or_default();
    label::between_labels_into(lo, hi, &mut mid);
    fill_labels(lo, Some(&mid), m, arena, pool);
    arena.push_label(&mid);
    fill_labels(Some(&mid), hi, n - m - 1, arena, pool);
    pool.push(mid);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn between_is_strictly_inside() {
        let a = Item::from_label(vec![10]);
        let b = Item::from_label(vec![20]);
        let m = between_items(&a, &b);
        assert!(a < m && m < b);
    }

    #[test]
    fn generate_increasing_is_sorted_and_distinct() {
        let iv = Interval::whole();
        let items = generate_increasing(&iv, 100);
        assert_eq!(items.len(), 100);
        for w in items.windows(2) {
            assert!(w[0] < w[1]);
        }
        for it in &items {
            assert!(iv.contains(it));
        }
    }

    #[test]
    fn generate_increasing_inside_tight_interval() {
        let a = Item::from_label(vec![7]);
        let b = Item::from_label(vec![7, 1]);
        let iv = Interval::open(a.clone(), b.clone());
        let items = generate_increasing(&iv, 64);
        for it in &items {
            assert!(*it > a && *it < b, "item escaped the interval");
        }
        for w in items.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn generated_labels_stay_short() {
        let iv = Interval::whole();
        let items = generate_increasing(&iv, 1024);
        let max_len = items.iter().map(|i| i.label().len()).max().unwrap();
        // Balanced subdivision: length is O(log n), certainly < 4 + log2 n.
        assert!(max_len <= 16, "labels unexpectedly long: {max_len}");
    }

    #[test]
    #[should_panic(expected = "between_items requires a < b")]
    fn between_rejects_unordered_endpoints() {
        let a = Item::from_label(vec![10]);
        between_items(&a, &a);
    }

    #[test]
    fn grouped_generation_matches_single_chunk_generation() {
        let a = Item::from_label(vec![3]);
        let b = Item::from_label(vec![9, 9]);
        let iv = Interval::open(a, b);
        let plain = generate_increasing(&iv, 100);
        for group in [1usize, 7, 32, 100, 1000] {
            let grouped = generate_increasing_grouped(&iv, 100, group);
            assert_eq!(grouped.len(), plain.len());
            for (g, p) in grouped.iter().zip(&plain) {
                assert_eq!(g.label(), p.label(), "grouped sealing changed a label");
            }
        }
    }
}
