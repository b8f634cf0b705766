#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Order-statistic treaps for the adversary's two streams.
//!
//! The lower-bound adversary of Cormode & Veselý needs, for each of the
//! two streams it grows, the quantities `rank_σ(a)` (position of item `a`
//! in the sorted order of stream σ), `next(σ, a)` (the successor of `a`
//! among σ's items), `prev(σ, b)`, the stream's minimum and maximum, and
//! each item's arrival position — over streams of distinct items that
//! grow to millions of items. The streams grow in runs, so [`RunTree`]
//! indexes them by run fragment: a treap over contiguous blocks of
//! items with cached counts, which the adversary's stream index builds
//! on. [`OsTree`] provides the same operations per item in O(log n)
//! expected time via a randomized balanced BST (treap) augmented with
//! subtree sizes and a per-item tag, plus batched walks
//! ([`OsTree::multi_count_le`], [`OsTree::multi_tag_of`]) that answer a
//! sorted query set in one descent; the differential tests use it as the
//! reference model of the stream index.
//!
//! Priorities come from an internal deterministic SplitMix64 sequence, so
//! a tree built by the same sequence of inserts always has the same
//! shape: every experiment in this repository is exactly replayable.
//!
//! # Example
//!
//! ```
//! use cqs_ostree::OsTree;
//!
//! let mut t = OsTree::new();
//! for (arrival, x) in [50, 10, 30, 20, 40].into_iter().enumerate() {
//!     assert!(t.insert_unique_tagged(x, arrival as u64));
//! }
//! assert!(!t.insert_unique_tagged(30, 9)); // items are distinct
//! assert_eq!(t.len(), 5);
//! assert_eq!(t.count_less(&30) + 1, 3); // 1-based rank
//! assert_eq!(t.tag_of(&30), Some(2)); // arrival position
//! assert_eq!(t.successor(&30), Some(&40));
//! assert_eq!(t.predecessor(&30), Some(&20));
//! ```

mod runs;
mod tree;

pub use runs::{Fragment, Locate, RunTree};
pub use tree::OsTree;

#[cfg(test)]
mod tests {
    use super::*;

    /// Inserts distinct `xs`, tagging each with its arrival position.
    fn build(xs: impl IntoIterator<Item = u64>) -> OsTree<u64> {
        let mut t = OsTree::new();
        for x in xs {
            let tag = t.len() as u64;
            assert!(t.insert_unique_tagged(x, tag), "duplicate {x}");
        }
        t
    }

    /// The stored `(item, tag)` pairs in order.
    fn pairs(t: &OsTree<u64>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        t.for_each_tagged(&mut |&x, tag| out.push((x, tag)));
        out
    }

    #[test]
    fn empty_tree_behaviour() {
        let t: OsTree<u32> = OsTree::new();
        assert_eq!(t.len(), 0);
        assert!(t.is_empty());
        assert_eq!(t.successor(&5), None);
        assert_eq!(t.predecessor(&5), None);
        assert_eq!(t.count_less(&5), 0);
        assert_eq!(t.count_le(&5), 0);
        assert_eq!(t.tag_of(&5), None);
        assert_eq!(t.min(), None);
        assert_eq!(t.max(), None);
    }

    #[test]
    fn rank_counts_strictly_smaller_plus_one() {
        let t = build([2, 4, 6, 8]);
        let rank = |q: u64| t.count_less(&q) + 1;
        assert_eq!(rank(2), 1);
        assert_eq!(rank(8), 4);
        // rank of an absent item is still well-defined: 1 + #smaller.
        assert_eq!(rank(5), 3);
        assert_eq!(rank(1), 1);
        assert_eq!(rank(9), 5);
    }

    #[test]
    fn successor_predecessor_on_present_and_absent() {
        let t = build([10, 20, 30]);
        assert_eq!(t.successor(&10), Some(&20));
        assert_eq!(t.successor(&15), Some(&20));
        assert_eq!(t.successor(&30), None);
        assert_eq!(t.predecessor(&30), Some(&20));
        assert_eq!(t.predecessor(&25), Some(&20));
        assert_eq!(t.predecessor(&10), None);
        assert_eq!(t.successor(&0), Some(&10));
        assert_eq!(t.predecessor(&99), Some(&30));
    }

    #[test]
    fn min_max_and_iteration() {
        let t = build([5, 1, 9, 3, 7]);
        assert_eq!(t.min(), Some(&1));
        assert_eq!(t.max(), Some(&9));
        assert_eq!(pairs(&t), vec![(1, 1), (3, 3), (5, 0), (7, 4), (9, 2)]);
    }

    #[test]
    fn contains_works() {
        let t = build([42]);
        assert!(t.tag_of(&42).is_some());
        assert!(t.tag_of(&41).is_none());
    }

    #[test]
    fn large_sequential_insert_stays_balanced_enough() {
        // Sequential inserts are the worst case for an unbalanced BST;
        // the treap must stay logarithmic.
        let t = build(0..100_000);
        assert_eq!(t.len(), 100_000);
        assert_eq!(t.count_less(&50_000), 50_000);
        assert_eq!(t.tag_of(&99_998), Some(99_998));
        assert!(t.height() < 80, "treap height degenerate: {}", t.height());
    }

    #[test]
    fn deterministic_shape_across_builds() {
        let build_once = || {
            let mut t = OsTree::with_seed(7);
            for x in 0..1000u32 {
                t.insert_unique_tagged(x.wrapping_mul(2654435761) % 4096, 0);
            }
            t.height()
        };
        assert_eq!(build_once(), build_once());
    }

    #[test]
    fn matches_sorted_vec_reference() {
        // Differential against a sorted Vec over seeded random sets,
        // built half per item and half as one sorted run.
        let mut state = 0x5eed_u64;
        let mut next = move |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % bound
        };
        for round in 0..24 {
            let n = next(300) as usize;
            let mut xs: Vec<u64> = (0..n).map(|_| next(1000)).collect();
            xs.sort_unstable();
            xs.dedup();
            let split = xs.len() / 2;
            let mut t = OsTree::with_seed(round);
            for &x in xs.iter().skip(split).rev() {
                assert!(t.insert_unique_tagged(x, x));
            }
            t.extend_sorted_tagged(xs.iter().take(split).map(|&x| (x, x)));
            let want: Vec<(u64, u64)> = xs.iter().map(|&x| (x, x)).collect();
            assert_eq!(pairs(&t), want);
            for q in [0, 1, 500, 999, 1000] {
                assert_eq!(t.count_less(&q), xs.iter().filter(|&&x| x < q).count());
                assert_eq!(t.count_le(&q), xs.iter().filter(|&&x| x <= q).count());
                assert_eq!(t.successor(&q), xs.iter().find(|&&x| x > q));
                assert_eq!(t.predecessor(&q), xs.iter().rev().find(|&&x| x < q));
                assert_eq!(t.tag_of(&q), xs.binary_search(&q).ok().map(|_| q));
            }
        }
    }

    #[test]
    fn multi_count_le_matches_single_queries() {
        // Differential: every batched answer must equal its one-walk
        // counterpart, over query sets containing absent, duplicate, and
        // boundary values.
        let t = build([5, 9, 12, 40, 41, 60]);
        let qs: Vec<u64> = vec![0, 4, 5, 5, 8, 9, 10, 40, 42, 60, 61, 100];
        let mut le = Vec::new();
        t.multi_count_le(&qs, &mut le);
        assert_eq!(le.len(), qs.len());
        for (q, &l) in qs.iter().zip(&le) {
            assert_eq!(l, t.count_le(q), "count_le diverged at {q}");
        }
    }

    #[test]
    fn multi_tag_of_matches_single_lookups() {
        let t = build([10, 20, 30, 40]);
        let qs: Vec<u64> = vec![5, 10, 15, 20, 20, 40, 99];
        let mut tags = Vec::new();
        t.multi_tag_of(&qs, &mut tags);
        for (q, &tag) in qs.iter().zip(&tags) {
            assert_eq!(tag, t.tag_of(q), "tag diverged at {q}");
        }
    }

    #[test]
    fn multi_queries_on_empty_tree() {
        let t: OsTree<u32> = OsTree::new();
        let (mut le, mut tags) = (Vec::new(), Vec::new());
        t.multi_count_le(&[1, 2, 3], &mut le);
        assert_eq!(le, vec![0, 0, 0]);
        t.multi_tag_of(&[7], &mut tags);
        assert_eq!(tags, vec![None]);
        t.multi_count_le(&[], &mut le);
        assert!(le.is_empty());
    }

    #[test]
    fn extend_sorted_matches_per_item_insert() {
        // Equivalence: same set, same tags → same count/successor/
        // predecessor answers, regardless of how the items arrived.
        let runs: Vec<Vec<u64>> = vec![
            vec![],
            vec![7],
            (0..500).collect(),
            (0..100).map(|i| i * 3 % 97).collect(),
        ];
        for base in [Vec::new(), (1000..1100).collect::<Vec<u64>>()] {
            for run in &runs {
                let mut sorted_run = run.clone();
                sorted_run.sort_unstable();
                sorted_run.dedup();

                let mut bulk = OsTree::with_seed(11);
                let mut single = OsTree::with_seed(11);
                for &x in &base {
                    bulk.insert_unique_tagged(x, x);
                    single.insert_unique_tagged(x, x);
                }
                bulk.extend_sorted_tagged(sorted_run.iter().map(|&x| (x, x)));
                for &x in &sorted_run {
                    single.insert_unique_tagged(x, x);
                }

                assert_eq!(bulk.len(), single.len());
                assert_eq!(pairs(&bulk), pairs(&single), "in-order traversal diverged");
                for q in [0u64, 5, 9, 50, 96, 150, 1000, 1099, 2000] {
                    assert_eq!(bulk.count_less(&q), single.count_less(&q));
                    assert_eq!(bulk.count_le(&q), single.count_le(&q));
                    assert_eq!(bulk.successor(&q), single.successor(&q));
                    assert_eq!(bulk.predecessor(&q), single.predecessor(&q));
                }
            }
        }
    }

    #[test]
    fn extend_sorted_interleaves_with_existing_items() {
        // The run's key range overlaps the existing tree item-by-item.
        let mut bulk = OsTree::with_seed(3);
        for x in (0..1000u64).step_by(2) {
            bulk.insert_unique_tagged(x, x);
        }
        let odds: Vec<u64> = (0..1000).filter(|x| x % 2 == 1).collect();
        bulk.extend_sorted_tagged(odds.iter().map(|&x| (x, x)));
        assert_eq!(bulk.len(), 1000);
        let expected: Vec<(u64, u64)> = (0..1000).map(|x| (x, x)).collect();
        assert_eq!(pairs(&bulk), expected);
        assert!(bulk.height() < 80, "degenerate: {}", bulk.height());
    }

    #[test]
    fn extend_sorted_bulk_height_stays_logarithmic() {
        // An all-sorted bulk build is the shape-degeneracy worst case.
        let mut t = OsTree::new();
        t.extend_sorted_tagged((0..100_000u64).map(|x| (x, x)));
        assert_eq!(t.len(), 100_000);
        assert_eq!(t.count_less(&50_000), 50_000);
        assert!(t.height() < 80, "degenerate: {}", t.height());
    }

    #[test]
    fn tags_record_and_retrieve_per_item_payloads() {
        let mut t = OsTree::new();
        assert!(t.insert_unique_tagged(10u32, 100));
        assert!(t.insert_unique_tagged(20u32, 200));
        assert!(
            !t.insert_unique_tagged(10u32, 999),
            "duplicate must be rejected"
        );
        assert_eq!(t.len(), 2);
        assert_eq!(t.tag_of(&10), Some(100), "tag of rejected dup unchanged");
        assert_eq!(t.tag_of(&20), Some(200));
        assert_eq!(t.tag_of(&30), None);
        t.extend_sorted_tagged([(30u32, 300), (40, 400)]);
        assert_eq!(t.tag_of(&30), Some(300));
        assert_eq!(t.tag_of(&40), Some(400));
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn count_in_open_interval() {
        let t = build(0..100);
        // Items strictly between 10 and 20: 11..=19 → 9 items.
        let n = t.count_less(&20) - t.count_le(&10);
        assert_eq!(n, 9);
    }
}
