//! Differential suite for the batched tree walks: one
//! `multi_*` walk must agree with repeated single-query walks — on
//! realistic adversary labels (balanced-subdivision mints), on random
//! byte labels, and on prefix-heavy label sets whose shared first 8
//! bytes defeat the `Item` prefix key and force the byte-wise tiebreak.

use cqs_core::reference::ExactSummary;
use cqs_core::rng::SplitMix64;
use cqs_core::state::StreamState;
use cqs_ostree::OsTree;
use cqs_universe::{generate_increasing, Endpoint, Interval, Item};

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

/// Asserts every batched walk against its single-query reference on the
/// given stored set and query set.
fn assert_batches_match(stored: &[Item], queries: &[Item]) {
    let mut tree: OsTree<Item> = OsTree::new();
    let mut tagged = 0u64;
    for it in stored {
        if tree.insert_unique_tagged(it.clone(), tagged) {
            tagged += 1;
        }
    }
    let mut qs: Vec<Item> = queries.to_vec();
    qs.sort();

    let (mut le, mut tags) = (Vec::new(), Vec::new());
    tree.multi_count_le(&qs, &mut le);
    tree.multi_tag_of(&qs, &mut tags);
    assert_eq!((le.len(), tags.len()), (qs.len(), qs.len()));
    for ((q, &l), &tag) in qs.iter().zip(&le).zip(&tags) {
        assert_eq!(l, tree.count_le(q), "count_le diverged on {q:?}");
        assert_eq!(tag, tree.tag_of(q), "tag_of diverged on {q:?}");
    }
}

#[test]
fn batched_walks_match_singles_on_adversary_labels() {
    let items = generate_increasing(&Interval::whole(), 300);
    // Queries: stored items, plus fresh in-between mints (absent keys).
    let mut queries = items.clone();
    queries.extend(generate_increasing(&Interval::whole(), 97));
    assert_batches_match(&items, &queries);
}

#[test]
fn batched_walks_match_singles_on_random_labels() {
    let mut rng = SplitMix64::new(0x5eed);
    for round in 0..8 {
        let stored = random_labels(&mut rng, 60 + round * 40);
        let queries = random_labels(&mut rng, 80);
        assert_batches_match(&stored, &queries);
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
        assert_batches_match(&stored, &queries);
    }
}

#[test]
fn batched_walks_handle_empty_tree_and_empty_queries() {
    let tree: OsTree<Item> = OsTree::new();
    let qs = generate_increasing(&Interval::whole(), 5);
    let (mut le, mut tags) = (Vec::new(), Vec::new());
    tree.multi_count_le(&qs, &mut le);
    assert_eq!(le, vec![0; 5]);
    tree.multi_tag_of(&qs, &mut tags);
    assert_eq!(tags, vec![None; 5]);

    let mut tree2: OsTree<Item> = OsTree::new();
    for (i, it) in qs.iter().cloned().enumerate() {
        assert!(tree2.insert_unique_tagged(it, i as u64));
    }
    let empty: Vec<Item> = Vec::new();
    tree2.multi_count_le(&empty, &mut le);
    assert!(le.is_empty());
}

#[test]
fn restricted_ranks_match_per_item_scan() {
    let items = generate_increasing(&Interval::whole(), 64);
    let mut st = StreamState::new(ExactSummary::new());
    for it in &items {
        st.push(it.clone());
    }
    let intervals = vec![
        Interval::whole(),
        Interval::open(items[3].clone(), items[40].clone()),
        Interval::open(items[10].clone(), items[11].clone()), // empty interior
    ];
    for iv in &intervals {
        let (mut got_items, mut les, mut got) = (Vec::new(), Vec::new(), Vec::new());
        let lo_off = st.restricted_ranks_inside(iv, &mut got_items, &mut les, &mut got);

        // Reference: one rank_in descent per entry of the same
        // restricted array.
        let mut want = vec![st.rank_in(iv, iv.lo())];
        // The collected array encloses the interior with the finite
        // boundary items, mirroring Definition 5.1's restricted array.
        let mut want_items = Vec::new();
        if let Endpoint::Finite(l) = iv.lo() {
            want_items.push(l.clone());
        }
        assert_eq!(
            lo_off,
            want_items.len(),
            "interior offset diverged in {iv:?}"
        );
        st.for_each_stored_inside(iv, &mut |it| {
            want.push(st.rank_in(iv, &Endpoint::Finite(it.clone())));
            want_items.push(it.clone());
        });
        if let Endpoint::Finite(h) = iv.hi() {
            want_items.push(h.clone());
        }
        want.push(st.rank_in(iv, iv.hi()));
        assert_eq!(got, want, "restricted ranks diverged in {iv:?}");
        assert_eq!(got_items, want_items);
    }
}

#[test]
fn multi_arrival_matches_single_lookups() {
    let items = generate_increasing(&Interval::whole(), 48);
    let mut st = StreamState::new(ExactSummary::new());
    // Arrival order != sorted order: interleave from both ends.
    let mut order = Vec::new();
    let (mut lo, mut hi) = (0usize, items.len());
    while lo < hi {
        order.push(items[lo].clone());
        lo += 1;
        if lo < hi {
            hi -= 1;
            order.push(items[hi].clone());
        }
    }
    for it in &order {
        st.push(it.clone());
    }
    // Sorted queries: all stored, plus fresh absent mints interleaved.
    let mut qs = items.clone();
    qs.extend(generate_increasing(&Interval::whole(), 31));
    qs.sort();
    let mut tags = Vec::new();
    st.multi_arrival_of(&qs, &mut tags);
    for (q, &tag) in qs.iter().zip(&tags) {
        assert_eq!(tag, st.arrival_of(q), "arrival diverged on {q:?}");
    }
}
