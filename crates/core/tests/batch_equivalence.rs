//! Differential suite for the stream state's batched queries: one
//! batched call must agree with repeated single-query calls — restricted
//! ranks against per-item `rank_in`, and arrival tags against
//! `arrival_of`. The index's own batched walks are pinned in
//! `cqs-core`'s `run_order` unit tests.

use cqs_core::reference::ExactSummary;
use cqs_core::state::StreamState;
use cqs_universe::{generate_increasing, Interval};

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
        let (mut les, mut got) = (Vec::new(), Vec::new());
        st.restricted_ranks_inside(iv, &mut les, &mut got);

        // Reference: one rank_in descent per entry of the same
        // restricted array.
        let want: Vec<u64> = st
            .restricted_item_array(iv)
            .iter()
            .map(|x| st.rank_in(iv, x))
            .collect();
        assert_eq!(got, want, "restricted ranks diverged in {iv:?}");
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
