//! Differential suite for the stream state's batched queries: one
//! batched call must agree with repeated single-query calls — restricted
//! ranks against per-item `rank_in`, and arrival tags against
//! `arrival_of`. The index's own batched walks are pinned in
//! `cqs-core`'s `run_order` unit tests.

use cqs_core::reference::ExactSummary;
use cqs_core::state::StreamState;
use cqs_universe::{generate_increasing, Endpoint, Interval};

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
