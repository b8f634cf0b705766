//! Snapshots of the adversary's live [`StreamState`]: the summary under
//! attack plus every stream item with its arrival tag, so a restored
//! state answers `rank`/`next`/`prev`/`arrival_of` identically.
//!
//! Layout (`STRM`): `SUMM` (the summary's own complete snapshot,
//! embedded as one length-prefixed blob) + `TAGS` (count, then per
//! stream item in sorted order: label-encoded item, arrival tag).
//! Restore validates the embedded summary with its own reader, then
//! rebuilds the order index through
//! [`StreamState::from_snapshot_parts`], which re-checks sortedness,
//! tag permutation, and summary/stream length agreement, and stores each
//! stretch of consecutive arrival tags as one run: its labels copied
//! into one chunk, plus 4 B per item. The decoded items, one chunk each,
//! are dropped once the runs hold their labels.
//!
//! The wire format is representation-agnostic: an interval-compressed
//! (`StreamRepr::Implicit`) state replays its items through the same
//! `for_each_arrival` walk — the run generators mint labels by the
//! deterministic balanced subdivision, so the `TAGS` section comes out
//! byte-identical to a materialized state over the same stream. Restore
//! always yields a materialized state (the labels are in hand anyway);
//! the snapshot is therefore also the escape hatch for converting an
//! implicit stream back to stored labels. Note the section is Θ(N) —
//! snapshotting a large-N implicit stream forfeits its space advantage,
//! which is why the billion-item sweep checkpoints at the *cell* level
//! (completed `AdversaryReport`s) rather than mid-stream.

use crate::wire::{SnapshotReader, SnapshotWriter};
use crate::{RestoreError, SnapshotItem, SnapshotRead, SnapshotWrite};
use cqs_core::{ComparisonSummary, StreamState};
use cqs_universe::Item;

const SUMM: [u8; 4] = *b"SUMM";
const TAGS: [u8; 4] = *b"TAGS";

impl<S> SnapshotWrite for StreamState<S>
where
    S: ComparisonSummary<Item> + SnapshotWrite,
{
    const KIND: [u8; 4] = *b"STRM";

    fn write_sections(&self, w: &mut SnapshotWriter) {
        w.section_with(SUMM, |e| {
            e.put_bytes(&self.summary.to_snapshot_bytes());
        });
        w.section_with(TAGS, |e| {
            e.put_u64(self.len());
            self.for_each_arrival(&mut |item, tag| {
                item.encode_item(e);
                e.put_u64(tag);
            });
        });
    }
}

impl<S> SnapshotRead for StreamState<S>
where
    S: ComparisonSummary<Item> + SnapshotRead,
{
    fn read_sections(r: &mut SnapshotReader<'_>) -> Result<Self, RestoreError> {
        let mut summ = r.section(SUMM)?;
        let blob = summ.take_bytes()?;
        let summary = S::from_snapshot_bytes(blob)?;
        summ.finish()?;
        let mut tags = r.section(TAGS)?;
        // Each pair is at least 8 (label length) + 1 + 8 (tag) bytes.
        let count = tags.take_count(17)?;
        let mut pairs = Vec::with_capacity(count);
        for _ in 0..count {
            let item = Item::decode_item(&mut tags)?;
            let tag = tags.take_u64()?;
            pairs.push((item, tag));
        }
        tags.finish()?;
        StreamState::from_snapshot_parts(summary, pairs).map_err(|e| RestoreError::Malformed {
            section: "TAGS".to_string(),
            detail: e,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqs_gk::GkSummary;
    use cqs_universe::{generate_increasing, Interval};

    #[test]
    fn stream_state_round_trip_preserves_ranks_and_arrivals() {
        let mut st = StreamState::new(GkSummary::new(0.05));
        let items = generate_increasing(&Interval::whole(), 500);
        // Interleave pushes so arrival order differs from sorted order.
        for chunk in items.chunks(2).rev() {
            for it in chunk {
                st.push(it.clone());
            }
        }
        let bytes = st.to_snapshot_bytes();
        let back = StreamState::<GkSummary<Item>>::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(back.len(), st.len());
        assert_eq!(back.max_label_depth(), st.max_label_depth());
        assert_eq!(back.summary.item_array(), st.summary.item_array());
        for it in &items {
            assert_eq!(back.rank(it), st.rank(it));
            assert_eq!(back.arrival_of(it), st.arrival_of(it));
            assert_eq!(back.next(it), st.next(it));
            assert_eq!(back.prev(it), st.prev(it));
        }
    }

    #[test]
    fn implicit_stream_snapshots_byte_identical_to_materialized() {
        use cqs_core::StreamRepr;

        // Same refined stream, both representations: the STRM bytes
        // must agree exactly, because the implicit state replays the
        // very same (item, tag) walk the stored runs hold. The stream is
        // built in the adversary's pattern — a root run, then runs
        // minted between order-adjacent items — so fragment splits are
        // on the wire path.
        let mut mat = StreamState::new(GkSummary::<Item>::new(0.05));
        let mut imp = StreamState::with_repr(GkSummary::<Item>::new(0.05), StreamRepr::Implicit);
        let mut feed = |iv: &Interval, n: usize| {
            let items = generate_increasing(iv, n);
            mat.push_run_in(iv, &items);
            imp.push_run_in(iv, &items);
            items
        };
        let root = feed(&Interval::whole(), 32);
        let left = feed(&Interval::open(root[15].clone(), root[16].clone()), 8);
        feed(&Interval::open(left[0].clone(), left[1].clone()), 8);
        let bytes = imp.to_snapshot_bytes();
        assert_eq!(mat.to_snapshot_bytes(), bytes);
        // Restoring materializes; every order query survives the trip.
        let back = StreamState::<GkSummary<Item>>::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(back.len(), imp.len());
        let mut probes = Vec::new();
        imp.for_each_arrival(&mut |it, tag| probes.push((it.clone(), tag)));
        for (it, tag) in &probes {
            assert_eq!(back.rank(it), imp.rank(it));
            assert_eq!(back.arrival_of(it), Some(*tag));
            assert_eq!(back.next(it), imp.next(it));
            assert_eq!(back.prev(it), imp.prev(it));
        }
    }

    #[test]
    fn refined_stream_restores_every_answer_and_re_encodes_identically() {
        // Runs minted between order-adjacent items, so in sorted order
        // the arrival tags jump wherever a later run landed and restore
        // rebuilds the stream from several stored runs per original run.
        let mut st = StreamState::new(GkSummary::<Item>::new(0.05));
        let mut feed = |iv: &Interval, n: usize| {
            let items = generate_increasing(iv, n);
            st.push_run_in(iv, &items);
            items
        };
        let root = feed(&Interval::whole(), 32);
        let mid = feed(&Interval::open(root[15].clone(), root[16].clone()), 8);
        feed(&Interval::open(mid[3].clone(), mid[4].clone()), 8);
        feed(&Interval::open(root[3].clone(), root[4].clone()), 4);
        feed(&Interval::above(root[31].clone()), 4);
        let mut pairs = Vec::new();
        st.for_each_arrival(&mut |it, tag| pairs.push((it.clone(), tag)));
        assert!(
            pairs.windows(2).any(|w| w[1].1 != w[0].1 + 1),
            "sorted arrival tags must be non-consecutive somewhere"
        );
        let bytes = st.to_snapshot_bytes();
        let back = StreamState::<GkSummary<Item>>::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(back.to_snapshot_bytes(), bytes);
        assert_eq!(
            (back.len(), back.min(), back.max()),
            (st.len(), st.min(), st.max())
        );
        // Every stream item, and a probe between each adjacent pair.
        let items: Vec<Item> = pairs.into_iter().map(|(it, _)| it).collect();
        let probes = items
            .windows(2)
            .map(|w| cqs_universe::between_items(&w[0], &w[1]));
        for q in items.iter().cloned().chain(probes) {
            assert_eq!(back.rank(&q), st.rank(&q));
            assert_eq!(back.next(&q), st.next(&q));
            assert_eq!(back.prev(&q), st.prev(&q));
            assert_eq!(back.arrival_of(&q), st.arrival_of(&q));
        }
    }

    #[test]
    fn tag_permutation_violations_are_rejected() {
        let mut st = StreamState::new(GkSummary::new(0.05));
        for it in generate_increasing(&Interval::whole(), 20) {
            st.push(it);
        }
        let mut pairs = Vec::new();
        st.for_each_arrival(&mut |it, tag| pairs.push((it.clone(), tag)));
        // Duplicate one tag.
        if let (Some(first), Some(slot)) = (pairs.first().map(|p| p.1), pairs.get_mut(1)) {
            slot.1 = first;
        }
        let summary = st.summary.clone();
        let err = match StreamState::from_snapshot_parts(summary, pairs) {
            Ok(_) => panic!("forged tags restored"),
            Err(e) => e,
        };
        assert!(err.contains("permutation"), "{err}");
    }
}
