//! [`SnapshotWrite`]/[`SnapshotRead`] for the four summary families.
//!
//! Section layout per family (see DESIGN.md §5.3):
//!
//! * GK / greedy-GK (`GKSM`/`GKGR`): `META` (eps, n, period) +
//!   `TUPL` (count, then per tuple: item, g, Δ);
//! * CKMS (`CKMS`): `META` (eps, n, bias, period) + `TUPL` as above;
//! * MRL (`MRLS`): `META` (eps, expected_n, n) + `BUFS` (buffer count,
//!   then per buffer: level, item count, items) + `STAG` (staging run)
//!   + `PRTY` (per-level collapse parities).
//!
//! Scratch buffers never travel; restore rebuilds them empty. All
//! structural validation lives in each summary's `from_snapshot_parts`,
//! so a forged payload that passes the CRC still cannot construct a
//! summary whose invariant is broken.

use crate::wire::{Decoder, SnapshotReader, SnapshotWriter};
use crate::{RestoreError, SnapshotItem, SnapshotRead, SnapshotWrite};
use cqs_core::ComparisonSummary;

use cqs_ckms::{Bias, CkmsSummary, CkmsTuple};
use cqs_gk::{GkSummary, GkTuple, GreedyGk};
use cqs_mrl::MrlSummary;

const META: [u8; 4] = *b"META";
const TUPL: [u8; 4] = *b"TUPL";
const BUFS: [u8; 4] = *b"BUFS";
const STAG: [u8; 4] = *b"STAG";
const PRTY: [u8; 4] = *b"PRTY";

fn malformed(section: [u8; 4], detail: String) -> RestoreError {
    RestoreError::Malformed {
        section: String::from_utf8_lossy(&section).into_owned(),
        detail,
    }
}

fn write_gk_tuples<T: SnapshotItem>(w: &mut SnapshotWriter, tuples: &[GkTuple<T>]) {
    w.section_with(TUPL, |e| {
        e.put_u64(tuples.len() as u64);
        for t in tuples {
            t.v.encode_item(e);
            e.put_u64(t.g);
            e.put_u64(t.delta);
        }
    });
}

fn read_gk_tuples<T: SnapshotItem>(d: &mut Decoder<'_>) -> Result<Vec<GkTuple<T>>, RestoreError> {
    // Each tuple is at least 1 (item) + 16 (g, Δ) bytes.
    let count = d.take_count(17)?;
    let mut tuples = Vec::with_capacity(count);
    for _ in 0..count {
        let v = T::decode_item(d)?;
        let g = d.take_u64()?;
        let delta = d.take_u64()?;
        tuples.push(GkTuple { v, g, delta });
    }
    Ok(tuples)
}

impl<T: SnapshotItem + Ord + Clone> SnapshotWrite for GkSummary<T> {
    const KIND: [u8; 4] = *b"GKSM";

    fn write_sections(&self, w: &mut SnapshotWriter) {
        let (tuples, n, eps, period) = self.snapshot_parts();
        w.section_with(META, |e| {
            e.put_f64(eps);
            e.put_u64(n);
            e.put_u64(period);
        });
        write_gk_tuples(w, &tuples);
    }
}

impl<T: SnapshotItem + Ord + Clone> SnapshotRead for GkSummary<T> {
    fn read_sections(r: &mut SnapshotReader<'_>) -> Result<Self, RestoreError> {
        let mut meta = r.section(META)?;
        let eps = meta.take_f64()?;
        let n = meta.take_u64()?;
        let period = meta.take_u64()?;
        meta.finish()?;
        let mut tupl = r.section(TUPL)?;
        let tuples = read_gk_tuples(&mut tupl)?;
        tupl.finish()?;
        GkSummary::from_snapshot_parts(tuples, n, eps, period).map_err(|e| malformed(TUPL, e))
    }
}

impl<T: SnapshotItem + Ord + Clone> SnapshotWrite for GreedyGk<T> {
    const KIND: [u8; 4] = *b"GKGR";

    fn write_sections(&self, w: &mut SnapshotWriter) {
        let (tuples, n, eps, period) = self.snapshot_parts();
        w.section_with(META, |e| {
            e.put_f64(eps);
            e.put_u64(n);
            e.put_u64(period);
        });
        write_gk_tuples(w, &tuples);
    }
}

impl<T: SnapshotItem + Ord + Clone> SnapshotRead for GreedyGk<T> {
    fn read_sections(r: &mut SnapshotReader<'_>) -> Result<Self, RestoreError> {
        let mut meta = r.section(META)?;
        let eps = meta.take_f64()?;
        let n = meta.take_u64()?;
        let period = meta.take_u64()?;
        meta.finish()?;
        let mut tupl = r.section(TUPL)?;
        let tuples = read_gk_tuples(&mut tupl)?;
        tupl.finish()?;
        GreedyGk::from_snapshot_parts(tuples, n, eps, period).map_err(|e| malformed(TUPL, e))
    }
}

impl<T: SnapshotItem + Ord + Clone> SnapshotWrite for CkmsSummary<T> {
    const KIND: [u8; 4] = *b"CKMS";

    fn write_sections(&self, w: &mut SnapshotWriter) {
        let (tuples, n, eps, bias, period) = self.snapshot_parts();
        w.section_with(META, |e| {
            e.put_f64(eps);
            e.put_u64(n);
            e.put_u8(match bias {
                Bias::Low => 0,
                Bias::High => 1,
            });
            e.put_u64(period);
        });
        w.section_with(TUPL, |e| {
            e.put_u64(tuples.len() as u64);
            for t in tuples {
                t.v.encode_item(e);
                e.put_u64(t.g);
                e.put_u64(t.delta);
            }
        });
    }
}

impl<T: SnapshotItem + Ord + Clone> SnapshotRead for CkmsSummary<T> {
    fn read_sections(r: &mut SnapshotReader<'_>) -> Result<Self, RestoreError> {
        let mut meta = r.section(META)?;
        let eps = meta.take_f64()?;
        let n = meta.take_u64()?;
        let bias = match meta.take_u8()? {
            0 => Bias::Low,
            1 => Bias::High,
            other => return Err(malformed(META, format!("invalid bias byte {other}"))),
        };
        let period = meta.take_u64()?;
        meta.finish()?;
        let mut tupl = r.section(TUPL)?;
        let count = tupl.take_count(17)?;
        let mut tuples = Vec::with_capacity(count);
        for _ in 0..count {
            let v = T::decode_item(&mut tupl)?;
            let g = tupl.take_u64()?;
            let delta = tupl.take_u64()?;
            tuples.push(CkmsTuple { v, g, delta });
        }
        tupl.finish()?;
        CkmsSummary::from_snapshot_parts(tuples, n, eps, bias, period)
            .map_err(|e| malformed(TUPL, e))
    }
}

impl<T: SnapshotItem + Ord + Clone> SnapshotWrite for MrlSummary<T> {
    const KIND: [u8; 4] = *b"MRLS";

    fn write_sections(&self, w: &mut SnapshotWriter) {
        let (buffers, staging, parity) = self.snapshot_parts();
        w.section_with(META, |e| {
            e.put_f64(self.eps());
            e.put_u64(self.expected_n());
            e.put_u64(self.items_processed());
        });
        w.section_with(BUFS, |e| {
            e.put_u64(buffers.len() as u64);
            for (level, items) in &buffers {
                e.put_u32(*level);
                e.put_u64(items.len() as u64);
                for it in *items {
                    it.encode_item(e);
                }
            }
        });
        w.section_with(STAG, |e| {
            e.put_u64(staging.len() as u64);
            for it in staging {
                it.encode_item(e);
            }
        });
        w.section_with(PRTY, |e| {
            e.put_u64(parity.len() as u64);
            for &p in parity {
                e.put_bool(p);
            }
        });
    }
}

impl<T: SnapshotItem + Ord + Clone> SnapshotRead for MrlSummary<T> {
    fn read_sections(r: &mut SnapshotReader<'_>) -> Result<Self, RestoreError> {
        let mut meta = r.section(META)?;
        let eps = meta.take_f64()?;
        let expected_n = meta.take_u64()?;
        let n = meta.take_u64()?;
        meta.finish()?;
        let mut bufs = r.section(BUFS)?;
        // Each buffer is at least 4 (level) + 8 (count) + 1 (item) bytes.
        let buf_count = bufs.take_count(13)?;
        let mut buffers = Vec::with_capacity(buf_count);
        for _ in 0..buf_count {
            let level = bufs.take_u32()?;
            let item_count = bufs.take_count(1)?;
            let mut items = Vec::with_capacity(item_count);
            for _ in 0..item_count {
                items.push(T::decode_item(&mut bufs)?);
            }
            buffers.push((level, items));
        }
        bufs.finish()?;
        let mut stag = r.section(STAG)?;
        let stag_count = stag.take_count(1)?;
        let mut staging = Vec::with_capacity(stag_count);
        for _ in 0..stag_count {
            staging.push(T::decode_item(&mut stag)?);
        }
        stag.finish()?;
        let mut prty = r.section(PRTY)?;
        let par_count = prty.take_count(1)?;
        let mut parity = Vec::with_capacity(par_count);
        for _ in 0..par_count {
            parity.push(prty.take_bool()?);
        }
        prty.finish()?;
        MrlSummary::from_snapshot_parts(eps, expected_n, n, buffers, staging, parity)
            .map_err(|e| malformed(BUFS, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqs_core::ComparisonSummary;

    fn shuffled(n: u64, seed: u64) -> Vec<u64> {
        let mut v: Vec<u64> = (1..=n).collect();
        let mut s = seed | 1;
        for i in (1..v.len()).rev() {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (s >> 33) as usize % (i + 1);
            v.swap(i, j);
        }
        v
    }

    #[test]
    fn gk_round_trip_preserves_answers() {
        let mut gk = GkSummary::new(0.01);
        for x in shuffled(20_000, 1) {
            gk.insert(x);
        }
        let bytes = gk.to_snapshot_bytes();
        let back = GkSummary::<u64>::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(back.items_processed(), gk.items_processed());
        assert_eq!(back.item_array(), gk.item_array());
        for r in (1..=20_000u64).step_by(997) {
            assert_eq!(back.query_rank(r), gk.query_rank(r));
        }
        // Restored summaries keep ingesting.
        let mut back = back;
        for x in 20_001..=21_000u64 {
            back.insert(x);
        }
        assert!(back.invariant_holds());
    }

    #[test]
    fn greedy_round_trip_preserves_answers() {
        let mut gk = GreedyGk::new(0.02);
        for x in shuffled(10_000, 2) {
            gk.insert(x);
        }
        let bytes = gk.to_snapshot_bytes();
        let back = GreedyGk::<u64>::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(back.item_array(), gk.item_array());
        for r in (1..=10_000u64).step_by(499) {
            assert_eq!(back.query_rank(r), gk.query_rank(r));
        }
    }

    #[test]
    fn mrl_round_trip_preserves_answers_and_parity() {
        let mut mrl = MrlSummary::new(0.02, 30_000);
        for x in shuffled(27_113, 3) {
            mrl.insert(x);
        }
        let bytes = mrl.to_snapshot_bytes();
        let back = MrlSummary::<u64>::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(back.total_weight(), mrl.total_weight());
        assert_eq!(back.item_array(), mrl.item_array());
        for r in (1..=27_113u64).step_by(1231) {
            assert_eq!(back.query_rank(r), mrl.query_rank(r));
        }
        // Parity round-trips: continuing both summaries identically
        // keeps them identical (collapse offsets agree).
        let mut live = mrl;
        let mut back = back;
        for x in 27_114..=30_000u64 {
            live.insert(x);
            back.insert(x);
        }
        assert_eq!(live.item_array(), back.item_array());
    }

    #[test]
    fn ckms_round_trip_both_biases() {
        for bias in [Bias::Low, Bias::High] {
            let mut ck = CkmsSummary::with_bias(0.02, bias);
            for x in shuffled(8_000, 4) {
                ck.insert(x);
            }
            let bytes = ck.to_snapshot_bytes();
            let back = CkmsSummary::<u64>::from_snapshot_bytes(&bytes).unwrap();
            assert_eq!(back.bias(), bias);
            assert_eq!(back.item_array(), ck.item_array());
            for r in (1..=8_000u64).step_by(389) {
                assert_eq!(back.query_rank(r), ck.query_rank(r));
            }
        }
    }

    #[test]
    fn forged_mass_is_rejected_despite_valid_crc() {
        let mut gk = GkSummary::new(0.05);
        for x in 1..=100u64 {
            gk.insert(x);
        }
        let (tuples, _, eps, period) = gk.snapshot_parts();
        // Re-encode with a lying stream length: framing is pristine,
        // structural validation must still refuse.
        let mut w = crate::SnapshotWriter::new(<GkSummary<u64> as SnapshotWrite>::KIND);
        w.section_with(META, |e| {
            e.put_f64(eps);
            e.put_u64(999); // n != Σg
            e.put_u64(period);
        });
        write_gk_tuples(&mut w, &tuples);
        let err = GkSummary::<u64>::from_snapshot_bytes(&w.into_bytes()).unwrap_err();
        assert!(matches!(err, RestoreError::Malformed { .. }), "{err}");
    }

    #[test]
    fn empty_summaries_round_trip() {
        let gk: GkSummary<u64> = GkSummary::new(0.1);
        let back = GkSummary::<u64>::from_snapshot_bytes(&gk.to_snapshot_bytes()).unwrap();
        assert_eq!(back.items_processed(), 0);
        let mrl: MrlSummary<u64> = MrlSummary::new(0.1, 100);
        let back = MrlSummary::<u64>::from_snapshot_bytes(&mrl.to_snapshot_bytes()).unwrap();
        assert_eq!(back.stored_count(), 0);
    }
}
