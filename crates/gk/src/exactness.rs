//! Exactness of the arrival-order fresh buffer and of the one-pass
//! merge, against the code they replaced.
//!
//! The oracle is the shift-per-insert body GK used before per-item
//! inserts were buffered: a binary search plus `Vec::insert` per item,
//! COMPRESS every period. Every reader, snapshot part and merge of a
//! summary with items pending must see exactly the oracle's list. The
//! fold oracle is the four-vector widened-bounds merge. Every loop draws
//! from a fixed-seed SplitMix64, so a failure replays exactly. (The inner `cfg(test)` module keeps the
//! lint's item scan, which reads files one by one, from taking this
//! test code for library code.)

#[cfg(test)]
mod tests {
    use std::borrow::Cow;

    use cqs_core::rng::SplitMix64;
    use cqs_core::{ComparisonSummary, RankEstimator};

    use crate::tuple::{default_period, GkTuple, TupleList};
    use cqs_core::MaxSpaceTracker;

    use crate::{greedy, summary, CappedGk, GkSummary, GreedyGk};

    /// A COMPRESS over a tuple vector at a threshold.
    type Compress = Box<dyn FnMut(&mut Vec<GkTuple<u64>>, u64)>;

    /// The sequential reference list.
    struct Oracle {
        tuples: Vec<GkTuple<u64>>,
        n: u64,
        eps: f64,
        period: u64,
        compress: Compress,
    }

    impl Oracle {
        fn new(eps: f64, compress: Compress) -> Self {
            Oracle {
                tuples: Vec::new(),
                n: 0,
                eps,
                period: default_period(eps),
                compress,
            }
        }

        fn threshold(&self) -> u64 {
            (2.0 * self.eps * self.n as f64).floor() as u64
        }

        /// The unbuffered insert: shift the tuple vector per item.
        fn insert(&mut self, item: u64) {
            let pos = self.tuples.partition_point(|t| t.v < item);
            let thr = self.threshold();
            let delta = if pos == 0 || pos == self.tuples.len() || thr < 1 {
                0
            } else {
                thr.saturating_sub(1)
            };
            self.tuples.insert(
                pos,
                GkTuple {
                    v: item,
                    g: 1,
                    delta,
                },
            );
            self.n += 1;
            if self.n.is_multiple_of(self.period) {
                let thr = self.threshold();
                (self.compress)(&mut self.tuples, thr);
            }
        }

        /// The oracle's list behind the slice-path readers.
        fn list(&self) -> TupleList<u64> {
            TupleList::from_parts(self.tuples.clone(), self.n, self.eps, self.period)
                .expect("the oracle keeps the GK invariant")
        }
    }

    /// The four-vector merge the one-pass merge replaced: prefix bounds per
    /// side, a `(v, r_min, r_max)` staging vector, then the result.
    fn merge_tuple_lists(
        a: &[GkTuple<u64>],
        b: &[GkTuple<u64>],
        na: u64,
        nb: u64,
    ) -> Vec<GkTuple<u64>> {
        let bounds = |ts: &[GkTuple<u64>]| -> Vec<(u64, u64)> {
            let mut r_min = 0u64;
            ts.iter()
                .map(|t| {
                    r_min += t.g;
                    (r_min, r_min + t.delta)
                })
                .collect()
        };
        let (ba, bb) = (bounds(a), bounds(b));
        let mut merged: Vec<(u64, u64, u64)> = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() || j < b.len() {
            let take_a = match (a.get(i), b.get(j)) {
                (Some(x), Some(y)) => x.v <= y.v,
                (Some(_), None) => true,
                (None, _) => false,
            };
            let (v, own, other_bounds, other_n, pos) = if take_a {
                (a[i].v, ba[i], &bb, nb, j)
            } else {
                (b[j].v, bb[j], &ba, na, i)
            };
            let pred_min = if pos == 0 { 0 } else { other_bounds[pos - 1].0 };
            let succ_max = match other_bounds.get(pos) {
                Some(s) => s.1.saturating_sub(1),
                None => other_n,
            };
            let r_min = own.0 + pred_min;
            merged.push((v, r_min, (own.1 + succ_max).max(r_min)));
            if take_a {
                i += 1;
            } else {
                j += 1;
            }
        }
        let mut prev_min = 0u64;
        merged
            .into_iter()
            .map(|(v, r_min, r_max)| {
                let r_min = r_min.max(prev_min);
                let g = r_min - prev_min;
                prev_min = r_min;
                GkTuple {
                    v,
                    g,
                    delta: r_max.saturating_sub(r_min),
                }
            })
            .collect()
    }

    fn triples(ts: &[GkTuple<u64>]) -> Vec<(u64, u64, u64)> {
        ts.iter().map(|t| (t.v, t.g, t.delta)).collect()
    }

    /// The two ε-correct variants, seen the same way by the loops below.
    trait Variant: ComparisonSummary<u64> + RankEstimator<u64> + Clone {
        fn make(eps: f64) -> Self;
        fn parts(&self) -> (Cow<'_, [GkTuple<u64>]>, u64, f64, u64);
        fn merge_in(&mut self, other: &Self);
        fn restore(parts: (Vec<GkTuple<u64>>, u64, f64, u64)) -> Self;
        fn oracle(eps: f64) -> Oracle;
    }

    impl Variant for GkSummary<u64> {
        fn make(eps: f64) -> Self {
            GkSummary::new(eps)
        }
        fn parts(&self) -> (Cow<'_, [GkTuple<u64>]>, u64, f64, u64) {
            self.snapshot_parts()
        }
        fn merge_in(&mut self, other: &Self) {
            self.merge(other)
        }
        fn restore((ts, n, eps, period): (Vec<GkTuple<u64>>, u64, f64, u64)) -> Self {
            GkSummary::from_snapshot_parts(ts, n, eps, period).expect("valid parts")
        }
        fn oracle(eps: f64) -> Oracle {
            let mut bands = summary::Bands::default();
            Oracle::new(eps, Box::new(move |ts, thr| bands.compress(ts, thr)))
        }
    }

    impl Variant for GreedyGk<u64> {
        fn make(eps: f64) -> Self {
            GreedyGk::new(eps)
        }
        fn parts(&self) -> (Cow<'_, [GkTuple<u64>]>, u64, f64, u64) {
            self.snapshot_parts()
        }
        fn merge_in(&mut self, other: &Self) {
            self.merge(other)
        }
        fn restore((ts, n, eps, period): (Vec<GkTuple<u64>>, u64, f64, u64)) -> Self {
            GreedyGk::from_snapshot_parts(ts, n, eps, period).expect("valid parts")
        }
        fn oracle(eps: f64) -> Oracle {
            Oracle::new(eps, Box::new(greedy::compress))
        }
    }

    /// Stream shapes: shuffled, sorted, reverse, sawtooth, duplicate-heavy,
    /// and streams whose duplicates keep landing on the buffer's running
    /// minimum and maximum (shuffled mod 3, constant).
    fn streams(n: u64, rng: &mut SplitMix64) -> Vec<(&'static str, Vec<u64>)> {
        let mut shuffled: Vec<u64> = (1..=n).collect();
        rng.shuffle(&mut shuffled);
        let mod3 = shuffled.iter().map(|x| x % 3).collect();
        vec![
            ("shuffled", shuffled),
            ("sorted", (1..=n).collect()),
            ("reverse", (1..=n).rev().collect()),
            ("sawtooth", (0..n).map(|i| (i % 97) * 64 + i / 97).collect()),
            ("duplicates", (0..n).map(|_| rng.below(16)).collect()),
            ("mod 3", mod3),
            ("constant", vec![42; n as usize]),
        ]
    }

    /// Probe values around and between the stream's values.
    fn probes(xs: &[u64]) -> Vec<u64> {
        let mut ps: Vec<u64> = xs.iter().step_by(xs.len() / 7 + 1).copied().collect();
        ps.extend([0, 1, u64::MAX]);
        ps.extend(xs.iter().step_by(xs.len() / 5 + 1).map(|x| x + 1));
        ps
    }

    /// Every reader of `s` agrees with the same reader over the oracle's
    /// list, which has nothing pending.
    fn assert_readers_match<S: Variant>(s: &S, oracle: &Oracle, ps: &[u64], label: &str) {
        let reference = oracle.list();
        let (parts, n, eps, period) = s.parts();
        assert_eq!(triples(&parts), triples(&oracle.tuples), "{label}: parts");
        assert_eq!(
            (n, eps, period),
            (oracle.n, oracle.eps, oracle.period),
            "{label}"
        );
        assert_eq!(s.item_array(), reference.item_array(), "{label}: items");
        let mut visited = Vec::new();
        s.for_each_item(&mut |&v| visited.push(v));
        assert_eq!(visited, reference.item_array(), "{label}: for_each_item");
        for r in (0..=oracle.n + 1).step_by(oracle.n as usize / 11 + 1) {
            assert_eq!(
                s.query_rank(r),
                reference.query_rank_walking_every_tuple(r),
                "{label}: rank {r}"
            );
        }
        for q in ps {
            assert_eq!(
                s.estimate_rank(q),
                reference.estimate_rank(q),
                "{label}: estimate {q}"
            );
        }
        for lo in ps.iter().step_by(3).map(Some).chain([None]) {
            for hi in ps.iter().step_by(2).map(Some).chain([None]) {
                let (mut got, mut want) = (Vec::new(), Vec::new());
                s.for_each_item_between(lo, hi, &mut |&v| got.push(v));
                reference.for_each_item_between(lo, hi, &mut |&v| want.push(v));
                assert_eq!(got, want, "{label}: between {lo:?}..{hi:?}");
            }
        }
        assert!(reference.invariant_holds(), "{label}: oracle invariant");
    }

    /// Drives summary and oracle side by side through `xs`: the logical
    /// list and the stored count after every insert, every reader every
    /// few inserts.
    fn drive<S: Variant>(s: &mut S, oracle: &mut Oracle, xs: &[u64], label: &str) {
        let ps = probes(xs);
        for (i, &x) in xs.iter().enumerate() {
            s.insert(x);
            oracle.insert(x);
            let (parts, ..) = s.parts();
            assert_eq!(triples(&parts), triples(&oracle.tuples), "{label} @ {i}");
            assert_eq!(s.stored_count(), oracle.tuples.len(), "{label} @ {i}");
            if i % 37 == 0 || i + 1 == xs.len() {
                assert_readers_match(s, oracle, &ps, &format!("{label} @ {i}"));
            }
        }
    }

    /// ε = 0.0002 (period 2500) also flushes when the buffer is full.
    fn fresh_run_matches_oracle<S: Variant>(name: &str) {
        let mut rng = SplitMix64::new(0xf5e5);
        for eps in [0.1, 0.02, 0.001, 0.0002] {
            for (shape, xs) in streams(1500, &mut rng) {
                let label = format!("{name}/{shape}/eps {eps}");
                drive(&mut S::make(eps), &mut S::oracle(eps), &xs, &label);
            }
        }
    }

    #[test]
    fn banded_fresh_run_matches_shift_insert_oracle() {
        fresh_run_matches_oracle::<GkSummary<u64>>("gk");
    }

    #[test]
    fn greedy_fresh_run_matches_shift_insert_oracle() {
        fresh_run_matches_oracle::<GreedyGk<u64>>("gk-greedy");
    }

    /// Every reader after every insert of the first two compress periods,
    /// so each one sees the buffer at every fill level, and a snapshot
    /// restored mid-buffer goes on exactly like the summary it came from.
    fn reads_after_every_insert<S: Variant>(name: &str) {
        let mut rng = SplitMix64::new(0x9ead);
        for eps in [0.1, 0.02, 0.004] {
            let period = default_period(eps);
            for (shape, xs) in streams(2 * period + period / 2, &mut rng) {
                let (head, tail) = xs.split_at(2 * period as usize);
                let label = format!("{name}/{shape}/eps {eps}");
                let ps = probes(&xs);
                let (mut s, mut oracle) = (S::make(eps), S::oracle(eps));
                for (i, &x) in head.iter().enumerate() {
                    s.insert(x);
                    oracle.insert(x);
                    assert_readers_match(&s, &oracle, &ps, &format!("{label} @ {i}"));
                }
                let parts = s.parts();
                let mut restored = S::restore((parts.0.into_owned(), parts.1, parts.2, parts.3));
                drive(
                    &mut restored,
                    &mut oracle,
                    tail,
                    &format!("{label}/restored"),
                );
            }
        }
    }

    #[test]
    fn reads_after_every_insert_match_oracle() {
        reads_after_every_insert::<GkSummary<u64>>("gk");
        reads_after_every_insert::<GreedyGk<u64>>("gk-greedy");
    }

    /// A clone carries the pending run and continues exactly.
    fn clone_continues<S: Variant>(name: &str) {
        let mut rng = SplitMix64::new(0xc10e);
        for eps in [0.02, 0.001] {
            let xs: Vec<u64> = (0..1200).map(|_| rng.below(1 << 20)).collect();
            let (head, tail) = xs.split_at(777);
            let mut s = S::make(eps);
            let mut oracle = S::oracle(eps);
            drive(&mut s, &mut oracle, head, &format!("{name}/clone head"));
            let mut copy = s.clone();
            drive(&mut copy, &mut oracle, tail, &format!("{name}/clone tail"));
        }
    }

    #[test]
    fn clones_carry_the_fresh_run() {
        clone_continues::<GkSummary<u64>>("gk");
        clone_continues::<GreedyGk<u64>>("gk-greedy");
    }

    /// A sorted run after per-item inserts splices the pending run first.
    fn sorted_run_after_items<S: Variant>(name: &str) {
        let mut rng = SplitMix64::new(0x5027);
        for eps in [0.1, 0.02, 0.001] {
            let mut s = S::make(eps);
            let mut oracle = S::oracle(eps);
            for round in 0..12 {
                let items: Vec<u64> = (0..rng.below(90)).map(|_| rng.below(5000)).collect();
                drive(
                    &mut s,
                    &mut oracle,
                    &items,
                    &format!("{name}/items {round}"),
                );
                let mut run: Vec<u64> = (0..rng.below(700)).map(|_| rng.below(5000)).collect();
                run.sort_unstable();
                s.insert_sorted_run(&run);
                run.iter().for_each(|&x| oracle.insert(x));
                let label = format!("{name}/eps {eps}/run {round}");
                assert_readers_match(&s, &oracle, &probes(&run), &label);
            }
        }
    }

    #[test]
    fn sorted_runs_after_per_item_inserts_match_oracle() {
        sorted_run_after_items::<GkSummary<u64>>("gk");
        sorted_run_after_items::<GreedyGk<u64>>("gk-greedy");
    }

    /// Merges with a pending run on either side equal the fold oracle over
    /// the two oracle lists, followed by the variant's COMPRESS.
    fn merge_with_pending_runs<S: Variant>(name: &str) {
        let mut rng = SplitMix64::new(0x3e26);
        // (|a|, |b|, value range): shared small values put duplicates
        // across the sides, and three values put them at both ends of
        // both buffers.
        let cases = [
            (1203, 777, 3000),
            (1000, 1013, 3000),
            (0, 500, 3000),
            (640, 0, 3000),
            (9, 3, 3000),
            (1203, 777, 3),
        ];
        for eps in [0.02, 0.001] {
            for (a_len, b_len, range) in cases {
                let draw = |rng: &mut SplitMix64, len: u64| -> Vec<u64> {
                    (0..len).map(|_| rng.below(range)).collect()
                };
                let (xa, xb) = (draw(&mut rng, a_len), draw(&mut rng, b_len));
                let (mut a, mut b) = (S::make(eps), S::make(eps));
                let (mut oa, mut ob) = (S::oracle(eps), S::oracle(eps));
                drive(&mut a, &mut oa, &xa, &format!("{name}/a"));
                drive(&mut b, &mut ob, &xb, &format!("{name}/b"));
                a.merge_in(&b);
                // Old semantics: an empty side is skipped or adopted as is.
                let mut want = S::oracle(2.0 * eps);
                want.n = oa.n + ob.n;
                want.tuples = match (oa.tuples.is_empty(), ob.tuples.is_empty()) {
                    (_, true) => oa.tuples,
                    (true, false) => ob.tuples,
                    (false, false) => {
                        let mut ts = merge_tuple_lists(&oa.tuples, &ob.tuples, oa.n, ob.n);
                        let thr = want.threshold();
                        (want.compress)(&mut ts, thr);
                        ts
                    }
                };
                if b_len == 0 {
                    want.eps = eps;
                    want.period = default_period(eps);
                }
                let label = format!("{name}/merge {a_len}+{b_len} below {range}/eps {eps}");
                assert_readers_match(&a, &want, &probes(&xa), &label);
            }
        }
    }

    #[test]
    fn merges_with_pending_runs_match_fold_oracle() {
        merge_with_pending_runs::<GkSummary<u64>>("gk");
        merge_with_pending_runs::<GreedyGk<u64>>("gk-greedy");
    }

    /// The one-pass merge (COMPRESS left out) emits exactly the fold
    /// oracle's tuples on shard pairs with duplicates across the two sides.
    #[test]
    fn one_pass_merge_matches_four_vector_merge() {
        let mut rng = SplitMix64::new(0x1b0f);
        for case in 0..40 {
            let eps = [0.1, 0.02, 0.001][case % 3];
            let mut sides = Vec::new();
            for _ in 0..2 {
                let mut s = GkSummary::new(eps);
                let (len, max) = (1 + rng.below(3000), 1 + rng.below(2000));
                for _ in 0..len {
                    s.insert(rng.below(max));
                }
                let (ts, n, ..) = s.snapshot_parts();
                sides.push((ts.into_owned(), n));
            }
            let [(ta, na), (tb, nb)] = [sides[0].clone(), sides[1].clone()];
            let want = merge_tuple_lists(&ta, &tb, na, nb);
            let mut a = TupleList::from_parts(ta, na, eps, default_period(eps)).expect("a");
            let b = TupleList::from_parts(tb, nb, eps, default_period(eps)).expect("b");
            a.merge(&b, |_, _| {});
            assert_eq!(triples(&a.tuples()), triples(&want), "case {case}");
            assert_eq!(a.n, na + nb);
        }
    }

    /// Both merge branches adopt the composed ε *and* its compress period:
    /// an empty `self` used to keep the period of its own ε.
    #[test]
    fn merge_recomputes_the_compress_period_in_both_branches() {
        fn check<S: Variant>(name: &str) {
            for into_empty in [true, false] {
                let (mut a, mut b) = (S::make(0.01), S::make(0.01));
                for x in 0..100u64 {
                    b.insert(x);
                    if !into_empty {
                        a.insert(x + 1000);
                    }
                }
                a.merge_in(&b);
                let (_, _, eps, period) = a.parts();
                assert_eq!(period, (1.0 / (2.0 * eps)).floor() as u64, "{name}");
                assert_eq!(period, 25, "{name}: into_empty {into_empty}");
            }
        }
        check::<GkSummary<u64>>("gk");
        check::<GreedyGk<u64>>("gk-greedy");
    }

    /// `CappedGk` re-enforces its budget after every item, splicing the
    /// pending run before each escalated compress.
    #[test]
    fn capped_fresh_run_matches_oracle() {
        let mut rng = SplitMix64::new(0xca9);
        for budget in [4usize, 16] {
            for (shape, xs) in streams(1500, &mut rng) {
                let mut s = CappedGk::new(0.01, budget);
                let mut oracle = GreedyGk::<u64>::oracle(0.01);
                for (i, &x) in xs.iter().enumerate() {
                    s.insert(x);
                    oracle.insert(x);
                    let mut cap = (oracle.n / budget as u64).max(2);
                    while oracle.tuples.len() > budget {
                        greedy::compress(&mut oracle.tuples, cap);
                        cap = cap.saturating_mul(2);
                    }
                    let label = format!("capped {budget}/{shape} @ {i}");
                    assert_eq!(triples(&s.tuples()), triples(&oracle.tuples), "{label}");
                    assert_eq!(s.stored_count(), oracle.tuples.len(), "{label}");
                    let want: Vec<u64> = oracle.tuples.iter().map(|t| t.v).collect();
                    assert_eq!(s.item_array(), want, "{label}");
                }
            }
        }
    }

    /// φ grids: the export grid, the ends, repeats, one φ, none, φ out
    /// of range or NaN (target rank 1 or n), unsorted grids, and fine
    /// grids at and past the one-walk limit of 32 targets.
    fn grids() -> Vec<Vec<f64>> {
        let fine = |k: u32| (0..k).map(|i| f64::from(i) / f64::from(k - 1)).collect();
        vec![
            vec![
                0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 0.999,
            ],
            vec![0.0, 1.0],
            vec![0.0, 0.0, 0.5, 0.5, 1.0, 1.0],
            vec![0.5],
            vec![],
            vec![-1.0, f64::NAN, 2.0],
            vec![0.9, 0.1, 0.5],
            vec![1.0, 0.0],
            fine(32),
            fine(33),
        ]
    }

    /// `quantiles` answers every grid as per-φ `quantile` does, and
    /// replaces what `out` held.
    fn assert_grids_match<S: ComparisonSummary<u64>>(s: &S, label: &str) {
        let mut out = vec![Some(u64::MAX)];
        for phis in grids() {
            s.quantiles(&phis, &mut out);
            let want: Vec<Option<u64>> = phis.iter().map(|&phi| s.quantile(phi)).collect();
            assert_eq!(out, want, "{label}: grid {phis:?}");
        }
    }

    /// Grid reads after every insert of short streams (n below the grid
    /// lengths included) and every few inserts of longer ones, so with
    /// every fill level of the pending buffer, then on a restored copy.
    fn grid_reads<S: ComparisonSummary<u64>>(make: impl Fn(f64) -> S, name: &str) {
        let mut rng = SplitMix64::new(0x9e1d);
        for eps in [0.1, 0.01] {
            assert_grids_match(&make(eps), &format!("{name}/empty"));
            for n in [5, 40, 1500] {
                for (shape, xs) in streams(n, &mut rng) {
                    let mut s = make(eps);
                    for (i, &x) in xs.iter().enumerate() {
                        s.insert(x);
                        if n <= 40 || i % 37 == 0 {
                            assert_grids_match(&s, &format!("{name}/{shape}/eps {eps} @ {i}"));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn grid_reads_match_per_phi_reads() {
        grid_reads(GkSummary::new, "gk");
        grid_reads(GreedyGk::new, "gk-greedy");
        grid_reads(|eps| CappedGk::new(eps, 16), "gk-capped 16");
        grid_reads(
            |eps| MaxSpaceTracker::new(GkSummary::new(eps)),
            "tracked gk",
        );
    }

    /// Restored snapshots, taken with inserts pending, answer grids as
    /// the summary they came from does.
    fn restored_grid_reads<S: Variant>(name: &str) {
        let mut rng = SplitMix64::new(0x5e57);
        for eps in [0.1, 0.004] {
            for (shape, xs) in streams(777, &mut rng) {
                let mut s = S::make(eps);
                xs.iter().for_each(|&x| s.insert(x));
                let parts = s.parts();
                let restored = S::restore((parts.0.into_owned(), parts.1, parts.2, parts.3));
                let label = format!("{name}/{shape}/eps {eps}/restored");
                assert_grids_match(&restored, &label);
                let (mut a, mut b) = (Vec::new(), Vec::new());
                for phis in grids() {
                    s.quantiles(&phis, &mut a);
                    restored.quantiles(&phis, &mut b);
                    assert_eq!(a, b, "{label}: grid {phis:?}");
                }
            }
        }
    }

    #[test]
    fn restored_snapshots_answer_grids_alike() {
        restored_grid_reads::<GkSummary<u64>>("gk");
        restored_grid_reads::<GreedyGk<u64>>("gk-greedy");
    }

    /// Folds of 2–8 shards, fed duplicate-heavy draws with inserts left
    /// pending on every shard, answer grids as per-φ reads do, and rank
    /// reads as the full walk does. Each fold is taken twice: by the
    /// variant's merge, and by list merges with COMPRESS left out, into
    /// which tuples with g = 0 are then spliced (a merge of shard lists
    /// never makes one, since each side's g ≥ 1 makes r_min rise, but a
    /// snapshot may hold them): a copy with g = 0 and a random Δ beside
    /// every third tuple, so r_min stalls before and after a tuple.
    fn fold_grid_reads<S: Variant>(name: &str) {
        let mut rng = SplitMix64::new(0xf01d);
        for eps in [0.02, 0.005] {
            for shards in 2..=8 {
                for range in [3, 40, 5000] {
                    let mut fold: Option<S> = None;
                    let mut raw: Option<TupleList<u64>> = None;
                    for _ in 0..shards {
                        let mut s = S::make(eps);
                        for _ in 0..(50 + rng.below(400)) {
                            s.insert(rng.below(range));
                        }
                        let (ts, n, e, period) = s.parts();
                        let list = TupleList::from_parts(ts.into_owned(), n, e, period)
                            .expect("valid parts");
                        match raw.as_mut() {
                            None => raw = Some(list),
                            Some(r) => r.merge(&list, |_, _| {}),
                        }
                        match fold.as_mut() {
                            None => fold = Some(s),
                            Some(f) => f.merge_in(&s),
                        }
                    }
                    let (Some(fold), Some(raw)) = (fold, raw) else {
                        continue;
                    };
                    let label = format!("{name}/{shards} shards below {range}/eps {eps}");
                    let (ts, n, e, period) = raw.snapshot_parts();
                    let cap = ((2.0 * e * n as f64).floor() as u64).max(1);
                    let mut stalled = Vec::new();
                    for (i, t) in ts.iter().enumerate() {
                        let zero = GkTuple {
                            v: t.v,
                            g: 0,
                            delta: rng.below(cap + 1),
                        };
                        match i % 3 {
                            1 => stalled.extend([t.clone(), zero]),
                            2 => stalled.extend([zero, t.clone()]),
                            _ => stalled.push(t.clone()),
                        }
                    }
                    let uncompressed = S::restore((stalled, n, e, period));
                    for (s, how) in [(&fold, "merged"), (&uncompressed, "with g = 0")] {
                        assert_grids_match(s, &format!("{label}/{how}"));
                        let (ts, n, e, period) = s.parts();
                        let list = TupleList::from_parts(ts.into_owned(), n, e, period)
                            .expect("a fold keeps the invariant");
                        let ranks = (0..=n + 1).step_by(n as usize / 97 + 1);
                        for r in ranks.chain([n, n + 1]) {
                            assert_eq!(
                                s.query_rank(r),
                                list.query_rank_walking_every_tuple(r),
                                "{label}/{how}: rank {r}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fold_grid_reads_match_per_phi_reads() {
        fold_grid_reads::<GkSummary<u64>>("gk");
        fold_grid_reads::<GreedyGk<u64>>("gk-greedy");
    }
}
