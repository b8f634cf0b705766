//! The GK tuple `(v, g, Δ)` and [`TupleList`], the core both GK variants
//! hold: inserts, readers, snapshot parts and merge. The variants differ
//! only in COMPRESS, which they pass in as a closure.
//!
//! A per-item insert compares nothing. It appends the item to a *fresh
//! buffer* in arrival order, with Δ = ⌊2εn⌋ − 1 (0 in the grace period)
//! and its arrival index in `g`, since a fresh tuple's `g` is always 1.
//! The buffer is flushed at every compress boundary, before a sorted-run
//! insert, a merge or a budget COMPRESS, and when it holds `FRESH_CAP`
//! items. A flush sorts it once by value, newest first among equals (the
//! order sequential inserts leave equal items in), settles it, and splices
//! it into the tuples.
//!
//! This is exact. An item's Δ depends only on whether it landed first or
//! last in the list at arrival, and the tuples do not change between an
//! arrival and its flush. In the sorted buffer an item landed first iff
//! its arrival index is below every index sorted before it (a prefix
//! minimum) and it is at most the first tuple; it landed last iff its
//! index is below every index sorted after it (a suffix minimum) and it
//! is above the last tuple. Settling reads arrival indices, and compares
//! only those record items with the list's ends. The *logical* list (the
//! tuples merged with the settled buffer, fresh first among equals) is
//! then after every insert the list that a binary search plus
//! `Vec::insert` per item builds, and it is what every reader sees: with
//! items pending, a reader sorts and settles references to them first.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::ops::ControlFlow;

use cqs_core::MergeError;

/// Per-item inserts held in the fresh buffer before one flush; also the
/// largest piece of a sorted run staged at once.
const FRESH_CAP: usize = 1024;

/// The longest φ grid a batched read answers in one walk; a longer one
/// is read per φ.
const MAX_TARGETS: usize = 32;

/// A read's answer to one rank target: the item, and its deviation
/// max(|r_min − r|, |r_max − r|) from the target.
type Nearest<'a, T> = Option<(&'a T, u64)>;

/// One stored tuple of a GK-family summary.
///
/// * `v` — a stored stream item;
/// * `g` — `r_min(v_i) − r_min(v_{i−1})`: the rank mass this tuple is
///   responsible for;
/// * `delta` — `r_max(v_i) − r_min(v_i)`: the uncertainty in v's rank.
#[derive(Clone, Debug)]
pub struct GkTuple<T> {
    /// The stored item.
    pub v: T,
    /// Rank mass since the previous tuple.
    pub g: u64,
    /// Rank uncertainty of this tuple.
    pub delta: u64,
}

/// The canonical compress period ⌊1/(2ε)⌋, at least 1.
pub(crate) fn default_period(eps: f64) -> u64 {
    (1.0 / (2.0 * eps)).floor().max(1.0) as u64
}

/// The number of leading tuples of `ts` below `x`, by galloping: probes
/// at 0, 2, 6, 14, … then a binary search, so near answers cost little.
fn gallop<T: Ord>(ts: &[GkTuple<T>], x: &T) -> usize {
    let (mut lo, mut hi) = (0, 0);
    while ts.get(hi).is_some_and(|t| t.v < *x) {
        lo = hi + 1;
        hi = 2 * hi + 2;
    }
    // Everything before `lo` is below x; `ts[hi]`, if any, is not.
    hi = hi.min(ts.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if ts.get(mid).is_some_and(|t| t.v < *x) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// A fresh tuple: Δ = ⌊2εn⌋ − 1 at threshold `thr`, or 0 where its rank
/// is exact.
fn arrival<T>(v: T, thr: u64, exact: bool) -> GkTuple<T> {
    let delta = if exact { 0 } else { thr - 1 };
    GkTuple { v, g: 1, delta }
}

/// The order of a flushed buffer: by value, and among equal values by
/// arrival index (in `g`) descending, newest first.
fn newest_first<U: Ord>(a: &GkTuple<U>, b: &GkTuple<U>) -> Ordering {
    a.v.cmp(&b.v).then_with(|| b.g.cmp(&a.g))
}

/// Settles a buffer sorted by [`newest_first`]: an item that landed
/// first or last in the list at arrival gets Δ = 0, and each `g` goes
/// back to 1. `first` and `last` are the end values of the tuples.
fn settle<U: Ord>(run: &mut [GkTuple<U>], first: Option<&U>, last: Option<&U>) {
    // Landed first: no earlier arrival sorts before it.
    let mut min = u64::MAX;
    for t in run.iter_mut() {
        if t.g < min {
            min = t.g;
            if t.delta > 0 && first.is_none_or(|f| t.v <= *f) {
                t.delta = 0;
            }
        }
    }
    // Landed last: no earlier arrival sorts after it.
    let mut min = u64::MAX;
    for t in run.iter_mut().rev() {
        if t.g < min {
            min = t.g;
            if t.delta > 0 && last.is_none_or(|l| *l < t.v) {
                t.delta = 0;
            }
        }
        t.g = 1;
    }
}

/// A tuple borrowed as readers see it.
fn view<T>(t: &GkTuple<T>) -> GkTuple<&T> {
    GkTuple {
        v: &t.v,
        g: t.g,
        delta: t.delta,
    }
}

/// A borrowed tuple cloned back into an owned one.
fn owned<T: Clone>(t: GkTuple<&T>) -> GkTuple<T> {
    GkTuple {
        v: t.v.clone(),
        g: t.g,
        delta: t.delta,
    }
}

/// The logical list in order: each settled fresh tuple before the
/// spliced tuples equal to it.
struct Merged<'a, 'b, T> {
    tuples: &'a [GkTuple<T>],
    fresh: &'b [GkTuple<&'a T>],
    /// Spliced tuples still to emit before `fresh[0]`.
    before: usize,
}

impl<'a, 'b, T: Ord> Merged<'a, 'b, T> {
    fn new(tuples: &'a [GkTuple<T>], fresh: &'b [GkTuple<&'a T>]) -> Self {
        let before = Self::cut(tuples, fresh);
        Merged {
            tuples,
            fresh,
            before,
        }
    }

    fn cut(tuples: &[GkTuple<T>], fresh: &[GkTuple<&T>]) -> usize {
        fresh.first().map_or(tuples.len(), |f| gallop(tuples, f.v))
    }
}

impl<'a, T: Ord> Iterator for Merged<'a, '_, T> {
    type Item = GkTuple<&'a T>;

    fn next(&mut self) -> Option<GkTuple<&'a T>> {
        if self.before == 0 {
            if let Some((f, rest)) = self.fresh.split_first() {
                self.fresh = rest;
                self.before = Self::cut(self.tuples, rest);
                return Some(GkTuple {
                    v: f.v,
                    g: f.g,
                    delta: f.delta,
                });
            }
        }
        let (t, rest) = self.tuples.split_first()?;
        self.tuples = rest;
        self.before = self.before.saturating_sub(1);
        Some(view(t))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = self.tuples.len() + self.fresh.len();
        (len, Some(len))
    }
}

/// The state both GK variants share.
#[derive(Clone, Debug)]
pub(crate) struct TupleList<T> {
    /// Spliced tuples, sorted by value.
    tuples: Vec<GkTuple<T>>,
    /// Pending per-item inserts in arrival order, each with its arrival
    /// index in `g` and the Δ it has if it landed inside the list.
    /// Flushes and merges also build their output in it, past the
    /// pending items, so a summary carries one buffer (the adversary
    /// builds many).
    fresh: Vec<GkTuple<T>>,
    pub(crate) n: u64,
    pub(crate) eps: f64,
    pub(crate) compress_period: u64,
    /// Inserts left until the next compress boundary, in
    /// `1..=compress_period`.
    until_compress: u64,
}

impl<T: Ord + Clone> TupleList<T> {
    /// An empty list; panics on ε outside (0, 0.5) or a zero period.
    pub(crate) fn new(eps: f64, period: u64) -> Self {
        assert!(eps > 0.0 && eps < 0.5, "eps must be in (0, 0.5)");
        assert!(period >= 1, "compress period must be positive");
        Self::from_tuples(Vec::new(), 0, eps, period)
    }

    fn from_tuples(tuples: Vec<GkTuple<T>>, n: u64, eps: f64, compress_period: u64) -> Self {
        let mut list = TupleList {
            tuples,
            fresh: Vec::new(),
            n,
            eps,
            compress_period,
            until_compress: compress_period,
        };
        list.rearm();
        list
    }

    /// Points the countdown at the next multiple of the period past `n`.
    fn rearm(&mut self) {
        self.until_compress = self.compress_period - self.n % self.compress_period;
    }

    /// Rebuilds a list from snapshot parts, or diagnoses a bad ε or period,
    /// unsorted tuples, `g` mass other than `n`, or a broken span invariant.
    pub(crate) fn from_parts(
        tuples: Vec<GkTuple<T>>,
        n: u64,
        eps: f64,
        compress_period: u64,
    ) -> Result<Self, String> {
        if !(eps > 0.0 && eps < 0.5) {
            return Err(format!("snapshot eps {eps} outside (0, 0.5)"));
        }
        if compress_period < 1 {
            return Err("snapshot compress period must be positive".to_string());
        }
        if !tuples
            .windows(2)
            .all(|w| w.first().map(|t| &t.v) <= w.last().map(|t| &t.v))
        {
            return Err("snapshot tuples are not sorted by value".to_string());
        }
        let mass: u64 = tuples.iter().map(|t| t.g).sum();
        if mass != n {
            return Err(format!(
                "snapshot g mass {mass} disagrees with stream length {n}"
            ));
        }
        let list = Self::from_tuples(tuples, n, eps, compress_period);
        if !list.invariant_holds() {
            return Err("snapshot violates the GK span invariant g+Δ ≤ ⌊2εn⌋".to_string());
        }
        Ok(list)
    }

    /// The COMPRESS threshold ⌊2εn⌋ at the current stream length.
    pub(crate) fn threshold(&self) -> u64 {
        (2.0 * self.eps * self.n as f64).floor() as u64
    }

    /// Stored tuples, fresh buffer included.
    pub(crate) fn len(&self) -> usize {
        self.tuples.len() + self.fresh.len()
    }

    /// The tuple vector with the fresh buffer flushed in, for COMPRESS.
    pub(crate) fn spliced(&mut self) -> &mut Vec<GkTuple<T>> {
        self.flush_pending();
        &mut self.tuples
    }

    /// Appends one item to the fresh buffer; at a compress boundary the
    /// buffer is flushed and `compress` runs.
    pub(crate) fn push(&mut self, item: T, compress: impl FnOnce(&mut Vec<GkTuple<T>>, u64)) {
        // Δ as if the item landed inside the list; a flush zeroes it if
        // the item landed at an end.
        let delta = self.threshold().saturating_sub(1);
        let index = self.fresh.len() as u64;
        self.fresh.push(GkTuple {
            v: item,
            g: index,
            delta,
        });
        self.n += 1;
        self.until_compress -= 1;
        if self.until_compress == 0 {
            self.until_compress = self.compress_period;
            self.flush_pending();
            let thr = self.threshold();
            compress(&mut self.tuples, thr);
        } else if self.fresh.len() >= FRESH_CAP {
            self.flush_pending();
        }
    }

    /// Sorts the fresh buffer once, settles it, and splices it into the
    /// tuples.
    fn flush_pending(&mut self) {
        if self.fresh.is_empty() {
            return;
        }
        self.fresh.sort_unstable_by(newest_first);
        let first = self.tuples.first().map(|t| &t.v);
        let last = self.tuples.last().map(|t| &t.v);
        settle(&mut self.fresh, first, last);
        self.splice();
    }

    /// Splices the sorted fresh buffer in. A run in one gap (the
    /// adversary's) moves the tail once. Otherwise tuples outside its span
    /// stay put, and the span is copied past the run, interleaved with
    /// copies of the fresh tuples at galloped positions, and goes back by
    /// one `Vec::splice`.
    fn splice(&mut self) {
        let (Some(first), Some(last)) = (self.fresh.first(), self.fresh.last()) else {
            return;
        };
        let lo = gallop(&self.tuples, &first.v);
        if self.tuples.get(lo).is_none_or(|t| last.v <= t.v) {
            self.tuples.splice(lo..lo, self.fresh.drain(..));
            return;
        }
        let (run, mut at) = (self.fresh.len(), lo);
        for j in 0..run {
            let Some(f) = self.fresh.get(j).cloned() else {
                break;
            };
            let rest = self.tuples.get(at..).unwrap_or_default();
            let below = gallop(rest, &f.v);
            self.fresh
                .extend_from_slice(rest.get(..below).unwrap_or_default());
            self.fresh.push(f);
            at += below;
        }
        self.tuples.splice(lo..at, self.fresh.drain(run..));
        self.fresh.clear();
    }

    /// Stages a sorted `chunk` in the empty fresh buffer as per-item
    /// inserts would store it: equal items newest first, Δ = 0 with
    /// nothing below or, for the first of a group, nothing at or above.
    fn stage_sorted(&mut self, chunk: &[T]) {
        let Some(first) = chunk.first() else {
            return;
        };
        // Only the first equal group can have nothing below it, and the
        // items above the last spliced tuple form a suffix of the chunk.
        let any_below = self.tuples.first().is_some_and(|t| t.v < *first);
        let above = match (self.tuples.last(), chunk.last()) {
            (Some(t), Some(x)) if *x <= t.v => chunk.len(),
            (Some(t), _) => chunk.partition_point(|x| *x <= t.v),
            (None, _) => 0,
        };
        let mut idx = 0;
        while let Some(x) = chunk.get(idx) {
            let mut end = idx + 1;
            while chunk.get(end).is_some_and(|y| y == x) {
                end += 1;
            }
            let start = self.fresh.len();
            for j in idx..end {
                let thr = self.threshold();
                let exact = thr < 1 || (idx == 0 && !any_below) || (j == idx && idx >= above);
                self.fresh.push(arrival(x.clone(), thr, exact));
                self.n += 1;
            }
            self.fresh.split_at_mut(start).1.reverse();
            idx = end;
        }
    }

    /// Inserts a sorted run exactly as per-item inserts would, returning
    /// the largest stored count they would show; pieces cut at compress
    /// boundaries and the buffer capacity are staged and spliced in turn.
    pub(crate) fn insert_sorted_run(
        &mut self,
        run: &[T],
        mut compress: impl FnMut(&mut Vec<GkTuple<T>>, u64),
    ) -> usize {
        debug_assert!(
            run.windows(2).all(|w| w.first() <= w.last()),
            "insert_sorted_run requires a non-decreasing run"
        );
        self.flush_pending();
        let mut peak = 0usize;
        let mut rest = run;
        while !rest.is_empty() {
            let until = self.until_compress as usize;
            let (chunk, tail) = rest.split_at(until.min(FRESH_CAP).min(rest.len()));
            self.stage_sorted(chunk);
            self.splice();
            self.until_compress -= chunk.len() as u64;
            let pre_compress = self.tuples.len();
            if self.until_compress == 0 {
                self.until_compress = self.compress_period;
                let thr = self.threshold();
                compress(&mut self.tuples, thr);
                // Per-item callers poll |I| after each insert: they see at
                // most the length one item before the compressing one.
                let post = self.tuples.len();
                peak = peak.max(if chunk.len() >= 2 {
                    (pre_compress - 1).max(post)
                } else {
                    post
                });
            } else {
                peak = peak.max(pre_compress);
            }
            rest = tail;
        }
        peak
    }

    /// Merges `other` in by the mergeable-summaries composition (Agarwal
    /// et al.): the lists interleave by value (this side first among
    /// equals) and each tuple's bounds widen by the other list's
    /// bracketing tuples,
    ///
    /// ```text
    ///   r_min'(x) = r_min_A(x) + r_min_B(pred_B(x))
    ///   r_max'(x) = r_max_A(x) + r_max_B(succ_B(x)) − 1
    /// ```
    ///
    /// then `(g, Δ)` follow: error at most (ε_A + ε_B)·(n_A + n_B). Both
    /// branches adopt ε_A + ε_B and its period. One pass over running
    /// `r_min` sums fills the emptied fresh buffer, which swaps in. The
    /// other side is read as a slice of its logical list: its own tuples,
    /// or a sorted and settled copy when it has inserts pending.
    pub(crate) fn merge(&mut self, other: &Self, compress: impl FnOnce(&mut Vec<GkTuple<T>>, u64)) {
        if other.len() == 0 {
            return;
        }
        self.eps = (self.eps + other.eps).min(0.499);
        self.compress_period = default_period(self.eps);
        if self.len() == 0 {
            self.tuples = other.tuples().into_owned();
            self.n = other.n;
            self.rearm();
            return;
        }
        self.flush_pending();
        let (na, nb) = (self.n, other.n);
        let theirs = other.tuples();
        // The emptied buffer is replaced, not grown: a reallocation would
        // copy its stale contents.
        let need = self.tuples.len() + theirs.len();
        if self.fresh.capacity() < need {
            self.fresh = Vec::with_capacity(need);
        }
        let mut a = self.tuples.drain(..);
        let mut b = theirs.iter();
        // Running r_min of each side's consumed prefix and of the output.
        let (mut ra, mut rb, mut prev) = (0u64, 0u64, 0u64);
        let mut emit = |v: T, own: u64, delta: u64, pred_min: u64, succ_max: u64| {
            let r_min = (own + pred_min).max(prev);
            let r_max = (own + delta + succ_max).max(r_min);
            self.fresh.push(GkTuple {
                v,
                g: r_min - prev,
                delta: r_max - r_min,
            });
            prev = r_min;
        };
        // Own r_min, then the other side's r_min at the predecessor and
        // r_max at the successor (its length past its end).
        let succ_max = |r: u64, s: Option<&GkTuple<T>>, n: u64| {
            s.map_or(n, |s| (r + s.g + s.delta).saturating_sub(1))
        };
        while let Some(x) = a.as_slice().first() {
            match b.as_slice().first() {
                Some(y) if y.v < x.v => {
                    rb += y.g;
                    emit(y.v.clone(), rb, y.delta, ra, succ_max(ra, Some(x), na));
                    b.next();
                }
                next_b => {
                    let succ = succ_max(rb, next_b, nb);
                    let Some(t) = a.next() else { break };
                    ra += t.g;
                    emit(t.v, ra, t.delta, rb, succ);
                }
            }
        }
        for y in b {
            rb += y.g;
            emit(y.v.clone(), rb, y.delta, ra, na);
        }
        drop(a);
        debug_assert_eq!(prev, na + nb, "merged rank mass mismatch");
        std::mem::swap(&mut self.tuples, &mut self.fresh);
        self.n = na + nb;
        self.rearm();
        let thr = self.threshold();
        compress(&mut self.tuples, thr);
    }

    /// [`merge`](Self::merge), refused when the composed ε leaves
    /// (0, 0.5) and re-validating the span invariant after.
    pub(crate) fn try_merge(
        &mut self,
        other: &Self,
        compress: impl FnOnce(&mut Vec<GkTuple<T>>, u64),
    ) -> Result<(), MergeError> {
        let composed = self.eps + other.eps;
        if !(composed > 0.0 && composed < 0.5) {
            return Err(MergeError::EpsOverflow { composed });
        }
        self.merge(other, compress);
        if !self.invariant_holds() {
            return Err(MergeError::InvariantViolated {
                detail: format!("GK span invariant g+Δ ≤ ⌊2εn⌋ at eps {}", self.eps),
            });
        }
        Ok(())
    }

    /// The pending items as the logical list holds them: borrowed, then
    /// sorted and settled as a flush would leave them. The sort moves
    /// plain references, which costs less than moving the views.
    fn pending(&self) -> Vec<GkTuple<&T>> {
        let mut order: Vec<&GkTuple<T>> = self.fresh.iter().collect();
        order.sort_unstable_by(|a, b| newest_first(a, b));
        let mut run: Vec<GkTuple<&T>> = order.into_iter().map(view).collect();
        let first = self.tuples.first().map(|t| &t.v);
        let last = self.tuples.last().map(|t| &t.v);
        settle(&mut run, first.as_ref(), last.as_ref());
        run
    }

    /// Visits the logical list until `f` breaks; a slice walk if nothing
    /// is pending.
    fn try_visit<'a, B>(
        &'a self,
        f: impl FnMut(GkTuple<&'a T>) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        if self.fresh.is_empty() {
            self.tuples.iter().map(view).try_for_each(f)
        } else {
            let pending = self.pending();
            Merged::new(&self.tuples, &pending).try_for_each(f)
        }
    }

    /// The logical list, borrowed when nothing is pending.
    pub(crate) fn tuples(&self) -> Cow<'_, [GkTuple<T>]> {
        if self.fresh.is_empty() {
            return Cow::Borrowed(&self.tuples);
        }
        let mut out = Vec::with_capacity(self.len());
        let _ = self.try_visit(|t| {
            out.push(owned(t));
            ControlFlow::<()>::Continue(())
        });
        Cow::Owned(out)
    }

    /// The persistent state as `(tuples, n, eps, compress_period)`.
    pub(crate) fn snapshot_parts(&self) -> (Cow<'_, [GkTuple<T>]>, u64, f64, u64) {
        (self.tuples(), self.n, self.eps, self.compress_period)
    }

    /// The span invariant `g_i + Δ_i ≤ ⌊2εn⌋` (at least 1). A pending
    /// item's `g` is 1, so its test is `Δ < cap`; settling only lowers Δ.
    pub(crate) fn invariant_holds(&self) -> bool {
        let cap = self.threshold().max(1);
        self.tuples.iter().all(|t| t.g + t.delta <= cap) && self.fresh.iter().all(|t| t.delta < cap)
    }

    /// Visits the stored items in order.
    pub(crate) fn for_each_item(&self, f: &mut dyn FnMut(&T)) {
        let _ = self.try_visit(|t| {
            f(t.v);
            ControlFlow::<()>::Continue(())
        });
    }

    /// The stored items in order.
    pub(crate) fn item_array(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len());
        let _ = self.try_visit(|t| {
            out.push(t.v.clone());
            ControlFlow::<()>::Continue(())
        });
        out
    }

    /// Visits the stored items strictly between `lo` and `hi`. Bounds are
    /// found by partition scans, so the visit itself compares nothing
    /// when nothing is pending (the adversary's gap scan).
    pub(crate) fn for_each_item_between(
        &self,
        lo: Option<&T>,
        hi: Option<&T>,
        f: &mut dyn FnMut(&T),
    ) {
        let ts = between(&self.tuples, lo, hi);
        if self.fresh.is_empty() {
            ts.iter().for_each(|t| f(&t.v));
        } else {
            let pending = self.pending();
            let fs = between(&pending, lo.as_ref(), hi.as_ref());
            Merged::new(ts, fs).for_each(|t| f(t.v));
        }
    }

    /// Lends the stored items strictly between `lo` and `hi` as one
    /// slice of borrows into the tuples: the items
    /// [`for_each_item_between`](Self::for_each_item_between) visits,
    /// collected with no item clone.
    pub(crate) fn with_items_between(
        &self,
        lo: Option<&T>,
        hi: Option<&T>,
        lend: &mut dyn FnMut(&[&T]),
    ) {
        let ts = between(&self.tuples, lo, hi);
        let lent: Vec<&T> = if self.fresh.is_empty() {
            ts.iter().map(|t| &t.v).collect()
        } else {
            let pending = self.pending();
            let fs = between(&pending, lo.as_ref(), hi.as_ref());
            Merged::new(ts, fs).map(|t| t.v).collect()
        };
        lend(&lent);
    }

    /// The item minimising max(|r_min − r|, |r_max − r|), the first such
    /// in list order; by the GK invariant some tuple, hence the best,
    /// deviates by at most ⌈εn⌉. The one-target case of
    /// [`nearest`](Self::nearest).
    pub(crate) fn query_rank(&self, r: u64) -> Option<T> {
        if self.len() == 0 || self.n == 0 {
            return None;
        }
        let mut best = [None];
        self.nearest(&[r.clamp(1, self.n)], &mut best);
        best.into_iter().flatten().next().map(|(v, _)| v.clone())
    }

    /// The φ-quantiles of `phis` into `out` (cleared first), each as
    /// [`query_rank`](Self::query_rank) answers its target
    /// `clamp(⌊φn⌋, 1, n)`. The pending inserts are sorted once, and a
    /// grid whose targets do not decrease is answered in one walk; an
    /// unsorted grid, or one of more than `MAX_TARGETS`, is read per φ.
    pub(crate) fn quantiles(&self, phis: &[f64], out: &mut Vec<Option<T>>) {
        out.clear();
        if self.len() == 0 || self.n == 0 || phis.is_empty() {
            out.resize(phis.len(), None);
            return;
        }
        let n = self.n;
        let target = |phi: f64| ((phi * n as f64).floor() as u64).clamp(1, n);
        let mut ranks = [0u64; MAX_TARGETS];
        let grid = ranks.get_mut(..phis.len()).unwrap_or_default();
        for (r, &phi) in grid.iter_mut().zip(phis) {
            *r = target(phi);
        }
        let sorted = grid.windows(2).all(|w| w.first() <= w.last());
        if grid.len() < phis.len() || !sorted {
            out.extend(phis.iter().map(|&phi| self.query_rank(target(phi))));
            return;
        }
        let mut best = [None; MAX_TARGETS];
        self.nearest(grid, &mut best);
        out.extend(
            best.iter()
                .take(grid.len())
                .map(|b| b.map(|(v, _)| v.clone())),
        );
    }

    /// For each target of the non-decreasing `ranks`, the first tuple of
    /// the logical list minimising max(|r_min − r|, |r_max − r|), with
    /// that deviation: [`nearest_in`] over the tuples, or over the merge
    /// of the tuples with the pending inserts, sorted and settled once.
    fn nearest<'a>(&'a self, ranks: &[u64], best: &mut [Nearest<'a, T>]) {
        if self.fresh.is_empty() {
            nearest_in(self.tuples.iter().map(view), ranks, best);
        } else {
            let pending = self.pending();
            nearest_in(Merged::new(&self.tuples, &pending), ranks, best);
        }
    }

    /// The rank query before [`nearest`](Self::nearest): scores every
    /// tuple of the logical list. The test oracle of the early-exit walk.
    #[cfg(test)]
    pub(crate) fn query_rank_walking_every_tuple(&self, r: u64) -> Option<T> {
        if self.len() == 0 || self.n == 0 {
            return None;
        }
        let r = r.clamp(1, self.n);
        let mut r_min = 0u64;
        let mut best: Option<(&T, u64)> = None;
        let _ = self.try_visit(|t| {
            r_min += t.g;
            let r_max = r_min + t.delta;
            let dev = (r_min.abs_diff(r)).max(r_max.abs_diff(r));
            if best.is_none_or(|(_, d)| dev < d) {
                best = Some((t.v, dev));
            }
            ControlFlow::<()>::Continue(())
        });
        best.map(|(v, _)| v.clone())
    }

    /// The midpoint rank estimator `(r_min(i) + r_max(i+1) − 1)/2` for
    /// the last tuple with `v_i ≤ q`.
    pub(crate) fn estimate_rank(&self, q: &T) -> u64 {
        match self.bracket(q) {
            ControlFlow::Break((lo, hi)) => (lo + hi) / 2,
            ControlFlow::Continue(_) => self.n,
        }
    }

    /// Certified bounds `[lo, hi]` on the number of stream items ≤ q.
    pub(crate) fn rank_bounds(&self, q: &T) -> (u64, u64) {
        match self.bracket(q) {
            ControlFlow::Break(bounds) => bounds,
            ControlFlow::Continue(lo) => (lo, self.n),
        }
    }

    /// `Break(bounds)` from the first tuple above `q`, else `Continue(lo)`.
    fn bracket(&self, q: &T) -> ControlFlow<(u64, u64), u64> {
        let mut r_min = 0u64;
        let mut last_le = None;
        self.try_visit(|t| {
            r_min += t.g;
            if t.v <= q {
                last_le = Some(r_min);
                return ControlFlow::Continue(());
            }
            // At least the last ≤-tuple's r_min, below this one's r_max.
            ControlFlow::Break(
                last_le.map_or((0, 0), |lo| (lo, (r_min + t.delta).saturating_sub(1))),
            )
        })
        .map_continue(|()| last_le.unwrap_or(0))
    }
}

/// For each target of the non-decreasing `ranks`, the first tuple of
/// `list` minimising max(|r_min − r|, |r_max − r|) and that deviation,
/// in one walk that stops as soon as no later tuple can change an answer.
///
/// A target is *touched* by the first tuple whose r_max reaches it.
/// Every tuple before falls short of it and deviates by r − r_min, so its
/// best answer so far is the first tuple with the largest r_min seen:
/// one `lead` that all untouched targets share. A touched target is
/// scored tuple by tuple until it is *finished*, once r_min − r exceeds
/// its best deviation: r_min never falls, so no later tuple beats it.
/// The walk stops when every target is finished.
fn nearest_in<'a, T: 'a>(
    list: impl Iterator<Item = GkTuple<&'a T>>,
    ranks: &[u64],
    best: &mut [Nearest<'a, T>],
) {
    let behind = |lead: Nearest<'a, T>, r: u64| lead.map(|(v, m)| (v, r.abs_diff(m)));
    let mut r_min = 0u64;
    // The first tuple with the largest r_min so far, with that r_min.
    let mut lead: Nearest<'a, T> = None;
    let (mut touched, mut finished) = (0, 0);
    let mut next = ranks.first().copied().unwrap_or(u64::MAX);
    for t in list {
        r_min += t.g;
        let r_max = r_min + t.delta;
        if next <= r_max {
            while let Some((&r, b)) = ranks.get(touched).zip(best.get_mut(touched)) {
                if r > r_max {
                    break;
                }
                *b = behind(lead, r);
                touched += 1;
            }
            next = ranks.get(touched).copied().unwrap_or(u64::MAX);
        }
        if finished < touched {
            let live = ranks.iter().zip(best.iter_mut()).take(touched);
            for (&r, b) in live.skip(finished) {
                let dev = r_min.abs_diff(r).max(r_max.abs_diff(r));
                if b.is_none_or(|(_, d)| dev < d) {
                    *b = Some((t.v, dev));
                }
            }
            while finished < touched
                && ranks
                    .get(finished)
                    .zip(best.get(finished))
                    .is_some_and(|(&r, b)| b.is_some_and(|(_, d)| r_min.saturating_sub(r) > d))
            {
                finished += 1;
            }
            if finished == ranks.len() {
                return;
            }
        }
        if lead.is_none_or(|(_, m)| m < r_min) {
            lead = Some((t.v, r_min));
        }
    }
    for (&r, b) in ranks.iter().zip(best.iter_mut()).skip(touched) {
        *b = behind(lead, r);
    }
}

/// The tuples of sorted `ts` strictly between `lo` and `hi`.
fn between<'a, U: Ord>(ts: &'a [GkTuple<U>], lo: Option<&U>, hi: Option<&U>) -> &'a [GkTuple<U>] {
    let ts = lo.map_or(ts, |lo| {
        ts.get(ts.partition_point(|t| &t.v <= lo)..)
            .unwrap_or_default()
    });
    hi.map_or(ts, |hi| {
        ts.get(..ts.partition_point(|t| &t.v < hi))
            .unwrap_or_default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_tuples(n: u64) -> TupleList<u64> {
        let ts = (1..=n).map(|v| GkTuple { v, g: 1, delta: 0 }).collect();
        TupleList::from_parts(ts, n, 0.1, 5).expect("valid parts")
    }

    #[test]
    fn query_on_exact_tuples_is_exact() {
        let ts = exact_tuples(100);
        for r in [1u64, 17, 50, 99, 100] {
            assert_eq!(ts.query_rank(r), Some(r));
        }
    }

    #[test]
    fn query_clamps_out_of_range_targets() {
        let ts = exact_tuples(10);
        assert_eq!(ts.query_rank(0), Some(1));
        assert_eq!(ts.query_rank(999), Some(10));
    }

    #[test]
    fn estimate_rank_on_exact_tuples() {
        let ts = exact_tuples(100);
        assert_eq!(ts.estimate_rank(&0), 0);
        assert_eq!(ts.estimate_rank(&100), 100);
        assert_eq!(ts.estimate_rank(&1000), 100);
        // q = 42: 42 items ≤ 42; estimator midpoint is (42 + 43−1)/2 = 42.
        assert_eq!(ts.estimate_rank(&42), 42);
    }

    #[test]
    fn empty_tuple_list() {
        let ts = TupleList::<u64>::new(0.1, 5);
        assert_eq!(ts.query_rank(1), None);
        assert_eq!(ts.estimate_rank(&5), 0);
    }

    #[test]
    fn gallop_counts_the_tuples_below() {
        let ts = exact_tuples(40);
        for x in 0..=42u64 {
            let want = ts.tuples.partition_point(|t| t.v < x);
            assert_eq!(gallop(&ts.tuples, &x), want, "x = {x}");
        }
        assert_eq!(gallop::<u64>(&[], &7), 0);
    }

    /// Random lists, g = 0 and wide Δ included, some with inserts
    /// pending: the early-exit walk answers every rank, 0 and past n
    /// included, as the full walk does, and a sorted batch of targets as
    /// one-target walks do.
    #[test]
    fn early_exit_walk_matches_the_full_walk() {
        let mut rng = cqs_core::SplitMix64::new(0x7a1c);
        let mut lists = 0;
        for round in 0..800u64 {
            let eps = [0.3, 0.1, 0.02][round as usize % 3];
            let mut vs: Vec<u64> = (0..rng.below(60)).map(|_| rng.below(40)).collect();
            vs.sort_unstable();
            let gs: Vec<u64> = vs.iter().map(|_| rng.below(3)).collect();
            let n: u64 = gs.iter().sum();
            let cap = ((2.0 * eps * n as f64).floor() as u64).max(1);
            let ts = vs
                .iter()
                .zip(&gs)
                .map(|(&v, &g)| GkTuple {
                    v,
                    g,
                    delta: rng.below(cap.saturating_sub(g) + 1),
                })
                .collect();
            let Ok(mut list) = TupleList::from_parts(ts, n, eps, 7) else {
                continue;
            };
            for _ in 0..rng.below(4) {
                list.push(rng.below(40), |_, _| {});
            }
            lists += 1;
            let n = list.n;
            for r in 0..=n + 1 {
                assert_eq!(
                    list.query_rank(r),
                    list.query_rank_walking_every_tuple(r),
                    "round {round}: rank {r}"
                );
            }
            if n == 0 {
                continue;
            }
            let mut ranks: Vec<u64> = (0..1 + rng.below(MAX_TARGETS as u64))
                .map(|_| 1 + rng.below(n))
                .collect();
            ranks.sort_unstable();
            let mut best = [None; MAX_TARGETS];
            list.nearest(&ranks, &mut best);
            for (&r, b) in ranks.iter().zip(&best) {
                let got = b.map(|(v, _)| *v);
                assert_eq!(
                    got,
                    list.query_rank(r),
                    "round {round}: target {r} of {ranks:?}"
                );
            }
        }
        assert!(lists > 500, "only {lists} valid lists");
    }
}
