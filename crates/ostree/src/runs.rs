//! An order-statistic treap over *runs* of virtual items.
//!
//! The adversary's stream index stores, per contiguous block of minted
//! items, one [`Fragment`]: the block's first and last (materialized)
//! items, the count of virtual items between and including them, and
//! bookkeeping locating the block inside its minted run. A [`RunTree`] keeps the fragments in label order and caches the
//! **virtual** subtree size (sum of fragment counts) at every node, so
//! rank ([`locate`](RunTree::locate)) descends in O(log #fragments)
//! while representing arbitrarily many items per fragment.
//!
//! The tree compares only the fragments' endpoint items (`T: Ord`) —
//! everything *between* a fragment's endpoints is opaque to it. Point
//! queries that land inside a fragment are answered by the caller (the
//! stream index keeps each run's items, or a run-label generator); the
//! tree's job is to find the fragment and the virtual count to its left.
//!
//! Nodes live in one arena linked by `u32` index, and priorities come
//! from a deterministic SplitMix64 sequence — a tree built by the same
//! operation sequence always has the same shape.

use std::borrow::Borrow;

/// Sentinel link: no child / empty tree.
const NIL: u32 = u32::MAX;

/// One contiguous block of virtual items: every item of run `run` with
/// in-run index in `[base, base + count)`. `lo` and `hi` are the
/// materialized first and last items of the block (equal when
/// `count == 1`).
#[derive(Clone, Debug)]
pub struct Fragment<T> {
    /// First item of the block (inclusive).
    pub lo: T,
    /// Last item of the block (inclusive).
    pub hi: T,
    /// Number of virtual items in the block (≥ 1).
    pub count: u64,
    /// Caller-side run identifier (index into the caller's run table).
    pub run: u32,
    /// In-run index of `lo`.
    pub base: u64,
}

struct Node<T> {
    frag: Fragment<T>,
    pri: u64,
    left: u32,
    right: u32,
    /// Virtual items in this subtree: `frag.count` + both children.
    subtotal: u64,
}

/// Where a point query landed: the virtual count strictly left of the
/// probe's fragment, and the fragment containing it (if any).
pub struct Locate<'a, T> {
    /// Virtual items in fragments wholly below the probe.
    pub before: u64,
    /// The fragment with `lo <= q <= hi`, if one exists.
    pub hit: Option<&'a Fragment<T>>,
}

impl<T> Clone for Locate<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Locate<'_, T> {}

/// The fragment treap. See the module docs.
pub struct RunTree<T> {
    nodes: Vec<Node<T>>,
    free: Vec<u32>,
    root: u32,
    state: u64,
}

impl<T: Ord + Clone> Default for RunTree<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Ord + Clone> RunTree<T> {
    /// An empty tree with the default deterministic priority seed.
    pub fn new() -> Self {
        Self::with_seed(0x9e37_79b9_7f4a_7c15)
    }

    /// An empty tree with an explicit priority seed.
    pub fn with_seed(seed: u64) -> Self {
        RunTree {
            nodes: Vec::new(),
            free: Vec::new(),
            root: NIL,
            state: seed,
        }
    }

    /// Total virtual items across all fragments.
    pub fn virtual_len(&self) -> u64 {
        subtotal(&self.nodes, self.root)
    }

    /// Number of stored fragments.
    pub fn fragment_count(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Whether the tree stores no fragments.
    pub fn is_empty(&self) -> bool {
        self.root == NIL
    }

    fn node(&self, link: u32) -> Option<&Node<T>> {
        self.nodes.get(link as usize)
    }

    fn frag_at(&self, link: u32) -> Option<&Fragment<T>> {
        self.node(link).map(|n| &n.frag)
    }

    /// SplitMix64 step: deterministic priorities, so the same operation
    /// sequence always builds the same shape.
    fn next_pri(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn alloc(&mut self, frag: Fragment<T>) -> u32 {
        let pri = self.next_pri();
        let node = Node {
            subtotal: frag.count,
            frag,
            pri,
            left: NIL,
            right: NIL,
        };
        if let Some(idx) = self.free.pop() {
            if let Some(slot) = self.nodes.get_mut(idx as usize) {
                *slot = node;
            }
            return idx;
        }
        assert!(
            self.nodes.len() < NIL as usize,
            "RunTree arena exhausted the u32 index space"
        );
        self.nodes.push(node);
        (self.nodes.len() - 1) as u32
    }

    /// Inserts a fragment. The caller guarantees its item range
    /// `[lo, hi]` is disjoint from every stored fragment's range.
    pub fn insert_fragment(&mut self, frag: Fragment<T>) {
        debug_assert!(frag.count >= 1, "fragments hold at least one item");
        debug_assert!(frag.lo <= frag.hi, "fragment endpoints out of order");
        let idx = self.alloc(frag);
        let (lt, ge) = split_idx(&mut self.nodes, self.root, idx);
        let merged = merge(&mut self.nodes, lt, idx);
        self.root = merge(&mut self.nodes, merged, ge);
    }

    /// Removes and returns the fragment whose closed range contains `q`,
    /// if any. Used to split a fragment: remove it, then insert the
    /// replacement pieces.
    pub fn remove_containing(&mut self, q: &T) -> Option<Fragment<T>> {
        let mut ab = (NIL, NIL);
        split_hi_lt(&mut self.nodes, self.root, q, &mut ab);
        let (below, rest) = ab;
        let mut bc = (NIL, NIL);
        split_lo_le(&mut self.nodes, rest, q, &mut bc);
        let (hit, above) = bc;
        let taken = self.node(hit).map(|n| {
            // Disjoint ranges: at most one fragment can contain q, so
            // the middle part is a single node.
            debug_assert!(n.left == NIL && n.right == NIL);
            n.frag.clone()
        });
        if taken.is_some() {
            self.free.push(hit);
        }
        self.root = merge(&mut self.nodes, below, above);
        taken
    }

    /// Point query: finds the fragment containing `q` (closed range) and
    /// the virtual count strictly left of it. When no fragment contains
    /// `q`, `before` counts every virtual item in fragments below `q`.
    pub fn locate(&self, q: &T) -> Locate<'_, T> {
        locate_from(&self.nodes, self.root, q, 0)
    }

    /// Batched [`locate`](Self::locate): answers for every query of the
    /// sorted slice `qs` in **one** tree walk, written into `out`
    /// (cleared first; `out[i]` answers `qs[i]`).
    ///
    /// The queries partition at each node into those below the
    /// fragment (descend left), those inside it (answered here), and
    /// those above it (descend right with the count advanced), so
    /// queries sharing a descent path share its comparisons. The
    /// queries may be owned items or borrows of them (`Q = T` or
    /// `Q = &T`); both take the same walk and the same comparisons.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `qs` is sorted non-decreasingly.
    pub fn multi_locate<'a, Q: Borrow<T>>(&'a self, qs: &[Q], out: &mut Vec<Locate<'a, T>>) {
        debug_assert!(
            qs.iter()
                .zip(qs.iter().skip(1))
                .all(|(a, b)| a.borrow() <= b.borrow()),
            "multi_locate queries must be sorted"
        );
        out.clear();
        out.resize(
            qs.len(),
            Locate {
                before: 0,
                hit: None,
            },
        );
        multi_locate_walk(&self.nodes, self.root, qs, 0, out);
    }

    /// The lowest fragment lying wholly above `q` (`lo > q`).
    pub fn first_above(&self, q: &T) -> Option<&Fragment<T>> {
        let mut link = self.root;
        let mut best = NIL;
        while let Some(node) = self.node(link) {
            if *q < node.frag.lo {
                best = link;
                link = node.left;
            } else {
                link = node.right;
            }
        }
        self.frag_at(best)
    }

    /// The highest fragment lying wholly below `q` (`hi < q`).
    pub fn last_below(&self, q: &T) -> Option<&Fragment<T>> {
        let mut link = self.root;
        let mut best = NIL;
        while let Some(node) = self.node(link) {
            if *q > node.frag.hi {
                best = link;
                link = node.right;
            } else {
                link = node.left;
            }
        }
        self.frag_at(best)
    }

    /// The lowest fragment.
    pub fn first(&self) -> Option<&Fragment<T>> {
        self.frag_at(leftmost(&self.nodes, self.root))
    }

    /// The highest fragment.
    pub fn last(&self) -> Option<&Fragment<T>> {
        self.frag_at(rightmost(&self.nodes, self.root))
    }

    /// Visits every fragment in label order.
    pub fn for_each(&self, f: &mut dyn FnMut(&Fragment<T>)) {
        fn walk<T>(nodes: &[Node<T>], link: u32, f: &mut dyn FnMut(&Fragment<T>)) {
            let Some(node) = nodes.get(link as usize) else {
                return;
            };
            walk(nodes, node.left, f);
            f(&node.frag);
            walk(nodes, node.right, f);
        }
        walk(&self.nodes, self.root, f);
    }
}

#[inline]
fn subtotal<T>(nodes: &[Node<T>], link: u32) -> u64 {
    nodes.get(link as usize).map_or(0, |n| n.subtotal)
}

/// The [`RunTree::locate`] descent from `link`, with `before` virtual
/// items already counted to the subtree's left.
fn locate_from<'a, T: Ord>(nodes: &'a [Node<T>], link: u32, q: &T, before: u64) -> Locate<'a, T> {
    let mut before = before;
    let mut n = nodes.get(link as usize);
    while let Some(node) = n {
        if *q < node.frag.lo {
            n = nodes.get(node.left as usize);
        } else if *q > node.frag.hi {
            before += subtotal(nodes, node.left) + node.frag.count;
            n = nodes.get(node.right as usize);
        } else {
            return Locate {
                before: before + subtotal(nodes, node.left),
                hit: Some(&node.frag),
            };
        }
    }
    Locate { before, hit: None }
}

/// Batched locate descent: `qs` (sorted) splits at each node into the
/// prefix below the fragment (descends left with `before`), the run
/// inside it (answered here), and the suffix above it (descends right
/// with `before + |left| + count`); queries reaching an empty link have
/// counted everything below them and hit nothing.
fn multi_locate_walk<'a, T: Ord, Q: Borrow<T>>(
    nodes: &'a [Node<T>],
    link: u32,
    qs: &[Q],
    before: u64,
    out: &mut [Locate<'a, T>],
) {
    if qs.is_empty() {
        return;
    }
    if qs.len() == 1 {
        // A lone query needs no more partitioning: finish with the
        // plain `locate` descent loop.
        if let (Some(q), Some(slot)) = (qs.first(), out.first_mut()) {
            *slot = locate_from(nodes, link, q.borrow(), before);
        }
        return;
    }
    match nodes.get(link as usize) {
        None => out.fill(Locate { before, hit: None }),
        Some(node) => {
            // Clustered batches fall entirely on one side at most nodes
            // of the shared descent path; probing the sorted slice's
            // endpoints first answers those nodes with one comparison
            // instead of two partition scans.
            let below = if qs.last().is_some_and(|q| *q.borrow() < node.frag.lo) {
                qs.len()
            } else if qs.first().is_some_and(|q| *q.borrow() >= node.frag.lo) {
                0
            } else {
                qs.partition_point(|q| *q.borrow() < node.frag.lo)
            };
            let (ql, rest) = qs.split_at(below);
            let inside = if rest.first().is_some_and(|q| *q.borrow() > node.frag.hi) {
                0
            } else if rest.last().is_some_and(|q| *q.borrow() <= node.frag.hi) {
                rest.len()
            } else {
                rest.partition_point(|q| *q.borrow() <= node.frag.hi)
            };
            let (qin, qr) = rest.split_at(inside);
            let (ol, orest) = out.split_at_mut(ql.len());
            let (oin, or) = orest.split_at_mut(qin.len());
            let left_total = subtotal(nodes, node.left);
            multi_locate_walk(nodes, node.left, ql, before, ol);
            oin.fill(Locate {
                before: before + left_total,
                hit: Some(&node.frag),
            });
            let past = before + left_total + node.frag.count;
            multi_locate_walk(nodes, node.right, qr, past, or);
        }
    }
}

fn leftmost<T>(nodes: &[Node<T>], mut link: u32) -> u32 {
    while let Some(n) = nodes.get(link as usize) {
        if n.left == NIL {
            return link;
        }
        link = n.left;
    }
    NIL
}

fn rightmost<T>(nodes: &[Node<T>], mut link: u32) -> u32 {
    while let Some(n) = nodes.get(link as usize) {
        if n.right == NIL {
            return link;
        }
        link = n.right;
    }
    NIL
}

/// Replaces a node's left child, refreshing the cached virtual subtotal.
fn set_left<T>(nodes: &mut [Node<T>], i: u32, child: u32) {
    let cs = subtotal(nodes, child);
    let right = match nodes.get(i as usize) {
        Some(n) => n.right,
        None => return,
    };
    let rs = subtotal(nodes, right);
    if let Some(n) = nodes.get_mut(i as usize) {
        n.left = child;
        n.subtotal = n.frag.count + cs + rs;
    }
}

/// Replaces a node's right child, refreshing the cached virtual subtotal.
fn set_right<T>(nodes: &mut [Node<T>], i: u32, child: u32) {
    let cs = subtotal(nodes, child);
    let left = match nodes.get(i as usize) {
        Some(n) => n.left,
        None => return,
    };
    let ls = subtotal(nodes, left);
    if let Some(n) = nodes.get_mut(i as usize) {
        n.right = child;
        n.subtotal = n.frag.count + ls + cs;
    }
}

/// Splits into `(fragments below nodes[key], the rest)`, ordering by the
/// fragments' `lo` endpoints. The pivot lives in the same arena, so it
/// is addressed by index.
fn split_idx<T: Ord>(nodes: &mut [Node<T>], link: u32, key: u32) -> (u32, u32) {
    let (less, left, right) = match (nodes.get(link as usize), nodes.get(key as usize)) {
        (Some(n), Some(k)) => (n.frag.lo < k.frag.lo, n.left, n.right),
        _ => return (NIL, NIL),
    };
    if less {
        let (a, b) = split_idx(nodes, right, key);
        set_right(nodes, link, a);
        (link, b)
    } else {
        let (a, b) = split_idx(nodes, left, key);
        set_left(nodes, link, b);
        (a, link)
    }
}

/// Splits into `out = (fragments with hi < q, fragments with hi >= q)`.
/// The query is external to the arena and lands only in the comparison;
/// the halves go through an out-parameter so the purity analysis sees
/// the links as the plain indices they are and the subtotal bookkeeping
/// stays certified.
fn split_hi_lt<T: Ord>(nodes: &mut [Node<T>], link: u32, q: &T, out: &mut (u32, u32)) {
    let (goes_left, left, right) = match nodes.get(link as usize) {
        Some(n) => (*q > n.frag.hi, n.left, n.right),
        None => {
            *out = (NIL, NIL);
            return;
        }
    };
    if goes_left {
        split_hi_lt(nodes, right, q, out);
        set_right(nodes, link, out.0);
        out.0 = link;
    } else {
        split_hi_lt(nodes, left, q, out);
        set_left(nodes, link, out.1);
        out.1 = link;
    }
}

/// Splits into `out = (fragments with lo <= q, fragments with lo > q)`.
fn split_lo_le<T: Ord>(nodes: &mut [Node<T>], link: u32, q: &T, out: &mut (u32, u32)) {
    let (goes_left, left, right) = match nodes.get(link as usize) {
        Some(n) => (*q >= n.frag.lo, n.left, n.right),
        None => {
            *out = (NIL, NIL);
            return;
        }
    };
    if goes_left {
        split_lo_le(nodes, right, q, out);
        set_right(nodes, link, out.0);
        out.0 = link;
    } else {
        split_lo_le(nodes, left, q, out);
        set_left(nodes, link, out.1);
        out.1 = link;
    }
}

fn merge<T>(nodes: &mut [Node<T>], a: u32, b: u32) -> u32 {
    let (pa, pb) = match (nodes.get(a as usize), nodes.get(b as usize)) {
        (None, _) => return b,
        (_, None) => return a,
        (Some(an), Some(bn)) => (an.pri, bn.pri),
    };
    if pa >= pb {
        let ar = nodes.get(a as usize).map_or(NIL, |n| n.right);
        let m = merge(nodes, ar, b);
        set_right(nodes, a, m);
        a
    } else {
        let bl = nodes.get(b as usize).map_or(NIL, |n| n.left);
        let m = merge(nodes, a, bl);
        set_left(nodes, b, m);
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference model: fragments in a sorted Vec.
    fn model_locate(model: &[Fragment<u64>], q: u64) -> (u64, Option<usize>) {
        let mut before = 0u64;
        for (i, f) in model.iter().enumerate() {
            if f.hi < q {
                before += f.count;
            } else if f.lo <= q {
                return (before, Some(i));
            } else {
                break;
            }
        }
        (before, None)
    }

    fn frag(lo: u64, hi: u64, count: u64, run: u32, base: u64) -> Fragment<u64> {
        Fragment {
            lo,
            hi,
            count,
            run,
            base,
        }
    }

    /// Runs the sorted probes `qs` through [`RunTree::multi_locate`] as
    /// one whole batch, as sub-batches, and as single-query batches, and
    /// checks every answer against the model's `(before, hit)`. Each
    /// batch also runs borrowed, which must find the same fragments.
    fn check_multi_locate(t: &RunTree<u64>, model: &[Fragment<u64>], qs: &[u64]) {
        let (mut out, mut lent) = (Vec::new(), Vec::new());
        for chunk in [qs.len().max(1), 7, 1] {
            for batch in qs.chunks(chunk) {
                t.multi_locate(batch, &mut out);
                assert_eq!(out.len(), batch.len());
                for (q, l) in batch.iter().zip(&out) {
                    let (before, hit) = model_locate(model, *q);
                    assert_eq!(l.before, before, "batched before diverged at {q}");
                    assert_eq!(
                        l.hit.map(|f| f.lo),
                        hit.map(|i| model[i].lo),
                        "batched hit diverged at {q}"
                    );
                }
                let refs: Vec<&u64> = batch.iter().collect();
                t.multi_locate(&refs, &mut lent);
                assert_eq!(lent.len(), out.len());
                for (a, b) in out.iter().zip(&lent) {
                    assert_eq!(a.before, b.before, "borrowed before diverged");
                    assert!(
                        a.hit.map(std::ptr::from_ref) == b.hit.map(std::ptr::from_ref),
                        "borrowed hit diverged"
                    );
                }
            }
        }
    }

    fn build(frags: &[Fragment<u64>]) -> RunTree<u64> {
        let mut t = RunTree::new();
        for f in frags {
            t.insert_fragment(f.clone());
        }
        t
    }

    #[test]
    fn empty_tree() {
        let t: RunTree<u64> = RunTree::new();
        assert_eq!(t.virtual_len(), 0);
        assert_eq!(t.fragment_count(), 0);
        assert!(t.is_empty());
        assert!(t.first().is_none());
        assert!(t.last().is_none());
        let l = t.locate(&5);
        assert_eq!(l.before, 0);
        assert!(l.hit.is_none());
        assert!(t.first_above(&5).is_none() && t.last_below(&5).is_none());
        check_multi_locate(&t, &[], &[0, 5, 5, 9]);
        let mut out = Vec::new();
        t.multi_locate::<u64>(&[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn locate_matches_reference_model() {
        // Disjoint fragments with gaps, inserted out of order.
        let mut model = vec![
            frag(10, 19, 10, 0, 0),
            frag(30, 30, 1, 1, 0),
            frag(40, 59, 5, 2, 3),
            frag(70, 99, 30, 3, 0),
        ];
        let t = build(&[
            model[2].clone(),
            model[0].clone(),
            model[3].clone(),
            model[1].clone(),
        ]);
        model.sort_by_key(|f| f.lo);
        assert_eq!(t.virtual_len(), 46);
        assert_eq!(t.fragment_count(), 4);
        assert_eq!(t.first().unwrap().lo, 10);
        assert_eq!(t.last().unwrap().hi, 99);
        for q in 0..=110u64 {
            let (before, hit) = model_locate(&model, q);
            let l = t.locate(&q);
            assert_eq!(l.before, before, "before diverged at {q}");
            assert_eq!(
                l.hit.map(|f| f.run),
                hit.map(|i| model[i].run),
                "hit diverged at {q}"
            );
            // Neighbor fragments: nearest wholly-below / wholly-above.
            let pred = model.iter().rev().find(|f| f.hi < q);
            let succ = model.iter().find(|f| f.lo > q);
            assert_eq!(
                t.last_below(&q).map(|f| f.run),
                pred.map(|f| f.run),
                "pred diverged at {q}"
            );
            assert_eq!(
                t.first_above(&q).map(|f| f.run),
                succ.map(|f| f.run),
                "succ diverged at {q}"
            );
        }
        // The same sweep as sorted batches through the batched walk,
        // with repeated probes mixed in.
        let sweep: Vec<u64> = (0..=110u64).collect();
        check_multi_locate(&t, &model, &sweep);
        let dup: Vec<u64> = (0..=110u64).flat_map(|q| [q, q]).collect();
        check_multi_locate(&t, &model, &dup);
    }

    #[test]
    fn split_via_remove_and_reinsert() {
        let mut t = build(&[frag(10, 99, 90, 0, 0)]);
        // Split the fragment at virtual offsets: [10..=40], [60..=99].
        let removed = t.remove_containing(&50).expect("fragment contains 50");
        assert_eq!(removed.count, 90);
        assert_eq!(t.virtual_len(), 0);
        t.insert_fragment(frag(10, 40, 31, 0, 0));
        t.insert_fragment(frag(60, 99, 40, 0, 50));
        // Insert a new run's fragment in the gap.
        t.insert_fragment(frag(45, 55, 200, 1, 0));
        assert_eq!(t.virtual_len(), 271);
        assert_eq!(t.fragment_count(), 3);
        assert_eq!(t.locate(&44).before, 31);
        assert_eq!(t.locate(&45).before, 31);
        assert_eq!(t.locate(&56).before, 231);
        let hit = |q: u64| t.locate(&q).hit.map(|f| (f.run, f.base, f.count));
        assert_eq!(hit(45), Some((1, 0, 200)));
        assert_eq!(hit(55), Some((1, 0, 200)));
        assert_eq!(hit(60), Some((0, 50, 40)));
        assert_eq!(hit(42), None, "the split-off range stays empty");
        // Arena slot reuse after the removal.
        assert_eq!(t.fragment_count(), 3);
        assert!(t.remove_containing(&42).is_none(), "gap contains nothing");
    }

    #[test]
    fn for_each_visits_in_label_order() {
        let t = build(&[
            frag(50, 59, 3, 2, 0),
            frag(10, 19, 3, 0, 0),
            frag(30, 39, 3, 1, 0),
        ]);
        let mut runs = Vec::new();
        t.for_each(&mut |f| runs.push(f.run));
        assert_eq!(runs, vec![0, 1, 2]);
    }

    #[test]
    fn deterministic_shape_across_builds() {
        let build_once = || {
            let mut t = RunTree::with_seed(7);
            for i in 0..200u64 {
                let lo = i * 10;
                t.insert_fragment(frag(lo, lo + 5, 1 + i % 7, i as u32, 0));
            }
            let mut order = Vec::new();
            t.for_each(&mut |f| order.push(f.run));
            (t.virtual_len(), order)
        };
        assert_eq!(build_once(), build_once());
    }

    #[test]
    fn many_single_item_fragments_behave_like_a_plain_tree() {
        let mut t = RunTree::new();
        let model: Vec<Fragment<u64>> = (0..1000u64).map(|i| frag(i * 2, i * 2, 1, 0, i)).collect();
        for f in &model {
            t.insert_fragment(f.clone());
        }
        assert_eq!(t.virtual_len(), 1000);
        for i in 0..1000u64 {
            let l = t.locate(&(i * 2));
            assert_eq!(l.before, i);
            assert_eq!(l.hit.unwrap().base, i);
        }
        // Odd probes fall in gaps.
        let l = t.locate(&501);
        assert!(l.hit.is_none());
        assert_eq!(l.before, 251);
        assert_eq!(t.last_below(&501).unwrap().lo, 500);
        assert_eq!(t.first_above(&501).unwrap().lo, 502);
        // Every even and odd probe, past both ends, in sorted batches.
        let sweep: Vec<u64> = (0..=2001u64).collect();
        check_multi_locate(&t, &model, &sweep);
    }
}
