//! Treap internals: split/merge with subtree-size augmentation.
//!
//! Nodes live in one contiguous `Vec` arena and link to each other by
//! `u32` index (`NIL` = absent), not by `Box` pointer. The adversary
//! inserts items in sorted leaf runs, so arena order correlates with
//! key order and a descent touches a handful of cache lines where the
//! boxed layout chased pointers across the heap; it also makes a node
//! allocation a bump of the `Vec` instead of a `malloc`. Nothing is
//! ever removed, so the arena holds exactly the stored items.

/// Absent-link sentinel. `nodes.get(NIL as usize)` is `None` because
/// the arena never grows to `u32::MAX` entries (checked on alloc), so
/// every walk treats `NIL` uniformly as an empty subtree.
const NIL: u32 = u32::MAX;

struct Node<T> {
    item: T,
    pri: u64,
    tag: u64,
    size: u32,
    /// Cached size of the left subtree. Redundant with
    /// `size(nodes, left)`, but keeping it in the node means every
    /// counting descent reads ONE arena slot per level instead of
    /// also touching the left child just for its size.
    left_size: u32,
    left: u32,
    right: u32,
}

/// A set of distinct items ordered by `T: Ord`, each carrying a 64-bit
/// tag, supporting order statistics.
///
/// See the crate docs for the operation set. All operations are
/// O(log n) expected; shape is deterministic given the seed and the
/// insert sequence.
pub struct OsTree<T> {
    nodes: Vec<Node<T>>,
    root: u32,
    rng: u64,
    /// Right-spine scratch for the bulk sorted build, kept across
    /// [`extend_sorted_tagged`](Self::extend_sorted_tagged) calls.
    spine: Vec<u32>,
}

impl<T: Ord> Default for OsTree<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Ord> OsTree<T> {
    /// An empty tree with the default priority seed.
    pub fn new() -> Self {
        Self::with_seed(0x9e37_79b9_7f4a_7c15)
    }

    /// An empty tree whose priority sequence starts from `seed`.
    pub fn with_seed(seed: u64) -> Self {
        OsTree {
            nodes: Vec::new(),
            root: NIL,
            rng: seed | 1,
            spine: Vec::new(),
        }
    }

    fn next_pri(&mut self) -> u64 {
        // SplitMix64: deterministic, well-distributed priorities.
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Claims an arena slot for a fresh leaf node, writing its index to
    /// `out`. Out-parameter (not return value) so the model-purity
    /// analysis sees the caller's link variable as what it is — an
    /// arena index, not an item derivative — and certifies the index
    /// arithmetic downstream of it.
    fn alloc(&mut self, item: T, pri: u64, tag: u64, out: &mut u32) {
        assert!(
            self.nodes.len() < NIL as usize,
            "OsTree arena exhausted the u32 index space"
        );
        let i = self.nodes.len() as u32;
        self.nodes.push(Node {
            item,
            pri,
            tag,
            size: 1,
            left_size: 0,
            left: NIL,
            right: NIL,
        });
        *out = i;
    }

    #[inline]
    fn node(&self, i: u32) -> Option<&Node<T>> {
        self.nodes.get(i as usize)
    }

    /// Number of stored items.
    pub fn len(&self) -> usize {
        size(&self.nodes, self.root)
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.node(self.root).is_none()
    }

    /// Inserts `item` carrying a 64-bit tag — an augmentation slot each
    /// node stores alongside the item (the adversary keeps the arrival
    /// position there) — only if no equal item is stored; returns
    /// whether the insert happened. The split that places the item
    /// doubles as the duplicate check, so it costs a single descent.
    pub fn insert_unique_tagged(&mut self, item: T, tag: u64) -> bool {
        let pri = self.next_pri();
        let mut halves = (NIL, NIL);
        split(&mut self.nodes, self.root, &item, &mut halves);
        // `halves.1` holds everything ≥ item, so an equal occurrence,
        // if any, is exactly its minimum.
        if leftmost(&self.nodes, halves.1).is_some_and(|m| *m == item) {
            self.root = merge(&mut self.nodes, halves.0, halves.1);
            return false;
        }
        let mut idx = NIL;
        self.alloc(item, pri, tag, &mut idx);
        let lo = merge(&mut self.nodes, halves.0, idx);
        self.root = merge(&mut self.nodes, lo, halves.1);
        true
    }

    /// The tag of the stored item equal to `q`, or `None` if `q` is not
    /// stored.
    pub fn tag_of(&self, q: &T) -> Option<u64> {
        let mut n = self.node(self.root);
        while let Some(node) = n {
            match q.cmp(&node.item) {
                std::cmp::Ordering::Equal => return Some(node.tag),
                std::cmp::Ordering::Less => n = self.node(node.left),
                std::cmp::Ordering::Greater => n = self.node(node.right),
            }
        }
        None
    }

    /// Bulk insert of a strictly increasing run of `(item, tag)` pairs
    /// holding no stored item: builds a treap from the run in O(m)
    /// (stack-based Cartesian construction over the drawn priorities)
    /// and joins it with the existing tree in O(m + log n) expected
    /// when the run occupies a key range free of existing items (the
    /// adversary's leaf case), degrading gracefully to a treap union —
    /// O(m·log(n/m)) expected — under arbitrary interleaving. Same
    /// order-statistic answers as calling
    /// [`insert_unique_tagged`](Self::insert_unique_tagged) per pair.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `pairs` is sorted.
    pub fn extend_sorted_tagged<I: IntoIterator<Item = (T, u64)>>(&mut self, pairs: I) {
        let mut run = NIL;
        self.build_sorted(pairs, &mut run);
        self.root = union(&mut self.nodes, self.root, run);
    }

    /// Builds a heap-ordered treap from non-decreasing `pairs` in one
    /// pass: the stack holds the right spine; each new (rightmost) node
    /// absorbs the popped lower-priority suffix as its left subtree.
    fn build_sorted<I: IntoIterator<Item = (T, u64)>>(&mut self, pairs: I, out: &mut u32) {
        let mut spine = std::mem::take(&mut self.spine);
        spine.clear();
        for (item, tag) in pairs {
            debug_assert!(
                spine
                    .last()
                    .is_none_or(|&top| self.node(top).is_none_or(|n| n.item <= item)),
                "extend_sorted_tagged run is not sorted"
            );
            let pri = self.next_pri();
            let mut idx = NIL;
            self.alloc(item, pri, tag, &mut idx);
            let mut carry = NIL;
            while spine
                .last()
                .is_some_and(|&top| self.node(top).is_some_and(|n| n.pri < pri))
            {
                let top = spine.pop().expect("checked non-empty");
                set_right(&mut self.nodes, top, carry);
                carry = top;
            }
            set_left(&mut self.nodes, idx, carry);
            spine.push(idx);
        }
        // Re-attach the remaining spine bottom-up.
        let mut right = NIL;
        while let Some(top) = spine.pop() {
            set_right(&mut self.nodes, top, right);
            right = top;
        }
        self.spine = spine;
        *out = right;
    }

    /// Number of stored items strictly smaller than `q` (one less than
    /// the paper's 1-based `rank_σ(q)`).
    pub fn count_less(&self, q: &T) -> usize {
        let mut n = self.node(self.root);
        let mut acc = 0;
        while let Some(node) = n {
            if node.item < *q {
                acc += node.left_size as usize + 1;
                n = self.node(node.right);
            } else {
                n = self.node(node.left);
            }
        }
        acc
    }

    /// Number of stored items `<= q`.
    pub fn count_le(&self, q: &T) -> usize {
        let mut n = self.node(self.root);
        let mut acc = 0;
        while let Some(node) = n {
            if node.item <= *q {
                acc += node.left_size as usize + 1;
                n = self.node(node.right);
            } else {
                n = self.node(node.left);
            }
        }
        acc
    }

    /// Batched [`count_le`](Self::count_le): answers for every query of
    /// the sorted slice `qs` in **one** tree walk, written into `out`
    /// (cleared first; `out[i]` answers `qs[i]`).
    ///
    /// The query set partitions recursively at each node — queries
    /// below the node descend left, the rest descend right with the
    /// accumulator advanced — so queries sharing a descent path share
    /// its comparisons: O(m·log n) worst case like m single walks, but
    /// collapsing toward O(m + log n) when the queries are clustered
    /// (the adversary's interval scans always are).
    ///
    /// # Panics
    ///
    /// Debug-asserts that `qs` is sorted non-decreasingly.
    pub fn multi_count_le(&self, qs: &[T], out: &mut Vec<usize>) {
        debug_assert!(
            qs.iter().zip(qs.iter().skip(1)).all(|(a, b)| a <= b),
            "multi_count_le queries must be sorted"
        );
        out.clear();
        out.resize(qs.len(), 0);
        // A query q goes right (answer includes left subtree + node)
        // exactly when node.item <= q, mirroring `count_le`'s descent.
        multi_count_le_walk(&self.nodes, self.root, qs, 0, out);
    }

    /// Batched [`tag_of`](Self::tag_of) over the sorted `qs`: one walk,
    /// `out[i]` is the tag of the stored item equal to `qs[i]` (`None`
    /// when absent).
    pub fn multi_tag_of(&self, qs: &[T], out: &mut Vec<Option<u64>>) {
        debug_assert!(
            qs.iter().zip(qs.iter().skip(1)).all(|(a, b)| a <= b),
            "multi_tag_of queries must be sorted"
        );
        out.clear();
        out.resize(qs.len(), None);
        multi_tag_walk(&self.nodes, self.root, qs, out);
    }

    /// Smallest stored item strictly greater than `q` — the paper's
    /// `next(σ, q)`.
    pub fn successor(&self, q: &T) -> Option<&T> {
        let mut n = self.node(self.root);
        let mut best = None;
        while let Some(node) = n {
            if node.item > *q {
                best = Some(&node.item);
                n = self.node(node.left);
            } else {
                n = self.node(node.right);
            }
        }
        best
    }

    /// Largest stored item strictly smaller than `q` — the paper's
    /// `prev(σ, q)`.
    pub fn predecessor(&self, q: &T) -> Option<&T> {
        let mut n = self.node(self.root);
        let mut best = None;
        while let Some(node) = n {
            if node.item < *q {
                best = Some(&node.item);
                n = self.node(node.right);
            } else {
                n = self.node(node.left);
            }
        }
        best
    }

    /// The minimum item.
    pub fn min(&self) -> Option<&T> {
        leftmost(&self.nodes, self.root)
    }

    /// The maximum item.
    pub fn max(&self) -> Option<&T> {
        let mut n = self.node(self.root)?;
        while let Some(r) = self.node(n.right) {
            n = r;
        }
        Some(&n.item)
    }

    /// Visits, in order, every stored item together with its tag — the
    /// traversal snapshot/restore uses to persist arrival positions
    /// alongside the sorted stream.
    pub fn for_each_tagged(&self, f: &mut dyn FnMut(&T, u64)) {
        fn walk<'a, T>(nodes: &'a [Node<T>], link: u32, f: &mut dyn FnMut(&'a T, u64)) {
            let Some(node) = nodes.get(link as usize) else {
                return;
            };
            walk(nodes, node.left, f);
            f(&node.item, node.tag);
            walk(nodes, node.right, f);
        }
        walk(&self.nodes, self.root, f);
    }

    /// Tree height (shape tests; expected O(log n)).
    #[cfg(test)]
    pub(crate) fn height(&self) -> usize {
        fn h<T>(nodes: &[Node<T>], link: u32) -> usize {
            nodes
                .get(link as usize)
                .map_or(0, |n| 1 + h(nodes, n.left).max(h(nodes, n.right)))
        }
        h(&self.nodes, self.root)
    }
}

#[inline]
fn size<T>(nodes: &[Node<T>], link: u32) -> usize {
    nodes.get(link as usize).map_or(0, |n| n.size as usize)
}

/// Replaces a node's left child, refreshing both cached sizes. Reads
/// the (unchanged) right child's size from the arena; the new left
/// size is taken from `child`.
fn set_left<T>(nodes: &mut [Node<T>], i: u32, child: u32) {
    let cs = size(nodes, child) as u32;
    let right = match nodes.get(i as usize) {
        Some(n) => n.right,
        None => return,
    };
    let rs = size(nodes, right) as u32;
    if let Some(n) = nodes.get_mut(i as usize) {
        n.left = child;
        n.left_size = cs;
        n.size = 1 + cs + rs;
    }
}

/// Replaces a node's right child. The left subtree is untouched by
/// every caller, so its cached `left_size` is still valid and the
/// total needs no left-child lookup.
fn set_right<T>(nodes: &mut [Node<T>], i: u32, child: u32) {
    let cs = size(nodes, child) as u32;
    if let Some(n) = nodes.get_mut(i as usize) {
        n.right = child;
        n.size = 1 + n.left_size + cs;
    }
}

/// Batched `count_le` descent: `qs` (sorted) splits at each node into
/// the prefix below the node's item (descends left) and the suffix at
/// or above it (descends right carrying `acc + |left| + 1`); a query
/// reaching an empty link has accumulated its full answer.
fn multi_count_le_walk<T: Ord>(
    nodes: &[Node<T>],
    link: u32,
    qs: &[T],
    acc: usize,
    out: &mut [usize],
) {
    if qs.is_empty() {
        return;
    }
    if qs.len() == 1 {
        // A lone query needs no more partitioning: finish with the
        // plain `count_le`-style descent loop, skipping the recursion
        // frames and per-node binary searches of the general walk.
        if let (Some(q), Some(slot)) = (qs.first(), out.first_mut()) {
            let mut n = nodes.get(link as usize);
            let mut acc = acc;
            while let Some(node) = n {
                if *q < node.item {
                    n = nodes.get(node.left as usize);
                } else {
                    acc += node.left_size as usize + 1;
                    n = nodes.get(node.right as usize);
                }
            }
            *slot = acc;
        }
        return;
    }
    match nodes.get(link as usize) {
        None => out.fill(acc),
        Some(node) => {
            // Clustered batches (the adversary's interval scans) fall
            // entirely on one side at every node of the shared descent
            // path; probing the sorted slice's endpoints first answers
            // those nodes with one comparison instead of the log|qs|
            // partition scan.
            let split_at = if qs.last().is_some_and(|q| *q < node.item) {
                qs.len()
            } else if qs.first().is_some_and(|q| *q >= node.item) {
                0
            } else {
                qs.partition_point(|q| *q < node.item)
            };
            let (ql, qr) = qs.split_at(split_at);
            let (ol, or) = out.split_at_mut(ql.len());
            let below = acc + node.left_size as usize + 1;
            multi_count_le_walk(nodes, node.left, ql, acc, ol);
            multi_count_le_walk(nodes, node.right, qr, below, or);
        }
    }
}

/// Batched tag descent: queries equal to the node resolve here,
/// smaller continue left, larger right; a query falling off an empty
/// link stays `None`.
fn multi_tag_walk<T: Ord>(nodes: &[Node<T>], link: u32, qs: &[T], out: &mut [Option<u64>]) {
    if qs.is_empty() {
        return;
    }
    if qs.len() == 1 {
        // Lone query: the `tag_of` descent loop.
        if let (Some(q), Some(slot)) = (qs.first(), out.first_mut()) {
            let mut n = nodes.get(link as usize);
            *slot = None;
            while let Some(node) = n {
                match q.cmp(&node.item) {
                    std::cmp::Ordering::Equal => {
                        *slot = Some(node.tag);
                        break;
                    }
                    std::cmp::Ordering::Less => n = nodes.get(node.left as usize),
                    std::cmp::Ordering::Greater => n = nodes.get(node.right as usize),
                }
            }
        }
        return;
    }
    match nodes.get(link as usize) {
        None => out.fill(None),
        Some(node) => {
            // Same endpoint probe as `multi_count_le_walk`: a batch
            // wholly on one side of the node costs one comparison, not
            // two log|qs| partition scans.
            let below = if qs.last().is_some_and(|q| *q < node.item) {
                qs.len()
            } else if qs.first().is_some_and(|q| *q >= node.item) {
                0
            } else {
                qs.partition_point(|q| *q < node.item)
            };
            let (ql, rest) = qs.split_at(below);
            let (qeq, qr) = rest.split_at(rest.partition_point(|q| *q <= node.item));
            let (ol, orest) = out.split_at_mut(ql.len());
            let (oeq, orr) = orest.split_at_mut(qeq.len());
            multi_tag_walk(nodes, node.left, ql, ol);
            oeq.fill(Some(node.tag));
            multi_tag_walk(nodes, node.right, qr, orr);
        }
    }
}

/// Splits into `out = (items < key, items >= key)`. The key is
/// external to the arena (the item being inserted), so
/// comparing it never aliases the mutable arena borrow. The halves
/// land in an out-parameter: the purity analysis then sees the links
/// as the indices they are — only the `goes_right` comparison touches
/// the key — and the size bookkeeping below stays certified.
fn split<T: Ord>(nodes: &mut [Node<T>], link: u32, key: &T, out: &mut (u32, u32)) {
    let (goes_right, left, right) = match nodes.get(link as usize) {
        Some(n) => (*key > n.item, n.left, n.right),
        None => {
            *out = (NIL, NIL);
            return;
        }
    };
    if goes_right {
        split(nodes, right, key, out);
        set_right(nodes, link, out.0);
        out.0 = link;
    } else {
        split(nodes, left, key, out);
        set_left(nodes, link, out.1);
        out.1 = link;
    }
}

/// [`split`] keyed by a node *inside* the arena (identified by index,
/// so no item borrow outlives the mutable arena borrow); used by
/// [`union`], whose pivot item lives in the same arena as the subtree
/// being split.
fn split_idx<T: Ord>(nodes: &mut [Node<T>], link: u32, key: u32) -> (u32, u32) {
    let (less, left, right) = match (nodes.get(link as usize), nodes.get(key as usize)) {
        (Some(n), Some(k)) => (n.item < k.item, n.left, n.right),
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

fn merge<T: Ord>(nodes: &mut [Node<T>], a: u32, b: u32) -> u32 {
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

/// Minimum item of a subtree, if any (no mutation, no allocation).
fn leftmost<T>(nodes: &[Node<T>], link: u32) -> Option<&T> {
    let mut n = nodes.get(link as usize)?;
    while let Some(l) = nodes.get(n.left as usize) {
        n = l;
    }
    Some(&n.item)
}

/// Treap union: the higher-priority root stays a root, the other tree
/// is split by its item, and the halves recurse. O(m·log(n/m))
/// expected in general; when the smaller tree's key range contains no
/// items of the larger one (the adversary's leaf case) the recursion
/// degenerates into a single split path, i.e. O(m + log n).
fn union<T: Ord>(nodes: &mut [Node<T>], a: u32, b: u32) -> u32 {
    let (pa, pb) = match (nodes.get(a as usize), nodes.get(b as usize)) {
        (None, _) => return b,
        (_, None) => return a,
        (Some(an), Some(bn)) => (an.pri, bn.pri),
    };
    let (root, other) = if pa >= pb { (a, b) } else { (b, a) };
    let (lt, ge) = split_idx(nodes, other, root);
    let (rl, rr) = match nodes.get(root as usize) {
        Some(n) => (n.left, n.right),
        None => (NIL, NIL),
    };
    let nl = union(nodes, rl, lt);
    let nr = union(nodes, rr, ge);
    // set_left's size total is transiently stale (it reads the old
    // right child); set_right recomputes it from the fresh left_size.
    set_left(nodes, root, nl);
    set_right(nodes, root, nr);
    root
}
