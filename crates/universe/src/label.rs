//! Fractional-indexing label algebra.
//!
//! Labels are byte strings ordered lexicographically, with the invariant
//! that no label ends in `0x00`. Under that invariant, a strictly
//! in-between label exists for every pair `a < b` and [`between_labels`]
//! constructs one. `None` endpoints stand for −∞ (low side) and +∞
//! (high side) respectively.
//!
//! The construction is the classic midpoint algorithm used by fractional
//! indexing systems, here with base-256 digits: strip the common prefix,
//! then either take a middle digit or recurse with the low label's tail
//! against +∞.

const HALF: u8 = 128;

/// Returns a label strictly between `a` and `b`, where `None` on the low
/// side means −∞ and `None` on the high side means +∞.
///
/// Both inputs, when present, must be non-empty, must not end in `0x00`,
/// and must satisfy `a < b`. The returned label preserves the
/// no-trailing-zero invariant.
///
/// # Panics
///
/// Panics if the inputs violate the preconditions.
pub fn between_labels(a: Option<&[u8]>, b: Option<&[u8]>) -> Vec<u8> {
    if let Some(a) = a {
        assert!(!a.is_empty(), "finite label must be non-empty");
        assert!(*a.last().unwrap() != 0, "label must not end in 0x00");
    }
    if let Some(b) = b {
        assert!(!b.is_empty(), "finite label must be non-empty");
        assert!(*b.last().unwrap() != 0, "label must not end in 0x00");
    }
    if let (Some(a), Some(b)) = (a, b) {
        assert!(a < b, "between_labels requires a < b, got {a:?} !< {b:?}");
    }
    let mut out = Vec::new();
    midpoint(a.unwrap_or(&[]), b, &mut out);
    debug_assert!(!out.is_empty());
    debug_assert!(*out.last().unwrap() != 0);
    if let Some(a) = a {
        debug_assert!(out.as_slice() > a);
    }
    if let Some(b) = b {
        debug_assert!(out.as_slice() < b);
    }
    out
}

/// [`between_labels`] minus the precondition re-checks and the fresh
/// allocation — for crate callers whose construction guarantees the
/// invariants (balanced subdivision maintains `lo < mid < hi` and the
/// no-trailing-zero rule by induction, and
/// [`crate::generate_labels_into`] validates the run's outer endpoints
/// once up front). The checked entry point re-compares `a < b` —
/// O(label depth) — and allocates a `Vec` on every call, which together
/// dominated minting a dense run under a deeply refined interval; this
/// one writes into a caller-pooled buffer instead.
pub(crate) fn between_labels_into(a: Option<&[u8]>, b: Option<&[u8]>, out: &mut Vec<u8>) {
    out.clear();
    midpoint(a.unwrap_or(&[]), b, out);
    debug_assert!(!out.is_empty());
    debug_assert!(*out.last().unwrap() != 0);
    if let Some(a) = a {
        debug_assert!(out.as_slice() > a);
    }
    if let Some(b) = b {
        debug_assert!(out.as_slice() < b);
    }
}

/// Midpoint between `a` (empty slice = −∞ side, i.e. all-zero padding)
/// and `b` (`None` = +∞). Requires `a < b` where the empty `a` compares
/// below everything and `None` `b` above everything.
///
/// Iterative: the shared prefix, the split digit, and the low-side
/// descent are all appended to ONE caller-provided output vector. The
/// recursive formulation allocated a fresh `Vec` per nesting level,
/// which made minting under a deeply refined interval (label depth
/// Θ(εN) in the worst case) allocation-bound.
fn midpoint(mut a: &[u8], mut b: Option<&[u8]>, out: &mut Vec<u8>) {
    // Copy the common prefix (treating `a` as zero-padded past its end).
    // `a < b` guarantees the prefix never consumes all of `b`, so the
    // tail stays non-empty.
    if let Some(bs) = b {
        let i = padded_common_prefix(a, bs);
        if i > 0 {
            out.extend_from_slice(bs.get(..i).unwrap_or(bs));
            a = a.get(i..).unwrap_or(&[]);
            b = bs.get(i..).filter(|t| !t.is_empty());
        }
    }
    // First digits differ (or b = +∞).
    let da = u16::from(digit(a, 0));
    let db = match b.and_then(|bs| bs.first()) {
        Some(&d) => u16::from(d),
        None => 256,
    };
    debug_assert!(da < db, "midpoint precondition violated: {da} >= {db}");
    if db - da > 1 {
        // A digit strictly between exists; it is nonzero because db >= 2.
        let mid = ((da + db) / 2) as u8;
        debug_assert!(u16::from(mid) > da && u16::from(mid) < db);
        out.push(mid);
    } else {
        // Consecutive first digits: descend on the low side, unconstrained
        // above. `[da] ++ x` with `x > a[1..]` sits strictly inside; `x`
        // copies `a`'s maximal 0xFF run, then one digit above the first
        // non-0xFF digit (or HALF past `a`'s end) beats any tail.
        out.push(da as u8);
        let mut rest = a.get(1..).unwrap_or(&[]);
        loop {
            match rest.first() {
                None => {
                    out.push(HALF);
                    break;
                }
                Some(&a0) if a0 < u8::MAX => {
                    let mid = ((u16::from(a0) + 256) / 2) as u8;
                    debug_assert!(mid > a0);
                    out.push(mid);
                    break;
                }
                Some(&a0) => {
                    out.push(a0);
                    rest = rest.get(1..).unwrap_or(&[]);
                }
            }
        }
    }
}

#[inline]
fn digit(a: &[u8], i: usize) -> u8 {
    a.get(i).copied().unwrap_or(0)
}

/// Length of the common prefix of `a` — treated as zero-padded past its
/// end — and `b`. The overlap is scanned one `u64` word at a time
/// (refinement nests labels ~k bytes deep, so the byte-wise scan
/// dominated minting); the little-endian view makes the first differing
/// byte the XOR's lowest nonzero byte on every platform.
fn padded_common_prefix(a: &[u8], b: &[u8]) -> usize {
    const W: usize = 8;
    let overlap = a.len().min(b.len());
    let mut i = 0;
    while i + W <= overlap {
        let wa = u64::from_le_bytes(a[i..i + W].try_into().expect("8-byte chunk"));
        let wb = u64::from_le_bytes(b[i..i + W].try_into().expect("8-byte chunk"));
        if wa != wb {
            return i + ((wa ^ wb).trailing_zeros() / 8) as usize;
        }
        i += W;
    }
    while i < overlap {
        if a.get(i) != b.get(i) {
            return i;
        }
        i += 1;
    }
    // `a` exhausted: its zero padding keeps matching while `b` runs 0x00.
    while b.get(i) == Some(&0) {
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(a: Option<&[u8]>, b: Option<&[u8]>) -> Vec<u8> {
        let m = between_labels(a, b);
        if let Some(a) = a {
            assert!(m.as_slice() > a, "{m:?} !> {a:?}");
        }
        if let Some(b) = b {
            assert!(m.as_slice() < b, "{m:?} !< {b:?}");
        }
        assert!(*m.last().unwrap() != 0);
        m
    }

    #[test]
    fn midpoint_of_whole_universe() {
        assert_eq!(check(None, None), vec![HALF]);
    }

    #[test]
    fn midpoint_simple_digits() {
        assert_eq!(check(Some(&[10]), Some(&[20])), vec![15]);
    }

    #[test]
    fn consecutive_digits_recurse() {
        // Between [10] and [11] nothing fits in one digit.
        let m = check(Some(&[10]), Some(&[11]));
        assert_eq!(m[0], 10);
        assert!(m.len() > 1);
    }

    #[test]
    fn shared_prefix_is_kept() {
        let m = check(Some(&[5, 5]), Some(&[5, 9]));
        assert_eq!(m[0], 5);
    }

    #[test]
    fn prefix_of_each_other() {
        // a = [5], b = [5, 1]: the in-between label must start 5, 0, ...
        let m = check(Some(&[5]), Some(&[5, 1]));
        assert!(m.starts_with(&[5, 0]));
    }

    #[test]
    fn below_smallest_positive() {
        // (−∞, [1]) — must produce something starting with 0.
        let m = check(None, Some(&[1]));
        assert_eq!(m[0], 0);
    }

    #[test]
    fn above_max_digit_chain() {
        let m = check(Some(&[255, 255]), None);
        assert!(m.as_slice() > &[255u8, 255][..]);
    }

    #[test]
    fn repeated_splitting_low_side_terminates_quickly() {
        // Repeatedly halve toward the low endpoint; length growth is linear
        // in iterations but every step succeeds.
        let mut hi = vec![HALF];
        for _ in 0..200 {
            let m = check(None, Some(&hi));
            hi = m;
        }
    }

    #[test]
    fn repeated_splitting_high_side() {
        let mut lo = vec![HALF];
        for _ in 0..200 {
            let m = check(Some(&lo), None);
            lo = m;
        }
    }

    #[test]
    fn dense_interval_split() {
        // Keep splitting the same narrow interval; a fresh label must exist
        // every time (continuity of the universe).
        let mut lo = vec![7];
        let hi = vec![7, 1];
        for _ in 0..100 {
            lo = check(Some(&lo), Some(&hi));
        }
    }

    #[test]
    #[should_panic(expected = "requires a < b")]
    fn rejects_equal_labels() {
        between_labels(Some(&[3]), Some(&[3]));
    }

    #[test]
    #[should_panic(expected = "must not end in 0x00")]
    fn rejects_trailing_zero() {
        between_labels(Some(&[3, 0]), Some(&[4]));
    }
}
