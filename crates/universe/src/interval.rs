//! Open intervals over the universe, with ±∞ endpoints.

use std::cmp::Ordering;
use std::fmt;

use crate::item::Item;

/// One end of an open interval: −∞, a concrete item, or +∞.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// Below every item.
    NegInf,
    /// A concrete universe item.
    Finite(Item),
    /// Above every item.
    PosInf,
}

impl Endpoint {
    /// Returns the contained item, if finite.
    pub fn as_item(&self) -> Option<&Item> {
        match self {
            Endpoint::Finite(it) => Some(it),
            _ => None,
        }
    }

    fn rank_class(&self) -> u8 {
        match self {
            Endpoint::NegInf => 0,
            Endpoint::Finite(_) => 1,
            Endpoint::PosInf => 2,
        }
    }

    /// Compares an endpoint against a concrete item, with −∞ below and
    /// +∞ above everything.
    pub fn cmp_item(&self, item: &Item) -> Ordering {
        match self {
            Endpoint::NegInf => Ordering::Less,
            Endpoint::Finite(e) => e.cmp(item),
            Endpoint::PosInf => Ordering::Greater,
        }
    }
}

impl PartialOrd for Endpoint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Endpoint {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Endpoint::Finite(a), Endpoint::Finite(b)) => a.cmp(b),
            _ => self.rank_class().cmp(&other.rank_class()),
        }
    }
}

impl fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::NegInf => write!(f, "-inf"),
            Endpoint::Finite(it) => write!(f, "{it:?}"),
            Endpoint::PosInf => write!(f, "+inf"),
        }
    }
}

/// An open interval `(lo, hi)` of the universe with `lo < hi`.
///
/// The adversarial construction maintains one such "current interval" per
/// stream; all items appended at a node of the recursion tree are drawn
/// from inside it, and `RefineIntervals` replaces it with a strictly
/// nested one in an extreme region of the largest gap.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Interval {
    lo: Endpoint,
    hi: Endpoint,
}

impl Interval {
    /// The whole universe `(−∞, +∞)`.
    pub fn whole() -> Self {
        Interval {
            lo: Endpoint::NegInf,
            hi: Endpoint::PosInf,
        }
    }

    /// An open interval between two concrete items.
    ///
    /// # Panics
    ///
    /// Panics unless `lo < hi`.
    pub fn open(lo: Item, hi: Item) -> Self {
        assert!(lo < hi, "interval requires lo < hi");
        Interval {
            lo: Endpoint::Finite(lo),
            hi: Endpoint::Finite(hi),
        }
    }

    /// An open interval between two endpoints.
    ///
    /// # Panics
    ///
    /// Panics unless `lo < hi`.
    pub fn new(lo: Endpoint, hi: Endpoint) -> Self {
        assert!(lo < hi, "interval requires lo < hi");
        assert!(lo != Endpoint::PosInf && hi != Endpoint::NegInf);
        Interval { lo, hi }
    }

    /// Everything above `lo` — used by the biased-quantiles phase
    /// construction, which always appends items larger than all before.
    pub fn above(lo: Item) -> Self {
        Interval {
            lo: Endpoint::Finite(lo),
            hi: Endpoint::PosInf,
        }
    }

    /// The low endpoint.
    pub fn lo(&self) -> &Endpoint {
        &self.lo
    }

    /// The high endpoint.
    pub fn hi(&self) -> &Endpoint {
        &self.hi
    }

    /// The finite endpoints, as range bounds (`None` for an infinite
    /// side).
    pub fn finite_bounds(&self) -> (Option<&Item>, Option<&Item>) {
        (self.lo.as_item(), self.hi.as_item())
    }

    /// Open-interval membership.
    pub fn contains(&self, item: &Item) -> bool {
        self.lo.cmp_item(item) == Ordering::Less && self.hi.cmp_item(item) == Ordering::Greater
    }

    /// Whether `other` is contained in `self` (not necessarily strictly).
    pub fn encloses(&self, other: &Interval) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:?}, {:?})", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(bytes: &[u8]) -> Item {
        Item::from_label(bytes.to_vec())
    }

    #[test]
    fn endpoint_ordering() {
        let a = Endpoint::Finite(item(&[5]));
        let b = Endpoint::Finite(item(&[9]));
        assert!(Endpoint::NegInf < a);
        assert!(a < b);
        assert!(b < Endpoint::PosInf);
        assert!(Endpoint::NegInf < Endpoint::PosInf);
    }

    #[test]
    fn whole_contains_everything() {
        let iv = Interval::whole();
        assert!(iv.contains(&item(&[0, 1])));
        assert!(iv.contains(&item(&[255, 255])));
    }

    #[test]
    fn open_interval_excludes_endpoints() {
        let iv = Interval::open(item(&[10]), item(&[20]));
        assert!(!iv.contains(&item(&[10])));
        assert!(!iv.contains(&item(&[20])));
        assert!(iv.contains(&item(&[15])));
        assert!(!iv.contains(&item(&[5])));
        assert!(!iv.contains(&item(&[25])));
    }

    #[test]
    fn encloses_is_reflexive_and_respects_nesting() {
        let big = Interval::open(item(&[1]), item(&[100]));
        let small = Interval::open(item(&[10]), item(&[20]));
        assert!(big.encloses(&big));
        assert!(big.encloses(&small));
        assert!(!small.encloses(&big));
        assert!(Interval::whole().encloses(&big));
    }

    #[test]
    #[should_panic(expected = "lo < hi")]
    fn degenerate_interval_rejected() {
        Interval::open(item(&[10]), item(&[10]));
    }
}
