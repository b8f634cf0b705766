//! On-demand replay of a minted run — the implicit stream's label oracle.
//!
//! [`crate::generate_labels_into`] mints a run of `n` labels inside an
//! open interval by deterministic balanced subdivision: `fill_labels(lo,
//! hi, n)` computes `mid = between(lo, hi)`, recurses on the left half
//! (`m = n/2` labels), emits `mid` (the `m`-th label, 0-based), and
//! recurses on the right half. The label at every in-order index is
//! therefore a **pure function of `(lo, hi, n)`** — nothing about it
//! depends on the rest of the stream.
//!
//! A [`RunGenerator`] exploits this: it stores only the interval
//! endpoints and the count, and answers
//!
//! * [`label_at`](RunGenerator::label_at) — the `j`-th label of the run, and
//! * [`position`](RunGenerator::position) — the index of an exact label,
//!   or else how many run labels compare below the probe,
//!
//! each in O(log n) midpoint computations, by descending the same
//! subdivision the minting walk performed. Every answer is
//! byte-identical to what the materialized run would give, because both
//! replay the identical [`crate::between_labels`] recursion — that
//! equality is what lets the adversary's interval-compressed stream
//! representation drop O(N) stored items without changing a single
//! observable comparison outcome.

use crate::arena::run_first_id;
use crate::item::Item;
use crate::label::between_labels_into;
use crate::Interval;

/// The label oracle of one minted run: `count` virtual items strictly
/// inside the open interval `(lo, hi)`, in the exact byte order the
/// materialized [`crate::generate_increasing`] run would have.
#[derive(Clone)]
pub struct RunGenerator {
    lo: Option<Item>,
    hi: Option<Item>,
    count: u64,
    /// Arena id of the replayed run's item 0, when its ids are
    /// consecutive: re-mints then carry their original's id.
    first_id: Option<u32>,
}

impl RunGenerator {
    /// A generator for the run of `count` items the balanced subdivision
    /// mints inside `interval`. It keeps [detached](Item::detached)
    /// endpoints, so it pins only their labels, not their seal groups.
    ///
    /// # Panics
    ///
    /// Panics on the same endpoint violations
    /// [`crate::generate_labels_into`] rejects: an empty or
    /// trailing-`0x00` finite label.
    pub fn new(interval: &Interval, count: u64) -> Self {
        let (lo, hi) = crate::mint_bounds(interval);
        RunGenerator {
            lo: lo.map(Item::detached),
            hi: hi.map(Item::detached),
            count,
            first_id: None,
        }
    }

    /// The generator replaying `run`, the items the balanced subdivision
    /// minted inside `interval`. When the run's ids are consecutive, as a
    /// sealed run's are ([`run_first_id`]), [`item_at`](Self::item_at)
    /// re-mints item `j` with the original's id. Panics as
    /// [`new`](Self::new); debug builds also check the replay's first
    /// and last labels against the run's.
    pub fn of_run(interval: &Interval, run: &[Item]) -> Self {
        let mut gen = Self::new(interval, run.len() as u64);
        gen.first_id = run_first_id(run);
        debug_assert!(
            run.first().zip(run.last()).is_none_or(|(a, z)| {
                gen.label_at(0) == a.label() && gen.label_at(gen.count - 1) == z.label()
            }),
            "run generator does not replay its run"
        );
        gen
    }

    /// Number of virtual items in the run.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arena id of the replayed run's item 0, for a generator built
    /// [`of_run`](Self::of_run) a run with consecutive ids.
    pub fn first_id(&self) -> Option<u32> {
        self.first_id
    }

    /// The run's exclusive low endpoint, if finite.
    pub fn lo(&self) -> Option<&Item> {
        self.lo.as_ref()
    }

    /// The run's exclusive high endpoint, if finite.
    pub fn hi(&self) -> Option<&Item> {
        self.hi.as_ref()
    }

    /// The label of the `j`-th (0-based, in label order) virtual item.
    ///
    /// # Panics
    ///
    /// Panics if `j >= count`.
    pub fn label_at(&self, j: u64) -> Vec<u8> {
        assert!(j < self.count, "run index {j} out of range {}", self.count);
        let mut lo: Option<Vec<u8>> = self.lo.as_ref().map(|i| i.label().to_vec());
        let mut hi: Option<Vec<u8>> = self.hi.as_ref().map(|i| i.label().to_vec());
        let mut n = self.count;
        let mut j = j;
        let mut mid = Vec::new();
        loop {
            let m = n / 2;
            between_labels_into(lo.as_deref(), hi.as_deref(), &mut mid);
            match j.cmp(&m) {
                std::cmp::Ordering::Equal => return mid,
                std::cmp::Ordering::Less => {
                    hi = Some(std::mem::take(&mut mid));
                    n = m;
                }
                std::cmp::Ordering::Greater => {
                    lo = Some(std::mem::take(&mut mid));
                    j -= m + 1;
                    n -= m + 1;
                }
            }
        }
    }

    /// [`label_at`](Self::label_at) wrapped into an [`Item`] that
    /// compares equal to any other materialization of the same virtual
    /// item. A generator built [`of_run`](Self::of_run) a sealed run
    /// gives it the original's arena id; otherwise it gets a fresh one.
    pub fn item_at(&self, j: u64) -> Item {
        let label = self.label_at(j);
        match self.first_id {
            // Every id of the run is valid, so `first + j` cannot overflow.
            Some(first) => Item::from_label_with_id(label, first + j as u32),
            None => Item::from_label(label),
        }
    }

    /// Where `q` falls in the run, in the shape of
    /// [`slice::binary_search`]: `Ok(index)` when a run label equals
    /// `q`, else `Err(number of run labels below q)` — membership and
    /// rank from one descent. The probe may be any byte string, inside
    /// the interval or not.
    ///
    /// The descent compares the probe against each level's midpoint
    /// label: an equal probe *is* the level's emitted label (in-run index
    /// = accumulated left count plus the left half's size), smaller
    /// probes descend left, larger descend right accumulating the left
    /// half plus the midpoint.
    pub fn position(&self, q: &[u8]) -> Result<u64, u64> {
        let mut lo: Option<Vec<u8>> = self.lo.as_ref().map(|i| i.label().to_vec());
        let mut hi: Option<Vec<u8>> = self.hi.as_ref().map(|i| i.label().to_vec());
        let mut n = self.count;
        let mut acc = 0u64;
        let mut mid = Vec::new();
        while n > 0 {
            let m = n / 2;
            between_labels_into(lo.as_deref(), hi.as_deref(), &mut mid);
            match q.cmp(mid.as_slice()) {
                std::cmp::Ordering::Equal => return Ok(acc + m),
                std::cmp::Ordering::Less => {
                    hi = Some(std::mem::take(&mut mid));
                    n = m;
                }
                std::cmp::Ordering::Greater => {
                    acc += m + 1;
                    lo = Some(std::mem::take(&mut mid));
                    n -= m + 1;
                }
            }
        }
        Err(acc)
    }
}

impl std::fmt::Debug for RunGenerator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "RunGenerator({:?}..{:?} x{})",
            self.lo, self.hi, self.count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate_increasing, Endpoint};
    use std::hash::BuildHasher;

    fn check_against_materialized(iv: &Interval, n: u64) {
        let items = generate_increasing(iv, n as usize);
        let gen = RunGenerator::of_run(iv, &items);
        let hasher = std::hash::RandomState::new();
        assert_eq!(gen.count(), n);
        // The endpoints are detached: whatever chunk the interval's items
        // share, the generator keeps only their labels.
        for (end, original) in [(gen.lo(), iv.lo()), (gen.hi(), iv.hi())] {
            if let (Some(end), Endpoint::Finite(original)) = (end, original) {
                assert_eq!(end.pinned_bytes(), end.label().len());
                assert_eq!((end.arena_id(), end), (original.arena_id(), original));
            }
        }
        for (j, it) in items.iter().enumerate() {
            assert_eq!(
                gen.label_at(j as u64),
                it.label(),
                "label_at({j}) diverged from materialized run"
            );
            assert_eq!(gen.position(it.label()), Ok(j as u64));
            // A re-mint is the original: same id, equal, same hash.
            let re = gen.item_at(j as u64);
            let hashes = (hasher.hash_one(&re), hasher.hash_one(it));
            assert_eq!((re.arena_id(), hashes.0), (it.arena_id(), hashes.1));
            assert_eq!((re.cmp(it), &re), (std::cmp::Ordering::Equal, it));
        }
        // Probes strictly between adjacent run items.
        for w in items.windows(2) {
            let probe = crate::between_labels(Some(w[0].label()), Some(w[1].label()));
            let r = gen.position(w[1].label()).expect("run item");
            assert_eq!(gen.position(&probe), Err(r));
        }
    }

    #[test]
    fn replays_whole_universe_run() {
        check_against_materialized(&Interval::whole(), 0);
        check_against_materialized(&Interval::whole(), 1);
        check_against_materialized(&Interval::whole(), 2);
        check_against_materialized(&Interval::whole(), 37);
        check_against_materialized(&Interval::whole(), 128);
    }

    #[test]
    fn replays_tight_interval_run() {
        let a = Item::from_label(vec![7]);
        let b = Item::from_label(vec![7, 1]);
        check_against_materialized(&Interval::open(a, b), 63);
    }

    #[test]
    fn replays_one_sided_intervals() {
        let a = Item::from_label(vec![128]);
        let above = Interval::new(Endpoint::Finite(a.clone()), Endpoint::PosInf);
        check_against_materialized(&above, 41);
        let below = Interval::new(Endpoint::NegInf, Endpoint::Finite(a));
        check_against_materialized(&below, 17);
    }

    #[test]
    fn probes_outside_the_interval_clamp() {
        let a = Item::from_label(vec![50]);
        let b = Item::from_label(vec![60]);
        let gen = RunGenerator::new(&Interval::open(a.clone(), b.clone()), 33);
        assert_eq!(gen.position(a.label()), Err(0));
        assert_eq!(gen.position(b.label()), Err(33));
        assert_eq!(gen.position(&[0]), Err(0));
        assert_eq!(gen.position(&[255]), Err(33));
        assert_eq!(gen.position(&[0, 1]), Err(0));
    }

    #[test]
    fn nested_generators_compose_like_nested_runs() {
        // A run minted inside an interval whose endpoints are themselves
        // items of an outer run — the refinement pattern.
        let outer = generate_increasing(&Interval::whole(), 16);
        let iv = Interval::open(outer[7].clone(), outer[8].clone());
        check_against_materialized(&iv, 29);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn label_at_rejects_out_of_range() {
        RunGenerator::new(&Interval::whole(), 4).label_at(4);
    }
}
