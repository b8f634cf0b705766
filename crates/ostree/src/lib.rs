//! An order-statistic treap over run fragments, for the adversary's two
//! streams.
//!
//! The lower-bound adversary of Cormode & Veselý needs, for each of the
//! two streams it grows, the quantities `rank_σ(a)` (position of item `a`
//! in the sorted order of stream σ), `next(σ, a)` (the successor of `a`
//! among σ's items), `prev(σ, b)`, the stream's minimum and maximum, and
//! each item's arrival position — over streams of distinct items that
//! grow to millions of items. The streams grow in runs, so [`RunTree`]
//! indexes them by run fragment: a treap over contiguous blocks of
//! items with cached counts. It finds the fragment a query lands in and
//! the count of items to its left in O(log #fragments) expected time;
//! the adversary's stream index answers the position inside the
//! fragment from the run's stored items or its label generator.
//!
//! Priorities come from an internal deterministic SplitMix64 sequence, so
//! a tree built by the same sequence of inserts always has the same
//! shape: every experiment in this repository is exactly replayable.
//!
//! # Example
//!
//! ```
//! use cqs_ostree::{Fragment, RunTree};
//!
//! // Run 0: ten items labelled 10..=19. Run 1: five items between the
//! // labels 40 and 44 (inclusive), only the endpoints materialized.
//! let mut t = RunTree::new();
//! t.insert_fragment(Fragment { lo: 40, hi: 44, count: 5, run: 1, base: 0 });
//! t.insert_fragment(Fragment { lo: 10, hi: 19, count: 10, run: 0, base: 0 });
//! assert_eq!(t.virtual_len(), 15);
//!
//! // A probe inside a fragment: the items to its left, and the fragment.
//! let l = t.locate(&42);
//! assert_eq!(l.before, 10);
//! assert_eq!(l.hit.map(|f| f.run), Some(1));
//! // A probe in a gap hits nothing; its neighbours are whole fragments.
//! assert!(t.locate(&30).hit.is_none());
//! assert_eq!(t.last_below(&30).map(|f| f.hi), Some(19));
//! assert_eq!(t.first_above(&30).map(|f| f.lo), Some(40));
//!
//! // Splitting a fragment: remove it, then insert the pieces.
//! let f = t.remove_containing(&15).expect("15 lies in run 0");
//! t.insert_fragment(Fragment { hi: 14, count: 5, ..f.clone() });
//! t.insert_fragment(Fragment { lo: 16, count: 4, base: 6, ..f });
//! assert_eq!((t.fragment_count(), t.virtual_len()), (3, 14));
//! ```

mod runs;

pub use runs::{Fragment, Locate, RunTree};
