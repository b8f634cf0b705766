//! Fixture: a "summary" that leaves the comparison model three ways.
//! Never compiled — scanned by the rule tests in ../rules.rs.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::Add;

pub struct Sketch<T> {
    items: Vec<T>,
}

impl<T: Ord + Add<Output = T>> Sketch<T> {
    pub fn centroid_weight(&self, x: f64) -> u64 {
        x.to_bits()
    }

    pub fn invent(&self) -> Vec<u8> {
        from_label(b"made-up")
    }
}
