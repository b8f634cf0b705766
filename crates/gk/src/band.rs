//! GK band computation.
//!
//! Bands group tuples by the "age" of their uncertainty: with
//! `p = ⌊2εn⌋`, a tuple's Δ lies in band α ≥ 1 when
//!
//! ```text
//!   2^{α−1} + (p mod 2^{α−1}) ≤ p − Δ < 2^α + (p mod 2^α),
//! ```
//!
//! band 0 holds exactly Δ = p (tuples inserted "now"). Higher bands are
//! older tuples carrying more rank mass capacity; COMPRESS only merges a
//! tuple into a successor of equal or higher band, which is what caps
//! the tree height and yields the O((1/ε)·log εN) space bound.

/// The band of an uncertainty value `delta` at threshold `p = ⌊2εn⌋`.
///
/// Closed form: writing `diff = p − Δ` and `lo_α = 2^{α−1} +
/// (p mod 2^{α−1})`, the band windows `[lo_α, lo_{α+1})` tile `[1, ∞)`
/// contiguously (the window's upper end `2^α + (p mod 2^α)` IS the next
/// window's `lo`), so the band is the largest α with `lo_α ≤ diff`.
/// Since `lo_α ∈ [2^{α−1}, 2^α)`, that α is `α₀ = ⌊log₂ diff⌋ + 1` or
/// one less: `band = α₀ − (lo_{α₀} > diff)`. Both sides of that test
/// carry the same top bit 2^{α₀−1}, so it compares only the bits below
/// it, `p mod 2^{α₀−1}` against `diff mod 2^{α₀−1}`. That is a
/// `leading_zeros`, a mask and one comparison, with no data-dependent
/// branch, where the defining scan pays one iteration per candidate
/// band. `diff = 0` (Δ = p) gives α₀ = 0 and an empty mask, so band 0,
/// and the mask never shifts past 63 bits, so α₀ = 64 needs no special
/// case. COMPRESS evaluates this per stored tuple per call.
///
/// # Panics
///
/// Debug-panics if `delta > p` (no legal tuple exceeds the threshold).
pub fn band(delta: u64, p: u64) -> u32 {
    debug_assert!(delta <= p, "delta {delta} exceeds threshold {p}");
    let diff = p - delta;
    let alpha = 64 - diff.leading_zeros(); // ⌊log₂ diff⌋ + 1, 0 for diff = 0
    let low = (1u64 << alpha.saturating_sub(1)) - 1; // the bits below 2^{α−1}
    alpha - u32::from(p & low > diff & low)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The defining window scan from the paper, kept as the oracle for
    /// the closed form.
    fn band_by_scan(delta: u64, p: u64) -> u32 {
        if delta == p {
            return 0;
        }
        let diff = p - delta;
        let mut alpha = 1u32;
        while alpha < 64 {
            let half = 1u64 << (alpha - 1);
            let full = 1u64 << alpha;
            let lo = half + (p & (half - 1));
            let hi = full + (p & (full - 1));
            if diff >= lo && diff < hi {
                return alpha;
            }
            alpha += 1;
        }
        64
    }

    #[test]
    fn closed_form_matches_window_scan() {
        for p in [1u64, 2, 3, 7, 8, 9, 100, 255, 256, 1023, 1024, 65535] {
            for delta in 0..=p.min(5000) {
                assert_eq!(
                    band(delta, p),
                    band_by_scan(delta, p),
                    "mismatch at delta={delta}, p={p}"
                );
            }
            // High-Δ corner (thresholds above the exhaustive sweep).
            for delta in p.saturating_sub(300)..=p {
                assert_eq!(band(delta, p), band_by_scan(delta, p));
            }
        }
    }

    #[test]
    fn closed_form_matches_window_scan_at_the_top_bands() {
        // Thresholds near 2⁶⁴, where α reaches 64 and the masks are wide.
        for p in [1u64 << 62, (1 << 63) - 1, 1 << 63, u64::MAX - 1, u64::MAX] {
            for delta in (0..=300)
                .chain((0..300).map(|d| p / 2 + d))
                .chain(p - 300..=p)
            {
                assert_eq!(
                    band(delta, p),
                    band_by_scan(delta, p),
                    "delta={delta}, p={p}"
                );
            }
        }
        assert_eq!(band(0, u64::MAX), 64);
    }

    #[test]
    fn band_zero_is_exactly_p() {
        assert_eq!(band(10, 10), 0);
        assert_eq!(band(0, 0), 0);
    }

    #[test]
    fn every_delta_gets_a_small_band() {
        // Totality: every Δ in [0, p] falls in some band, and the number
        // of distinct bands is logarithmic in p.
        for p in [1u64, 2, 7, 8, 100, 1023, 1024] {
            let mut distinct = std::collections::BTreeSet::new();
            for delta in 0..=p {
                let b = band(delta, p);
                assert!(b < 64, "band overflowed at p={p}, delta={delta}");
                if delta == p {
                    assert_eq!(b, 0);
                } else {
                    assert!(b >= 1);
                }
                distinct.insert(b);
            }
            let log_bound = (p as f64 + 2.0).log2().ceil() as usize + 2;
            assert!(
                distinct.len() <= log_bound,
                "p={p}: {} bands exceeds log bound {log_bound}",
                distinct.len()
            );
        }
    }

    #[test]
    fn band_monotone_nonincreasing_in_delta() {
        for p in [16u64, 100, 255] {
            let mut last = u32::MAX;
            for delta in 0..=p {
                let b = band(delta, p);
                assert!(
                    b <= last,
                    "p={p}, delta={delta}: band {b} > previous {last}"
                );
                last = b;
            }
        }
    }

    #[test]
    fn freshest_delta_zero_has_highest_band() {
        for p in [4u64, 100, 4096] {
            let b0 = band(0, p);
            for delta in 1..=p {
                assert!(band(delta, p) <= b0);
            }
            // Band of Δ=0 is ~⌈log₂ p⌉.
            let expect = (p as f64).log2().ceil() as u32;
            assert!(b0 >= expect, "p={p}: band(0)={b0} < log2(p)={expect}");
            assert!(b0 <= expect + 1);
        }
    }
}
