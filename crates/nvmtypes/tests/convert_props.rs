//! Property tests for the `nvmtypes::convert` checked-conversion helpers.
//!
//! These helpers are the single audited choke point clippy steers all
//! unit arithmetic through (its `as_conversions` lint); the properties here
//! pin the contract that makes that steering safe: in-range round trips
//! are exact, narrowings reject or saturate instead of wrapping, and the
//! explicitly-approximate path is exact below 2^53.

use nvmtypes::{
    approx_f64, trunc_u64, try_u32, u32_from, u64_from_usize, usize_from, usize_from_u32,
};
use proptest::prelude::*;

proptest! {
    // --- round trips (lossless in range) -----------------------------

    #[test]
    fn u64_usize_round_trip(n in prop::num::u64::ANY) {
        // Targets are 64-bit here, so every u64 survives the round trip.
        prop_assert_eq!(u64_from_usize(usize_from(n)), n);
    }

    #[test]
    fn u32_usize_round_trip(n in prop::num::u32::ANY) {
        prop_assert_eq!(u64_from_usize(usize_from_u32(n)), u64::from(n));
    }

    #[test]
    fn u32_narrowing_round_trip(n in prop::num::u32::ANY) {
        let wide = u64::from(n);
        prop_assert_eq!(try_u32(wide), Some(n));
        prop_assert_eq!(u32_from(wide), n);
    }

    // --- overflow rejection ------------------------------------------

    #[test]
    fn try_u32_rejects_everything_above_u32_max(n in (u64::from(u32::MAX) + 1)..=u64::MAX) {
        prop_assert_eq!(try_u32(n), None);
    }

    // --- approximate path ---------------------------------------------

    #[test]
    fn approx_is_exact_below_2_53(n in 0u64..(1u64 << 53)) {
        // Integers up to 2^53 are exactly representable as f64, so the
        // explicitly-approximate helper is in fact exact on this range
        // and truncation inverts it.
        prop_assert_eq!(trunc_u64(approx_f64(n)), n);
    }

    #[test]
    fn approx_is_monotone(a in prop::num::u64::ANY, b in prop::num::u64::ANY) {
        // Even above 2^53 (where rounding to the nearest double loses
        // low bits) the mapping must never reorder quantities.
        if a <= b {
            prop_assert!(approx_f64(a) <= approx_f64(b));
        } else {
            prop_assert!(approx_f64(a) >= approx_f64(b));
        }
    }

    // --- truncation saturates, never wraps ---------------------------

    #[test]
    fn trunc_is_saturating_and_ordered(x in -1.0e30f64..1.0e30) {
        let t = trunc_u64(x);
        if x <= 0.0 {
            prop_assert_eq!(t, 0);
        } else if x < approx_f64(u64::MAX) {
            // Truncation is within 1 of the real value below the ceiling.
            prop_assert!(approx_f64(t) <= x);
            prop_assert!(x - approx_f64(t) < 1.0 || t == u64::MAX);
        } else {
            prop_assert_eq!(t, u64::MAX);
        }
    }

    #[test]
    fn trunc_inverts_ceil_of_positive_ratios(num in 1u64..1_000_000_000, den in 1u64..1_000_000) {
        // The simulator's canonical use: ns = ceil(bytes / rate) re-entering
        // integer time. ceil of a positive finite ratio is >= 1 and exact.
        let ratio = approx_f64(num) / approx_f64(den);
        let ns = trunc_u64(ratio.ceil());
        prop_assert!(ns >= 1);
        prop_assert!(approx_f64(ns) >= ratio);
        prop_assert!(approx_f64(ns) - ratio < 1.0);
    }
}

#[test]
fn trunc_zeroes_nan() {
    assert_eq!(trunc_u64(f64::NAN), 0);
    assert_eq!(trunc_u64(f64::NEG_INFINITY), 0);
    assert_eq!(trunc_u64(f64::INFINITY), u64::MAX);
}
