//! Checked numeric conversions for unit arithmetic.
//!
//! The simulator mixes `u32` geometry counts, `u64` byte/nanosecond
//! quantities, and `f64` bandwidth/energy figures. A bare `as` cast at
//! each mixing point hides where precision can be lost; `simlint`'s
//! `bare_cast` rule steers every such conversion through this module (or
//! through std's lossless `From`/`TryFrom`), so the lossy spots are
//! named, documented, and auditable in one place.
//!
//! Conventions:
//!
//! * `u64::from(x)` / `f64::from(x)` — use std directly for lossless
//!   widenings; no wrapper is provided.
//! * [`usize_from`] / [`u64_from_usize`] — index↔quantity conversions
//!   that are lossless on the 64-bit targets the simulator supports and
//!   saturate (with a debug assertion) anywhere else.
//! * [`approx_f64`] — an *explicitly approximate* `u64 → f64` for
//!   ratios, axes, and reports, where ULP error above 2^53 is
//!   acceptable by design.
//! * [`trunc_u64`] / [`try_u32`] — the two narrowing directions, with
//!   saturation and `Option` respectively.
//!
//! The handful of `as` casts implementing these helpers are the
//! allowlisted remainder for this file in `simlint.allow`.

/// Converts a `u64` quantity to a `usize` index.
///
/// Lossless on 64-bit targets (everything the simulator supports); on a
/// narrower target it saturates to `usize::MAX` and trips a debug
/// assertion rather than wrapping silently.
#[inline]
#[must_use]
pub fn usize_from(n: u64) -> usize {
    debug_assert!(usize::try_from(n).is_ok(), "index {n} exceeds usize::MAX");
    usize::try_from(n).unwrap_or(usize::MAX)
}

/// Converts a `u32` count to a `usize` index (lossless on 32- and
/// 64-bit targets).
#[inline]
#[must_use]
pub fn usize_from_u32(n: u32) -> usize {
    usize::try_from(n).unwrap_or(usize::MAX)
}

/// Converts a `usize` index back to a `u64` quantity.
///
/// Lossless on every target Rust supports (`usize` is at most 64 bits).
#[inline]
#[must_use]
pub fn u64_from_usize(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// Explicitly approximate `u64 → f64` for ratios and reporting.
///
/// Above 2^53 the nearest representable double is returned; callers use
/// this for bandwidth/utilisation/percentage arithmetic where that is
/// fine, never for values that flow back into integer simulated time.
#[inline]
#[must_use]
#[expect(
    clippy::as_conversions,
    reason = "the one audited u64 -> f64 rounding; no lossless std conversion exists"
)]
pub fn approx_f64(n: u64) -> f64 {
    n as f64
}

/// Truncating, saturating `f64 → u64` (NaN maps to 0).
///
/// This is Rust's own saturating `as` semantics, given a name: use it
/// after `ceil()`/rounding when a computed duration or size re-enters
/// integer arithmetic.
#[inline]
#[must_use]
#[expect(
    clippy::as_conversions,
    reason = "the one audited f64 -> u64 saturating truncation; std has no named form"
)]
pub fn trunc_u64(x: f64) -> u64 {
    x as u64
}

/// Checked `u64 → u32` narrowing for geometry-sized values.
#[inline]
#[must_use]
pub fn try_u32(n: u64) -> Option<u32> {
    u32::try_from(n).ok()
}

/// Saturating `u64 → u32` narrowing for values bounded by construction
/// (die/channel/plane indices already reduced modulo a `u32` geometry
/// count). Saturates and trips a debug assertion if the bound is ever
/// violated.
#[inline]
#[must_use]
pub fn u32_from(n: u64) -> u32 {
    debug_assert!(u32::try_from(n).is_ok(), "value {n} exceeds u32::MAX");
    u32::try_from(n).unwrap_or(u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_are_exact_in_range() {
        for n in [0u64, 1, 4096, u64::from(u32::MAX)] {
            assert_eq!(u64_from_usize(usize_from(n)), n);
        }
        assert_eq!(usize_from_u32(u32::MAX), u32::MAX as usize);
    }

    #[test]
    fn trunc_saturates_and_zeroes_nan() {
        assert_eq!(trunc_u64(3.9), 3);
        assert_eq!(trunc_u64(-1.0), 0);
        assert_eq!(trunc_u64(f64::INFINITY), u64::MAX);
        assert_eq!(trunc_u64(f64::NAN), 0);
    }

    #[test]
    fn try_u32_rejects_overflow() {
        assert_eq!(try_u32(12), Some(12));
        assert_eq!(try_u32(u64::from(u32::MAX) + 1), None);
    }

    #[test]
    fn approx_is_exact_below_2_53() {
        let n = (1u64 << 53) - 1;
        assert_eq!(approx_f64(n), n as f64);
        assert_eq!(trunc_u64(approx_f64(n)), n);
    }
}
