//! Deterministic HDR-style latency histograms: integer-only log-bucketed
//! counts with exact quantile extraction and associative merge.
//!
//! The fixed-bucket histogram in [`crate::metrics`] is deliberately
//! coarse (twelve powers of four) — good enough for an at-a-glance
//! export block, useless for a p999. This module is the precision
//! companion: a log-linear bucket scheme in the style of HdrHistogram,
//! but stripped to what the determinism contract needs:
//!
//! * **Integer-only.** Bucketing is shifts and comparisons on `u64`;
//!   quantile ranks are integer ceilings. No float ever touches a value,
//!   so two runs can never disagree about a percentile.
//! * **Fixed scheme.** [`SUB_BITS`] is a compile-time constant; every
//!   histogram in the workspace uses the same [`BUCKETS`] layout, so any
//!   two histograms can merge.
//! * **Associative, commutative merge.** [`HdrHistogram::merge`] is
//!   element-wise saturating addition over the bucket array plus
//!   min/max/total folds — per-shard histograms combine into the same
//!   bytes in any grouping and any order, which is what lets the batch
//!   runners aggregate on the thread pool without the worker count
//!   leaking into the output (pinned by `tests/prop_hdr.rs`).
//! * **Bounded relative error.** A value lands in a bucket whose width
//!   is at most `1/2^SUB_BITS` of its lower bound, so a reported
//!   quantile `q` satisfies `true <= q <= true + true/32`.
//!
//! See `docs/PROFILING.md` for the bucket-scheme walkthrough and how the
//! bench baseline consumes these.

use crate::json::Json;
use nvmtypes::convert::{u64_from_usize, usize_from};

/// Sub-bucket resolution: each power-of-two octave is split into
/// `2^SUB_BITS` linear sub-buckets, bounding relative quantile error at
/// `1/2^SUB_BITS` (3.125%).
pub const SUB_BITS: u32 = 5;

/// Sub-buckets per octave (`2^SUB_BITS`).
pub const SUB: u64 = 1 << SUB_BITS;

/// Total bucket count: `SUB` exact small-value buckets (`0..SUB`), then
/// `64 - SUB_BITS` octaves of `SUB` sub-buckets each, covering all of
/// `u64` with no overflow bucket.
pub const BUCKETS: usize = 1920;

/// Bucket index for a value. Values below [`SUB`] are exact (one value
/// per bucket); above, the top `SUB_BITS + 1` significant bits select a
/// log-linear bucket.
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        return usize_from(v);
    }
    // v >= SUB, so the most significant set bit is at least SUB_BITS.
    let msb = 63 - v.leading_zeros();
    let exp = msb - SUB_BITS;
    let sub = (v >> exp) - SUB;
    usize_from(SUB + u64::from(exp) * SUB + sub)
}

/// Largest value that maps to bucket `i` (the bucket's representative:
/// quantiles report this bound, keeping estimates `>=` the true value).
fn bucket_high(i: usize) -> u64 {
    let i = u64_from_usize(i);
    if i < SUB {
        return i;
    }
    let exp = (i - SUB) / SUB;
    let sub = (i - SUB) % SUB;
    // (SUB + sub + 1) << exp, minus one; the very last bucket's bound
    // would be 2^64, so saturate to u64::MAX.
    match (SUB + sub + 1).checked_shl(u32::try_from(exp).unwrap_or(u32::MAX)) {
        Some(top) if top != 0 => top - 1,
        _ => u64::MAX,
    }
}

/// Exact percentile summary extracted from a histogram.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HdrPercentiles {
    /// Median (50th percentile), ns.
    pub p50: u64,
    /// 90th percentile, ns.
    pub p90: u64,
    /// 99th percentile, ns.
    pub p99: u64,
    /// 99.9th percentile, ns.
    pub p999: u64,
    /// Exact largest recorded value, ns.
    pub max: u64,
}

/// A deterministic log-bucketed histogram over `u64` values.
///
/// `Eq` compares the full bucket array; two histograms are equal iff
/// they render identically.
#[derive(Clone, PartialEq, Eq)]
pub struct HdrHistogram {
    counts: Vec<u64>,
    total: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for HdrHistogram {
    fn default() -> HdrHistogram {
        HdrHistogram::new()
    }
}

impl HdrHistogram {
    /// New empty histogram.
    ///
    /// Allocates the bucket vector, which is the histogram.
    /// `ssd::qos::SsdDevice::serve` builds one per tenant in its setup,
    /// once per run, and returns it in `TenantRunStats`; the request
    /// loop itself allocates nothing per request (`tests/alloc_budget.rs`).
    pub fn new() -> HdrHistogram {
        HdrHistogram {
            counts: vec![0; BUCKETS],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` observations of `value` at once.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        if let Some(c) = self.counts.get_mut(bucket_index(value)) {
            *c = c.saturating_add(n);
        }
        self.total = self.total.saturating_add(n);
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Folds `other` into `self`: element-wise bucket addition plus
    /// min/max/total/sum folds. Associative and commutative, so shard
    /// order and grouping are invisible in the result.
    pub fn merge(&mut self, other: &HdrHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a = a.saturating_add(*b);
        }
        self.total = self.total.saturating_add(other.total);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Observations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Saturating sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Value at quantile `num/den` (e.g. `999/1000` for p999): the
    /// representative bound of the bucket holding the observation of
    /// integer rank `ceil(total * num / den)`, clamped to the exact
    /// recorded maximum. 0 when empty. The estimate `q` of a true
    /// quantile value `t` satisfies `t <= q <= t + t/SUB`.
    pub fn value_at_quantile(&self, num: u64, den: u64) -> u64 {
        if self.total == 0 || den == 0 {
            return 0;
        }
        let product = self.total.saturating_mul(num);
        let rank = (product.div_ceil(den)).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                return bucket_high(i).min(self.max);
            }
        }
        self.max
    }

    /// The standard percentile block: p50/p90/p99/p999 plus exact max.
    pub fn percentiles(&self) -> HdrPercentiles {
        HdrPercentiles {
            p50: self.value_at_quantile(1, 2),
            p90: self.value_at_quantile(9, 10),
            p99: self.value_at_quantile(99, 100),
            p999: self.value_at_quantile(999, 1000),
            max: self.max(),
        }
    }

    /// `(bucket_index, count)` pairs for non-empty buckets, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect()
    }

    /// Canonical JSON form: summary fields plus the sparse bucket list.
    /// Equal histograms render byte-identically (insertion-ordered keys,
    /// integer-only values).
    pub fn to_json(&self) -> Json {
        let p = self.percentiles();
        let buckets = self
            .nonzero_buckets()
            .into_iter()
            .map(|(i, c)| Json::Arr(vec![Json::u64(u64_from_usize(i)), Json::u64(c)]))
            .collect();
        Json::obj()
            .field("scheme", Json::u64(u64::from(SUB_BITS)))
            .field("count", Json::u64(self.total))
            .field("sum", Json::u64(self.sum))
            .field("min", Json::u64(self.min()))
            .field("max", Json::u64(self.max))
            .field("p50", Json::u64(p.p50))
            .field("p90", Json::u64(p.p90))
            .field("p99", Json::u64(p.p99))
            .field("p999", Json::u64(p.p999))
            .field("buckets", Json::Arr(buckets))
    }

    /// Canonical serialized form ([`HdrHistogram::to_json`], rendered).
    pub fn encode(&self) -> String {
        self.to_json().render()
    }
}

/// Compact `Debug`: summary numbers and the sparse buckets, not 1920
/// zeroes — `RunReport`'s `{:?}` rendering embeds this, and the
/// determinism tests diff those strings.
impl std::fmt::Debug for HdrHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HdrHistogram")
            .field("count", &self.total)
            .field("sum", &self.sum)
            .field("min", &self.min())
            .field("max", &self.max)
            .field("buckets", &self.nonzero_buckets())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = HdrHistogram::new();
        for v in 0..SUB {
            h.record(v);
        }
        for v in 0..SUB {
            assert_eq!(bucket_high(bucket_index(v)), v, "value {v} is exact");
        }
        assert_eq!(h.total(), SUB);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), SUB - 1);
    }

    #[test]
    fn buckets_are_contiguous_and_monotonic() {
        let mut prev_high = None;
        for i in 0..BUCKETS {
            let high = bucket_high(i);
            if let Some(p) = prev_high {
                assert!(high > p, "bucket {i} bound {high} not above {p}");
            }
            prev_high = Some(high);
        }
        assert_eq!(bucket_high(BUCKETS - 1), u64::MAX);
        // Every bucket's bound maps back into itself.
        for i in 0..BUCKETS {
            assert_eq!(bucket_index(bucket_high(i)), i, "bound of bucket {i}");
        }
    }

    #[test]
    fn index_covers_the_boundaries() {
        for v in [
            0,
            1,
            SUB - 1,
            SUB,
            SUB + 1,
            2 * SUB - 1,
            2 * SUB,
            1 << 20,
            (1 << 20) + 1,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let i = bucket_index(v);
            assert!(i < BUCKETS, "value {v} -> index {i} out of range");
            assert!(bucket_high(i) >= v, "value {v} above its bucket bound");
        }
    }

    #[test]
    fn quantiles_bracket_the_truth() {
        let mut h = HdrHistogram::new();
        let values: Vec<u64> = (1..=10_000).map(|i| i * 37 + (i % 11) * 1000).collect();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for (num, den) in [(1, 2), (9, 10), (99, 100), (999, 1000)] {
            let rank = usize_from((u64_from_usize(sorted.len()) * num).div_ceil(den).max(1));
            let truth = sorted[rank - 1];
            let est = h.value_at_quantile(num, den);
            assert!(est >= truth, "p{num}/{den}: {est} < true {truth}");
            assert!(
                est <= truth + truth / SUB,
                "p{num}/{den}: {est} above error bound for {truth}"
            );
        }
        assert_eq!(h.percentiles().max, *sorted.last().unwrap());
    }

    #[test]
    fn empty_histogram_is_all_zeroes() {
        let h = HdrHistogram::new();
        assert_eq!(h.percentiles(), HdrPercentiles::default());
        assert_eq!(h.min(), 0);
        assert_eq!(h.value_at_quantile(1, 2), 0);
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let mut all = HdrHistogram::new();
        let mut a = HdrHistogram::new();
        let mut b = HdrHistogram::new();
        for i in 0..1000u64 {
            let v = i * i + 17;
            all.record(v);
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, all);
        assert_eq!(merged.encode(), all.encode());
        // Commutes.
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ba, merged);
    }

    #[test]
    fn debug_is_compact() {
        let mut h = HdrHistogram::new();
        h.record(5);
        let s = format!("{h:?}");
        assert!(s.contains("count: 1"));
        assert!(s.len() < 200, "debug form must stay sparse: {s}");
    }
}
