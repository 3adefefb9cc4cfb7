//! The metric catalogue and the integer-only metric primitives:
//! counters, gauges, fixed-bucket histograms.
//!
//! Every metric the simulator records is one [`Metric`] variant, with
//! its exported name, unit and doc in one place; a [`MetricSet`] keeps
//! one slot per variant. Everything here is deterministic by
//! construction — `u64` arithmetic in catalogue (name) order, no floats,
//! no clocks — so the metric block of an export is byte-identical
//! between equal runs. Names follow the same `snake_case`, dot-scoped
//! convention as span names (`docs/OBSERVABILITY.md` lists them all).

use crate::hdr::HdrHistogram;
use nvmtypes::Nanos;

/// Declares [`Metric`] from one `Variant = "name", "doc";` row per
/// metric. Rows must be in name order (pinned by a unit test).
macro_rules! catalogue {
    ($($variant:ident = $name:literal, $doc:literal;)+) => {
        /// Every metric the simulator records, in name order.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        #[repr(u8)]
        pub enum Metric {
            $(#[doc = $doc] $variant,)+
        }

        impl Metric {
            /// The whole catalogue, in name order.
            pub const ALL: &'static [Metric] = &[$(Metric::$variant),+];

            /// The exported name, e.g. `media.die_ops`.
            pub const fn name(self) -> &'static str {
                match self { $(Metric::$variant => $name,)+ }
            }

            /// One-line description (the variant's doc).
            pub const fn doc(self) -> &'static str {
                match self { $(Metric::$variant => $doc,)+ }
            }
        }
    };
}

catalogue! {
    FsRequests = "fs.requests", "Block requests a file-system model emitted for a trace.";
    FsSyncRequests = "fs.sync_requests", "Of those, requests flagged synchronous.";
    LinkPenaltyNs = "link.penalty_ns", "Simulated ns added by link CRC replays and retrains.";
    LinkReplays = "link.replays", "Link CRC replays.";
    LinkRetrains = "link.retrains", "Link retrains.";
    MediaBusyNs = "media.busy_ns", "Simulated ns the dies spent on timed operations.";
    MediaDieOps = "media.die_ops", "Die operations the media engine timed.";
    MediaPages = "media.pages", "Pages those die operations covered.";
    RunMakespanNs = "run.makespan_ns", "Gauge: a device run's last completion, in simulated ns.";
    SolverApplies = "solver.applies", "Operator applications the LOBPCG solver made.";
    SolverConverged = "solver.converged", "1 when the solver converged, else 0.";
    SolverIterations = "solver.iterations", "LOBPCG iterations run.";
    SolverSimNs = "solver.sim_ns", "The solver's logical clock: 1 µs per iteration.";
    SsdBytes = "ssd.bytes", "Host bytes a device run served.";
    SsdLatencyNs = "ssd.latency_ns", "Histogram: each host request's issue-to-completion latency.";
    SsdRequests = "ssd.requests", "Host requests a device run served.";
    SsdSyncRequests = "ssd.sync_requests", "Of those, synchronous requests.";
    UfsApplyBytes = "ufs.apply_bytes", "Journaled-UFS bytes of in-place table applies and superblock.";
    UfsCommits = "ufs.commits", "Journaled-UFS transactions committed.";
    UfsCowBytes = "ufs.cow_bytes", "Journaled-UFS copy-on-write data bytes.";
    UfsJournalBytes = "ufs.journal_bytes", "Journaled-UFS journal-record bytes.";
    UfsUserBytes = "ufs.user_bytes", "Application bytes written through the journaled UFS.";
}

/// Number of catalogue entries: the slot count of a [`MetricSet`].
const SLOTS: usize = Metric::ALL.len();

impl Metric {
    /// The unit, read off the name's `_ns` / `_bytes` suffix (the
    /// workspace convention); anything else counts events.
    pub fn unit(self) -> &'static str {
        match self.name().rsplit(['.', '_']).next() {
            Some("ns") => "ns",
            Some("bytes") => "bytes",
            _ => "count",
        }
    }

    /// This metric's slot in a [`MetricSet`].
    fn slot(self) -> usize {
        usize::from(self as u8)
    }
}

/// Default histogram bucket bounds for nanosecond latencies: powers of
/// four from 1 µs to ~4.3 s. Fixed at compile time so two runs can never
/// disagree about bucketing.
pub const LATENCY_NS_BOUNDS: [u64; 12] = [
    1_000,
    4_000,
    16_000,
    64_000,
    256_000,
    1_024_000,
    4_096_000,
    16_384_000,
    65_536_000,
    262_144_000,
    1_048_576_000,
    4_194_304_000,
];

/// A fixed-bucket integer histogram. Values above the last bound land in
/// an implicit overflow bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixedHistogram {
    bounds: &'static [u64],
    /// One count per bound, plus the overflow bucket.
    counts: Vec<u64>,
    total: u64,
    sum: u64,
    max: u64,
}

impl FixedHistogram {
    /// New histogram over the given ascending bucket bounds.
    pub fn new(bounds: &'static [u64]) -> FixedHistogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds ascend");
        FixedHistogram {
            bounds,
            counts: vec![0; bounds.len() + 1],
            total: 0,
            sum: 0,
            max: 0,
        }
    }

    /// The standard latency histogram ([`LATENCY_NS_BOUNDS`]).
    pub fn latency_ns() -> FixedHistogram {
        FixedHistogram::new(&LATENCY_NS_BOUNDS)
    }

    /// Records one value.
    pub fn observe(&mut self, value: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        if let Some(c) = self.counts.get_mut(idx) {
            *c += 1;
        }
        self.total += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Observations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of observed values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest observed value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// `(upper_bound, count)` pairs for non-empty buckets; the overflow
    /// bucket reports `u64::MAX` as its bound.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (self.bounds.get(i).copied().unwrap_or(u64::MAX), c))
            .collect()
    }
}

/// Counters, gauges and histograms, one slot per [`Metric`] in each.
/// `None` marks a metric never recorded, which the iterators skip, so
/// exports list exactly the metrics a run touched, in name order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSet {
    counters: [Option<u64>; SLOTS],
    gauges: [Option<u64>; SLOTS],
    hists: [Option<FixedHistogram>; SLOTS],
    hdrs: [Option<HdrHistogram>; SLOTS],
}

impl Default for MetricSet {
    fn default() -> MetricSet {
        MetricSet {
            counters: [None; SLOTS],
            gauges: [None; SLOTS],
            hists: [const { None }; SLOTS],
            hdrs: [const { None }; SLOTS],
        }
    }
}

impl MetricSet {
    /// New empty set.
    pub fn new() -> MetricSet {
        MetricSet::default()
    }

    /// Adds `delta` to counter `metric` (created at zero).
    #[inline]
    pub fn count(&mut self, metric: Metric, delta: u64) {
        *self.counters[metric.slot()].get_or_insert(0) += delta;
    }

    /// Sets gauge `metric` to `value` (last write wins).
    pub fn gauge(&mut self, metric: Metric, value: u64) {
        self.gauges[metric.slot()] = Some(value);
    }

    /// Records `value` into latency histogram `metric` (created with
    /// [`FixedHistogram::latency_ns`] bounds).
    pub fn observe_ns(&mut self, metric: Metric, value: Nanos) {
        self.hists[metric.slot()]
            .get_or_insert_with(FixedHistogram::latency_ns)
            .observe(value);
    }

    /// Records `value` into the precision HDR histogram `metric` (see
    /// [`crate::hdr`]): log-bucketed, exact p50/p90/p99/p999, merges
    /// associatively across shards.
    pub fn observe_hdr_ns(&mut self, metric: Metric, value: Nanos) {
        self.hdrs[metric.slot()]
            .get_or_insert_with(HdrHistogram::new)
            .record(value);
    }

    /// Counter value (0 when never counted).
    pub fn counter(&self, metric: Metric) -> u64 {
        self.counters[metric.slot()].unwrap_or(0)
    }

    /// Gauge value, if set.
    pub fn gauge_value(&self, metric: Metric) -> Option<u64> {
        self.gauges[metric.slot()]
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        named(&self.counters).map(|(name, &v)| (name, v))
    }

    /// All gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        named(&self.gauges).map(|(name, &v)| (name, v))
    }

    /// All histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &FixedHistogram)> + '_ {
        named(&self.hists)
    }

    /// The HDR histogram `metric`, if any values were observed into it.
    pub fn hdr(&self, metric: Metric) -> Option<&HdrHistogram> {
        self.hdrs[metric.slot()].as_ref()
    }

    /// All HDR histograms in name order.
    pub fn hdr_histograms(&self) -> impl Iterator<Item = (&'static str, &HdrHistogram)> + '_ {
        named(&self.hdrs)
    }
}

/// `(name, value)` of every filled slot, in name order.
fn named<T>(slots: &[Option<T>; SLOTS]) -> impl Iterator<Item = (&'static str, &T)> {
    Metric::ALL
        .iter()
        .zip(slots)
        .filter_map(|(m, v)| Some((m.name(), v.as_ref()?)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_upper_bound() {
        let mut h = FixedHistogram::new(&[10, 100, 1000]);
        for v in [1, 10, 11, 100, 5000] {
            h.observe(v);
        }
        // <=10 -> bucket 0 (two), <=100 -> bucket 1 (two), overflow one.
        assert_eq!(h.total(), 5);
        assert_eq!(h.sum(), 1 + 10 + 11 + 100 + 5000);
        assert_eq!(h.max(), 5000);
        assert_eq!(h.nonzero_buckets(), vec![(10, 2), (100, 2), (u64::MAX, 1)]);
    }

    #[test]
    fn catalogue_is_unique_and_in_name_order() {
        for (i, m) in Metric::ALL.iter().enumerate() {
            assert_eq!(m.slot(), i, "{} sits in its own slot", m.name());
        }
        for w in Metric::ALL.windows(2) {
            assert!(
                w[0].name() < w[1].name(),
                "{} before {}",
                w[0].name(),
                w[1].name()
            );
        }
        assert_eq!(Metric::MediaBusyNs.unit(), "ns");
        assert_eq!(Metric::SsdBytes.unit(), "bytes");
        assert_eq!(Metric::UfsCowBytes.unit(), "bytes");
        assert_eq!(Metric::MediaDieOps.unit(), "count");
    }

    /// docs/OBSERVABILITY.md's metric table is the catalogue, row for row.
    #[test]
    fn docs_table_matches_the_catalogue() {
        let doc = include_str!("../../../docs/OBSERVABILITY.md");
        let section = doc
            .split("\n## ")
            .find(|s| s.starts_with("Metric catalogue"))
            .expect("docs/OBSERVABILITY.md has a `## Metric catalogue` section");
        let rows: Vec<&str> = section.lines().filter(|l| l.starts_with("| `")).collect();
        let want: Vec<String> = Metric::ALL
            .iter()
            .map(|m| format!("| `{}` | {} | {} |", m.name(), m.unit(), m.doc()))
            .collect();
        assert_eq!(rows, want);
    }

    #[test]
    fn metric_set_is_name_ordered_and_additive() {
        let mut m = MetricSet::new();
        m.count(Metric::UfsCommits, 1);
        m.count(Metric::FsRequests, 2);
        m.count(Metric::UfsCommits, 3);
        m.count(Metric::LinkReplays, 0);
        m.gauge(Metric::RunMakespanNs, 7);
        m.gauge(Metric::RunMakespanNs, 9);
        m.observe_ns(Metric::SsdLatencyNs, 5_000);
        let counters: Vec<(&str, u64)> = m.counters().collect();
        assert_eq!(
            counters,
            vec![("fs.requests", 2), ("link.replays", 0), ("ufs.commits", 4)],
            "a zero count is still listed"
        );
        assert_eq!(m.counter(Metric::UfsCommits), 4);
        assert_eq!(m.gauge_value(Metric::RunMakespanNs), Some(9));
        assert_eq!(m.gauges().collect::<Vec<_>>(), vec![("run.makespan_ns", 9)]);
        assert_eq!(m.counter(Metric::SsdRequests), 0);
        let (name, h) = m.histograms().next().unwrap();
        assert_eq!(name, "ssd.latency_ns");
        assert_eq!(h.total(), 1);
    }

    #[test]
    fn hdr_histograms_ride_alongside_fixed_ones() {
        let mut m = MetricSet::new();
        assert!(m.hdr(Metric::SsdLatencyNs).is_none());
        m.observe_hdr_ns(Metric::SsdLatencyNs, 12_345);
        m.observe_hdr_ns(Metric::SsdLatencyNs, 54_321);
        let h = m.hdr(Metric::SsdLatencyNs).unwrap();
        assert_eq!(h.total(), 2);
        assert_eq!(h.max(), 54_321);
        let names: Vec<&str> = m.hdr_histograms().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["ssd.latency_ns"]);
        assert!(m.histograms().next().is_none());
    }
}
