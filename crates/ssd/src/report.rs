//! Per-run results: the numbers every figure of the paper is drawn from.

use crate::ftl::WearStats;
use flashsim::{EnergyReport, MediaReport, PalHistogram};
use interconnect::LinkFaultStats;
use nvmtypes::Nanos;

/// Fault and recovery accounting for one run. All-zero (the `Default`)
/// when the run's [`nvmtypes::FaultPlan`] is `none()`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReliabilityStats {
    /// Pages whose read needed help beyond the inline ECC tier.
    pub read_errors: u64,
    /// Escalating read-retry senses performed.
    pub ecc_retries: u64,
    /// Pages no retry tier could correct (data lost; block retired).
    pub uncorrectable: u64,
    /// Page programs that failed and were retried.
    pub program_retries: u64,
    /// Block erases that failed (block retired).
    pub erase_failures: u64,
    /// Read-disturb refresh programs performed.
    pub disturb_refreshes: u64,
    /// Blocks retired and remapped to spares by the FTL.
    pub bad_blocks_remapped: u64,
    /// Spare blocks left in the over-provisioning pool at run end.
    pub spare_blocks_left: u64,
    /// Time lost to media-side recovery (retries, refreshes,
    /// re-programs, re-erases), ns.
    pub media_recovery_ns: Nanos,
    /// Host-link CRC/replay/retrain accounting.
    pub link: LinkFaultStats,
}

impl ReliabilityStats {
    /// True iff any fault or recovery event occurred.
    pub fn any(&self) -> bool {
        self.read_errors > 0
            || self.ecc_retries > 0
            || self.uncorrectable > 0
            || self.program_retries > 0
            || self.erase_failures > 0
            || self.disturb_refreshes > 0
            || self.bad_blocks_remapped > 0
            || self.link.crc_errors > 0
            || self.link.retrains > 0
    }

    /// Total time recovery cost the run, ns (media + link).
    pub fn total_recovery_ns(&self) -> Nanos {
        self.media_recovery_ns + self.link.total_ns()
    }
}

/// Request-latency distribution summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyStats {
    /// Median request latency, ns.
    pub p50: Nanos,
    /// 95th percentile, ns.
    pub p95: Nanos,
    /// 99th percentile, ns.
    pub p99: Nanos,
    /// Worst request, ns.
    pub max: Nanos,
}

impl LatencyStats {
    /// Summarises a set of per-request latencies (consumes and sorts).
    pub fn from_latencies(mut lat: Vec<Nanos>) -> LatencyStats {
        if lat.is_empty() {
            return LatencyStats::default();
        }
        lat.sort_unstable();
        let pick = |q_num: usize, q_den: usize| {
            let idx = (lat.len() * q_num / q_den).min(lat.len() - 1);
            lat[idx]
        };
        LatencyStats {
            p50: pick(1, 2),
            p95: pick(95, 100),
            p99: pick(99, 100),
            max: pick(1, 1),
        }
    }
}

/// Results of replaying one block trace through one device configuration.
/// `PartialEq` compares every field (the bench's observer-effect check
/// relies on this being exhaustive — a new field is compared by default).
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// End-to-end simulated time, ns.
    pub makespan: Nanos,
    /// Requests processed.
    pub requests: u64,
    /// Total bytes moved, including file-system metadata/journal traffic.
    pub total_bytes: u64,
    /// Application-payload bytes (non-sync requests).
    pub data_bytes: u64,
    /// End-to-end throughput over all bytes, MB/s (Figures 7a/8a).
    pub bandwidth_mb_s: f64,
    /// End-to-end throughput counting application payload only, MB/s.
    pub data_bandwidth_mb_s: f64,
    /// Time the host link spent transferring, ns.
    pub host_busy: Nanos,
    /// Portion of host-transfer time during which the media was completely
    /// idle — the network-starvation signature of ION-remote storage.
    pub dma_media_idle: Nanos,
    /// Media-side report: utilizations, execution breakdown, headroom.
    pub media: MediaReport,
    /// Parallelism-level distribution over requests (Figures 10b/10d).
    pub pal: PalHistogram,
    /// Wear accounting from the FTL's log allocator.
    pub wear: WearStats,
    /// Energy accounting for the run.
    pub energy: EnergyReport,
    /// Per-request latency percentiles.
    pub latency: LatencyStats,
    /// Full per-request latency distribution: the precision HDR
    /// histogram behind the p50/p99/p999 exports. Always populated
    /// (traced or not) from exactly the same values as
    /// [`RunReport::latency`], so attaching a tracer cannot change it;
    /// batch runners merge these across shards byte-identically
    /// ([`simobs::HdrHistogram::merge`]).
    pub latency_hdr: simobs::HdrHistogram,
    /// Fault/recovery accounting (all-zero under `FaultPlan::none()`).
    pub reliability: ReliabilityStats,
    /// Exact per-layer latency attribution: the components sum to the
    /// sum of per-request latencies ([`simobs::LatencyAttribution::is_exact`]),
    /// and recovery time appears in exactly one component. Note the
    /// attribution's `recovery_ns` can be smaller than
    /// [`ReliabilityStats::total_recovery_ns`]: recovery on dies that
    /// overlapped other media service is capped at the request's media
    /// wall, so it is never double-counted against die/channel time.
    pub attribution: simobs::LatencyAttribution,
}

impl RunReport {
    /// The bandwidth-remaining headroom metric (Figures 7b/8b), MB/s.
    pub fn remaining_mb_s(&self) -> f64 {
        self.media.remaining_mb_s
    }

    /// One-line human-readable summary. Fault-free runs render exactly
    /// as they did before fault injection existed; runs that saw faults
    /// append the recovery counters.
    pub fn summary(&self) -> String {
        let mut line = format!(
            "{:>8.1} MB/s  ({} reqs, {:.1}% chan, {:.1}% pkg, PAL4 {:.1}%)",
            self.bandwidth_mb_s,
            self.requests,
            self.media.channel_util * 100.0,
            self.media.package_util * 100.0,
            self.pal.percent()[3],
        );
        if self.reliability.any() {
            let r = &self.reliability;
            line.push_str(&format!(
                "  [faults: {} retries, {} crc, {} bad blocks, {:.2} ms recovery]",
                r.ecc_retries,
                r.link.crc_errors,
                r.bad_blocks_remapped,
                nvmtypes::approx_f64(r.total_recovery_ns()) / 1e6,
            ));
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_latencies_are_zero() {
        assert_eq!(
            LatencyStats::from_latencies(vec![]),
            LatencyStats::default()
        );
    }

    #[test]
    fn percentiles_are_ordered() {
        let lat: Vec<Nanos> = (1..=1000).collect();
        let s = LatencyStats::from_latencies(lat);
        assert_eq!(s.p50, 501);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
        assert_eq!(s.max, 1000);
    }

    #[test]
    fn single_sample() {
        let s = LatencyStats::from_latencies(vec![42]);
        assert_eq!(s.p50, 42);
        assert_eq!(s.max, 42);
    }
}
