//! The device engine: translation, media dispatch, host DMA and run
//! accounting, one request at a time. The request loop that decides
//! when each request issues lives in [`crate::qos`].

use crate::config::SsdConfig;
use crate::ftl::Ftl;
use crate::mapping::{DecomposeScratch, StripeMap};
use crate::qos::{QosPolicy, Tenant};
use crate::recovery::{erase_with_recovery, read_with_recovery, write_with_recovery};
use crate::report::{LatencyStats, ReliabilityStats, RunReport};
use flashsim::intervals::{uncovered_len, Interval};
use flashsim::{DieOp, DieOpOutcome, MediaFaultState, MediaSim, OpKind, PalHistogram, PalLevel};
use interconnect::LinkFaultSim;
use nvmtypes::convert::{u32_from, u64_from_usize, usize_from_u32};
use nvmtypes::fault::{STREAM_LINK, STREAM_MEDIA};
use nvmtypes::{HostRequest, IoOp, Nanos};
use ooctrace::BlockTrace;
use simobs::{LatencyAttribution, Layer, Metric, RequestBreakdown, Tracer};

/// A simulated SSD (or network-attached SSD) ready to replay block traces.
///
/// Each call to [`SsdDevice::run`] replays one trace against a fresh device
/// state with a **closed-loop** issue discipline: the trace's queue depth
/// (capped by the device's NCQ depth) bounds how many requests are
/// outstanding; a new request issues when a slot frees. Requests flagged
/// [`HostRequest::sync`] are dependency barriers: nothing later may issue
/// until they complete — this is how file-system metadata lookups and
/// journal commits serialise the device (§3.2).
///
/// ```
/// use flashsim::MediaConfig;
/// use interconnect::{pcie, LinkChain, PcieGen};
/// use nvmtypes::{BusTiming, HostRequest, NvmKind};
/// use ooctrace::BlockTrace;
/// use ssd::{SsdConfig, SsdDevice};
///
/// let media = MediaConfig::paper(NvmKind::Slc, BusTiming { name: "sdr", bytes_per_ns: 0.4 });
/// let host = LinkChain::single(pcie(PcieGen::Gen2, 8));
/// let device = SsdDevice::new(SsdConfig::new(media, host).with_ufs());
/// let trace = BlockTrace::from_requests(
///     (0..16).map(|i| HostRequest::read(i * (1 << 20), 1 << 20)).collect(),
///     16,
/// );
/// let report = device.run(&trace);
/// assert!(report.bandwidth_mb_s > 500.0);
/// assert_eq!(report.total_bytes, 16 << 20);
/// ```
#[derive(Debug, Clone)]
pub struct SsdDevice {
    cfg: SsdConfig,
    /// Stripe-rows pre-erased before the run (write workloads).
    pub pre_erased_rows: u64,
}

/// The media half of one request's timeline, as scheduled by the
/// dispatcher: when the earliest die-op began service and when the last
/// one completed. The gap between the dispatch start and `service_start`
/// is firmware/queueing time, not media time — the attribution split
/// depends on that boundary.
#[derive(Debug, Clone, Copy)]
struct MediaPhase {
    /// Earliest `DieOpOutcome::start` across the request's die-ops
    /// (equals the dispatch start when the request produced no ops).
    service_start: Nanos,
    /// Latest completion across the request's die-ops.
    end: Nanos,
}

/// Media activity evidence and recovery time at one instant. The deltas
/// across a request's media phase drive its die/channel split and its
/// recovery carve-out.
#[derive(Debug, Clone, Copy)]
struct MediaMark {
    /// Die-side activity: cell activation plus cell contention.
    die_w: u64,
    /// Channel-side activity: transfers, bus overhead, bus contention.
    chan_w: u64,
    recovery_ns: Nanos,
}

/// One request's host-link transfer, as scheduled.
#[derive(Debug, Clone, Copy)]
struct HostDma {
    start: Nanos,
    /// Transfer time without link faults.
    base: Nanos,
    /// Replay time added by link faults.
    penalty: Nanos,
    end: Nanos,
}

/// Per-request PAL tracking state, reused across requests.
pub(crate) struct PalTracker {
    /// Bitmask of dies-in-channel touched, per channel.
    chan_dies: Vec<u32>,
    touched: Vec<u32>,
    multiplane: bool,
}

impl PalTracker {
    fn new(channels: usize) -> PalTracker {
        PalTracker {
            chan_dies: vec![0; channels],
            touched: Vec::new(),
            multiplane: false,
        }
    }

    fn reset(&mut self) {
        for &c in &self.touched {
            self.chan_dies[usize_from_u32(c)] = 0;
        }
        self.touched.clear();
        self.multiplane = false;
    }

    fn observe(&mut self, channel: u32, die_in_channel: u32, planes: u32) {
        if self.chan_dies[usize_from_u32(channel)] == 0 {
            self.touched.push(channel);
        }
        self.chan_dies[usize_from_u32(channel)] |= 1 << die_in_channel;
        if planes > 1 {
            self.multiplane = true;
        }
    }

    fn classify(&self) -> PalLevel {
        let die_interleaved = self
            .touched
            .iter()
            .any(|&c| self.chan_dies[usize_from_u32(c)].count_ones() > 1);
        PalLevel::classify(die_interleaved, self.multiplane)
    }
}

/// The mutable per-run engine: device media, translation state, fault
/// processes aside, and every piece of run accounting. The request loop
/// in [`crate::qos`] owns the issue discipline and pushes each request
/// through [`EngineState::service_one`]; a single-job run is that loop
/// with one tenant.
pub(crate) struct EngineState {
    /// The media simulator; `pub(crate)` so the request loop can read
    /// the running media totals around each request and charge the
    /// difference to the tenant that issued it.
    pub(crate) media: MediaSim,
    map: StripeMap,
    ftl: Ftl,
    host: interconnect::Link,
    paq: bool,
    firmware: Nanos,
    split_bytes: u64,
    page_size: u64,
    /// Fleet-level reliability accounting; the request loop folds
    /// per-tenant link-fault stats in before [`EngineState::finish`].
    pub(crate) rel: ReliabilityStats,
    host_free: Nanos,
    last_media_end: Nanos,
    host_busy: Nanos,
    dma_intervals: Vec<Interval>,
    pal_hist: PalHistogram,
    pal: PalTracker,
    latencies: Vec<Nanos>,
    // Precision latency distribution, fed on both the traced and
    // untraced paths from the same values — the observer-freedom
    // contract extends to it unchanged.
    latency_hdr: simobs::HdrHistogram,
    attribution: LatencyAttribution,
    makespan: Nanos,
    // Reused per-request working memory for stripe decomposition: the
    // service loop runs per event, so its buffers are hoisted here
    // (`tests/alloc_budget.rs` holds it to no allocation per request).
    dmap: DecomposeScratch,
}

impl SsdDevice {
    /// New device for a configuration.
    pub fn new(cfg: SsdConfig) -> SsdDevice {
        // Steady state: the log allocator must erase before every new
        // block-row it enters (a fresh-from-trim device would set this
        // high).
        SsdDevice {
            cfg,
            pre_erased_rows: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SsdConfig {
        &self.cfg
    }

    /// Replays `trace` against a fresh device state.
    pub fn run(&self, trace: &BlockTrace) -> RunReport {
        self.run_observed(trace, &mut Tracer::off())
    }

    /// [`SsdDevice::run`] with an observer attached: when `obs` is
    /// enabled, the engine emits per-request spans, media die-op spans,
    /// FTL decision markers, host-DMA and link-replay spans, and latency
    /// metrics — all keyed to *simulated* nanoseconds. The tracer only
    /// reads values the engine has already computed and feeds nothing
    /// back, so any sink produces a byte-identical [`RunReport`] to
    /// [`Tracer::off`] (pinned by `tests/determinism.rs`).
    ///
    /// The run is the one-tenant case of [`SsdDevice::run_shared`]'s
    /// request loop: weight 1, arrival 0, the device's own fault plan.
    pub fn run_observed(&self, trace: &BlockTrace, obs: &mut Tracer) -> RunReport {
        let tenant = Tenant {
            trace,
            weight: 1,
            arrival_ns: 0,
            fault_plan: &self.cfg.fault_plan,
        };
        self.serve(std::iter::once(tenant), &QosPolicy::unlimited(), obs)
            .fleet
    }
}

/// Builds the per-run fault processes for one fault plan against one
/// media configuration: `None` under a zero-rate plan so the fault-free
/// path never even constructs them. The request loop calls this once per
/// tenant — each tenant's plan owns an independent root stream.
pub(crate) fn fault_states(
    plan: &nvmtypes::fault::FaultPlan,
    media_cfg: &flashsim::MediaConfig,
) -> (Option<MediaFaultState>, Option<LinkFaultSim>) {
    let fault_root = plan.rng();
    let media = if plan.media.is_none() {
        None
    } else {
        Some(MediaFaultState::new(
            plan.media,
            media_cfg.timing.kind,
            u64::from(media_cfg.geometry.pages_per_block),
            fault_root.split(STREAM_MEDIA),
        ))
    };
    let link = if plan.link.is_none() {
        None
    } else {
        Some(LinkFaultSim::new(plan.link, fault_root.split(STREAM_LINK)))
    };
    (media, link)
}

impl EngineState {
    /// Fresh per-run state for one device. `requests_hint` pre-sizes the
    /// per-request vectors.
    pub(crate) fn new(dev: &SsdDevice, requests_hint: usize) -> EngineState {
        let cfg = &dev.cfg;
        let geometry = cfg.media.geometry;
        EngineState {
            media: MediaSim::new(cfg.media),
            map: StripeMap::new(geometry, cfg.stripe_order),
            ftl: Ftl::new(cfg.ftl, geometry, dev.pre_erased_rows)
                .with_page_size(cfg.media.timing.page_size),
            host: cfg.host.effective(),
            paq: cfg.paq,
            firmware: cfg.ftl.firmware_ns(),
            split_bytes: cfg.ftl.max_transaction_bytes().unwrap_or(u64::MAX),
            page_size: u64::from(cfg.media.timing.page_size),
            rel: ReliabilityStats::default(),
            host_free: 0,
            last_media_end: 0,
            host_busy: 0,
            dma_intervals: Vec::with_capacity(requests_hint),
            pal_hist: PalHistogram::default(),
            pal: PalTracker::new(usize_from_u32(geometry.channels)),
            latencies: Vec::with_capacity(requests_hint),
            latency_hdr: simobs::HdrHistogram::new(),
            attribution: LatencyAttribution::default(),
            makespan: 0,
            dmap: DecomposeScratch::new(),
        }
    }

    /// The [`MediaMark`] at this instant.
    fn media_mark(&self) -> MediaMark {
        let stats = self.media.stats();
        MediaMark {
            die_w: stats.cell_activation + stats.cell_contention,
            chan_w: stats.channel_activation
                + stats.flash_bus_activation
                + stats.channel_contention,
            recovery_ns: self.rel.media_recovery_ns,
        }
    }

    /// Services one request issued at `issue` end to end — media
    /// dispatch, host DMA, PAL classification, latency recording and
    /// exact attribution — returning its completion time and the
    /// breakdown that was absorbed into the run's attribution (already
    /// collapsed to `fs_meta` for sync requests). The caller owns the
    /// issue discipline: closed-loop slots, barriers and fair-queueing
    /// order all happen outside.
    pub(crate) fn service_one(
        &mut self,
        req: &HostRequest,
        issue: Nanos,
        media_faults: &mut Option<MediaFaultState>,
        link_faults: &mut Option<LinkFaultSim>,
        obs: &mut Tracer,
    ) -> (Nanos, RequestBreakdown) {
        self.pal.reset();
        let before = self.media_mark();
        // Exact decomposition of completion - issue: everything before
        // media service and between the media and DMA phases is
        // queueing.
        let (completion, breakdown) = match req.op {
            IoOp::Read => {
                // Device buffer -> host DMA after media completes.
                let phase = self.dispatch_media(req, issue, media_faults, obs);
                let dma = self.host_dma(req.len, phase.end, link_faults, obs);
                let bd = RequestBreakdown {
                    queue_ns: (phase.service_start - issue) + (dma.start - phase.end),
                    total_ns: dma.end - issue,
                    ..self.service_breakdown(phase, before, dma)
                };
                (dma.end, bd)
            }
            IoOp::Write => {
                // Host -> device buffer DMA before media programs.
                let dma = self.host_dma(req.len, issue, link_faults, obs);
                let phase = self.dispatch_media(req, dma.end, media_faults, obs);
                let bd = RequestBreakdown {
                    queue_ns: (dma.start - issue) + (phase.service_start - dma.end),
                    total_ns: phase.end - issue,
                    ..self.service_breakdown(phase, before, dma)
                };
                (phase.end, bd)
            }
        };
        self.pal_hist.add(self.pal.classify());
        let total_latency = completion.saturating_sub(issue);
        self.latencies.push(total_latency);
        self.latency_hdr.record(total_latency);
        // Sync requests *are* file-system overhead end to end
        // (metadata lookups, journal commits): the whole latency is
        // fs_meta rather than a split of its internals.
        let absorbed = if req.sync {
            RequestBreakdown {
                fs_meta_ns: total_latency,
                total_ns: total_latency,
                ..RequestBreakdown::default()
            }
        } else {
            breakdown
        };
        self.attribution.absorb(absorbed);
        if obs.enabled() {
            obs.span(
                Layer::Ssd,
                match req.op {
                    IoOp::Read => "read",
                    IoOp::Write => "write",
                },
                issue,
                completion,
                [("bytes", req.len), ("sync", u64::from(req.sync))],
            );
            obs.count(Metric::SsdRequests, 1);
            if req.sync {
                obs.count(Metric::SsdSyncRequests, 1);
            }
            obs.observe_ns(Metric::SsdLatencyNs, total_latency);
            obs.observe_hdr_ns(Metric::SsdLatencyNs, total_latency);
        }
        self.makespan = self.makespan.max(completion);
        (completion, absorbed)
    }

    /// Moves `len` bytes over the host link, starting once both `ready`
    /// has passed and the link is free. CRC errors replay the transfer
    /// (added latency only).
    fn host_dma(
        &mut self,
        len: u64,
        ready: Nanos,
        link_faults: &mut Option<LinkFaultSim>,
        obs: &mut Tracer,
    ) -> HostDma {
        let start = ready.max(self.host_free);
        let base = self.host.request_ns(len);
        let penalty = link_faults
            .as_mut()
            .map_or(0, |lf| lf.transfer_penalty_traced(base, start + base, obs));
        let end = start + base + penalty;
        self.host_free = end;
        self.host_busy += end - start;
        self.dma_intervals.push((start, end));
        obs.span(
            Layer::Link,
            "host_dma",
            start,
            start + base,
            [("bytes", len), ("", 0)],
        );
        HostDma {
            start,
            base,
            penalty,
            end,
        }
    }

    /// The service part of a request's breakdown; the caller adds the
    /// queueing and total that depend on the op's phase order. The media
    /// wall nets out recovery, then splits die/channel by the activity
    /// recorded since `before`.
    fn service_breakdown(
        &self,
        phase: MediaPhase,
        before: MediaMark,
        dma: HostDma,
    ) -> RequestBreakdown {
        let now = self.media_mark();
        let service_wall = phase.end - phase.service_start;
        let recovery_media = (now.recovery_ns - before.recovery_ns).min(service_wall);
        let (die_ns, channel_ns) = RequestBreakdown::split_service(
            service_wall - recovery_media,
            now.die_w - before.die_w,
            now.chan_w - before.chan_w,
        );
        RequestBreakdown {
            die_ns,
            channel_ns,
            link_ns: dma.base,
            recovery_ns: recovery_media + dma.penalty,
            ..RequestBreakdown::default()
        }
    }

    /// Rolls the accumulated state up into the [`RunReport`]. The caller
    /// folds each tenant's link-fault stats into `rel.link` first.
    pub(crate) fn finish(
        self,
        cfg: &SsdConfig,
        total_bytes: u64,
        data_bytes: u64,
        requests: usize,
        obs: &mut Tracer,
    ) -> RunReport {
        // Host-DMA accounting. A request's DMA phase never overlaps its
        // own media phase (reads transfer after sensing, writes before
        // programming), so the lifecycle bucket of Figure 10 is the full
        // host-transfer time; `dma_media_idle` additionally measures how
        // much of it the device spent fully idle (the network-starvation
        // signature of the ION configurations).
        let mut rel = self.rel;
        let makespan = self.makespan;
        let stats = self.media.into_stats();
        rel.spare_blocks_left = self.ftl.spare_blocks_left();
        let energy = flashsim::energy::assess(&stats, &cfg.media, makespan);
        let media_report = stats.finalize(&cfg.media, makespan, self.host_busy);
        let dma_media_idle: Nanos = self
            .dma_intervals
            .iter()
            .map(|&(s, e)| uncovered_len(s, e, &media_report.busy))
            .sum();
        if obs.enabled() {
            obs.span(
                Layer::Run,
                "device_run",
                0,
                makespan,
                [
                    ("requests", u64_from_usize(requests)),
                    ("bytes", total_bytes),
                ],
            );
            obs.count(Metric::SsdBytes, total_bytes);
            obs.gauge(Metric::RunMakespanNs, makespan);
        }
        RunReport {
            makespan,
            requests: u64_from_usize(requests),
            total_bytes,
            data_bytes,
            bandwidth_mb_s: nvmtypes::mb_per_s(total_bytes, makespan),
            data_bandwidth_mb_s: nvmtypes::mb_per_s(data_bytes, makespan),
            host_busy: self.host_busy,
            dma_media_idle,
            media: media_report,
            pal: self.pal_hist,
            wear: self.ftl.wear().clone(),
            energy,
            latency: LatencyStats::from_latencies(self.latencies),
            latency_hdr: self.latency_hdr,
            reliability: rel,
            attribution: self.attribution,
        }
    }

    /// Translates one request and executes its die-ops; returns the media
    /// phase (earliest service start, last completion).
    fn dispatch_media(
        &mut self,
        req: &HostRequest,
        start: Nanos,
        faults: &mut Option<MediaFaultState>,
        obs: &mut Tracer,
    ) -> MediaPhase {
        let geometry = *self.map.geometry();
        let channels = geometry.channels;
        let planes_per_die = u64::from(geometry.planes_per_die);
        let page_size = self.page_size;
        let mut media_end = start;
        let mut first_service: Nanos = Nanos::MAX;
        let mut offset = req.offset;
        let mut remaining = req.len;
        let mut split_idx: u64 = 0;
        let capacity_pages = geometry.total_pages();

        while remaining > 0 {
            let chunk = remaining.min(self.split_bytes);
            split_idx += 1;
            // Each internal transaction pays firmware processing.
            let mut t0 = start + self.firmware * split_idx;
            if !self.paq {
                // Without physically-addressed queueing the controller
                // serialises media service per transaction.
                t0 = t0.max(self.last_media_end);
            }
            let piece = HostRequest {
                op: req.op,
                offset,
                len: chunk,
                sync: req.sync,
            };
            let first = piece.first_page(u32_from(page_size)) % capacity_pages;
            let count = piece.page_count(u32_from(page_size));

            let (lpn, erase_rows, gc_moves) = match req.op {
                IoOp::Read => (self.ftl.translate_read(first, count) % capacity_pages, 0, 0),
                IoOp::Write => {
                    let placement = self.ftl.translate_write(first, count);
                    (
                        placement.start_lpn % capacity_pages,
                        placement.rows_to_erase,
                        placement.gc_moves,
                    )
                }
            };

            if gc_moves > 0 {
                obs.instant(Layer::Ftl, "gc", t0, [("moves", gc_moves), ("", 0)]);
                // Garbage collection ahead of the host data: read the
                // survivors, rewrite them at the frontier.
                let gc_pages = (gc_moves * 4096).div_ceil(page_size).max(1);
                self.map.decompose_into(lpn, gc_pages, &mut self.dmap);
                for i in 0..self.dmap.runs.len() {
                    let run = self.dmap.runs[i];
                    let read_op = DieOp::read(run.die, run.planes, run.pages, run.start_row);
                    let read_out = self.execute_op(t0, &read_op, faults, obs);
                    first_service = first_service.min(read_out.start);
                    media_end = media_end.max(read_out.end);
                    let write_op = DieOp::write(run.die, run.planes, run.pages, run.start_row);
                    let write_out = self.execute_op(read_out.end, &write_op, faults, obs);
                    media_end = media_end.max(write_out.end);
                }
            }

            if erase_rows > 0 {
                obs.instant(
                    Layer::Ftl,
                    "erase_rows",
                    t0,
                    [("rows", erase_rows), ("", 0)],
                );
                // Erase the new block-row(s) on every die before programming.
                for die in 0..geometry.total_dies() {
                    let blocks = erase_rows * planes_per_die;
                    let erase_op = DieOp::erase(nvmtypes::DieIndex(die), blocks);
                    let erase_out = self.execute_op(t0, &erase_op, faults, obs);
                    first_service = first_service.min(erase_out.start);
                    media_end = media_end.max(erase_out.end);
                }
            }

            self.map.decompose_into(lpn, count, &mut self.dmap);
            for i in 0..self.dmap.runs.len() {
                let run = self.dmap.runs[i];
                let op = match req.op {
                    IoOp::Read => DieOp::read(run.die, run.planes, run.pages, run.start_row),
                    IoOp::Write => DieOp::write(run.die, run.planes, run.pages, run.start_row),
                };
                let out = self.execute_op(t0, &op, faults, obs);
                first_service = first_service.min(out.start);
                media_end = media_end.max(out.end);
                self.pal
                    .observe(run.die.channel(&geometry), run.die.0 / channels, run.planes);
            }

            offset += chunk;
            remaining -= chunk;
        }
        self.last_media_end = self.last_media_end.max(media_end);
        MediaPhase {
            service_start: if first_service == Nanos::MAX {
                start
            } else {
                first_service
            },
            end: media_end,
        }
    }

    /// Executes one die-op arriving at `at`: through the controller's
    /// recovery path for its kind when the run injects media faults,
    /// directly otherwise.
    // Runs once per die-op; left out of line it measurably slows the
    // paper sweep's service path.
    #[inline]
    fn execute_op(
        &mut self,
        at: Nanos,
        op: &DieOp,
        faults: &mut Option<MediaFaultState>,
        obs: &mut Tracer,
    ) -> DieOpOutcome {
        let media = &mut self.media;
        match faults {
            None => media.execute_traced(at, op, obs),
            Some(fs) => match op.kind {
                OpKind::Read => {
                    read_with_recovery(media, op, at, fs, &mut self.ftl, &mut self.rel, obs)
                }
                OpKind::Write => write_with_recovery(media, op, at, fs, &mut self.rel, obs),
                OpKind::Erase => {
                    erase_with_recovery(media, op, at, fs, &mut self.ftl, &mut self.rel, obs)
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashsim::MediaConfig;
    use interconnect::{pcie, LinkChain, PcieGen};
    use nvmtypes::{BusTiming, NvmKind, MIB};

    fn sdr400() -> BusTiming {
        BusTiming {
            name: "ONFi3-SDR-400",
            bytes_per_ns: 0.4,
        }
    }

    fn paper_device(kind: NvmKind) -> SsdDevice {
        let media = MediaConfig::paper(kind, sdr400());
        let cfg = SsdConfig::new(media, LinkChain::single(pcie(PcieGen::Gen2, 8)));
        SsdDevice::new(cfg)
    }

    fn seq_read_trace(total: u64, req: u64, qd: u32) -> BlockTrace {
        let mut reqs = Vec::new();
        let mut off = 0;
        while off < total {
            reqs.push(HostRequest::read(off, req.min(total - off)));
            off += req;
        }
        BlockTrace::from_requests(reqs, qd)
    }

    #[test]
    fn sequential_read_delivers_positive_bandwidth() {
        let dev = paper_device(NvmKind::Tlc);
        let rep = dev.run(&seq_read_trace(64 * MIB, MIB, 32));
        assert!(rep.bandwidth_mb_s > 100.0, "got {}", rep.bandwidth_mb_s);
        assert_eq!(rep.total_bytes, 64 * MIB);
        assert!(rep.makespan > 0);
    }

    #[test]
    fn ufs_outperforms_traditional_ftl_on_large_requests() {
        let media = MediaConfig::paper(NvmKind::Tlc, sdr400());
        let host = LinkChain::single(pcie(PcieGen::Gen2, 8));
        let trad = SsdDevice::new(SsdConfig::new(media, host.clone()));
        let ufs = SsdDevice::new(SsdConfig::new(media, host).with_ufs());
        let trace = seq_read_trace(64 * MIB, 4 * MIB, 32);
        let a = trad.run(&trace);
        let b = ufs.run(&trace);
        assert!(
            b.bandwidth_mb_s > a.bandwidth_mb_s,
            "ufs {} vs trad {}",
            b.bandwidth_mb_s,
            a.bandwidth_mb_s
        );
    }

    #[test]
    fn ufs_large_requests_reach_pal4() {
        let dev = SsdDevice::new(
            SsdConfig::new(
                MediaConfig::paper(NvmKind::Tlc, sdr400()),
                LinkChain::single(pcie(PcieGen::Gen2, 8)),
            )
            .with_ufs(),
        );
        let rep = dev.run(&seq_read_trace(64 * MIB, 4 * MIB, 32));
        let p = rep.pal.percent();
        assert!(p[3] > 90.0, "PAL4 was {p:?}");
    }

    #[test]
    fn tiny_requests_stay_at_low_pal() {
        // Single-page reads never interleave dies or planes.
        let dev = paper_device(NvmKind::Tlc);
        let reqs: Vec<HostRequest> = (0..64).map(|i| HostRequest::read(i * 8192, 8192)).collect();
        let rep = dev.run(&BlockTrace::from_requests(reqs, 8));
        let p = rep.pal.percent();
        assert!(p[0] > 99.0, "PAL1 was {p:?}");
    }

    #[test]
    fn deeper_queue_helps_small_requests() {
        let dev = paper_device(NvmKind::Tlc);
        let shallow = dev.run(&seq_read_trace(32 * MIB, 128 * 1024, 2));
        let deep = dev.run(&seq_read_trace(32 * MIB, 128 * 1024, 32));
        assert!(
            deep.bandwidth_mb_s > shallow.bandwidth_mb_s * 1.5,
            "deep {} vs shallow {}",
            deep.bandwidth_mb_s,
            shallow.bandwidth_mb_s
        );
    }

    #[test]
    fn sync_requests_act_as_barriers() {
        let dev = paper_device(NvmKind::Tlc);
        let total = 32 * MIB;
        let plain = dev.run(&seq_read_trace(total, 256 * 1024, 16));
        // Same workload with a sync metadata read every 8 data requests.
        let mut reqs = Vec::new();
        let mut off = 0;
        let mut i = 0;
        while off < total {
            if i % 8 == 7 {
                reqs.push(HostRequest::read(off, 4096).synchronous());
            }
            reqs.push(HostRequest::read(off, 256 * 1024));
            off += 256 * 1024;
            i += 1;
        }
        let stalled = dev.run(&BlockTrace::from_requests(reqs, 16));
        assert!(
            stalled.data_bandwidth_mb_s < plain.data_bandwidth_mb_s * 0.8,
            "stalled {} vs plain {}",
            stalled.data_bandwidth_mb_s,
            plain.data_bandwidth_mb_s
        );
    }

    #[test]
    fn pcm_obscures_request_size_differences() {
        // §4.3: PCM's read speed hides file-system differences behind the
        // interface ceiling.
        let dev = paper_device(NvmKind::Pcm);
        let small = dev.run(&seq_read_trace(32 * MIB, 64 * 1024, 4));
        let large = dev.run(&seq_read_trace(32 * MIB, 2 * MIB, 4));
        let ratio = large.bandwidth_mb_s / small.bandwidth_mb_s;
        assert!(ratio < 1.5, "PCM ratio {ratio} too large");
        // While on TLC the same change matters a lot: 150 µs senses starve
        // a shallow queue of small requests.
        let tlc = paper_device(NvmKind::Tlc);
        let ts = tlc.run(&seq_read_trace(32 * MIB, 64 * 1024, 4));
        let tl = tlc.run(&seq_read_trace(32 * MIB, 2 * MIB, 4));
        let tlc_ratio = tl.bandwidth_mb_s / ts.bandwidth_mb_s;
        assert!(tlc_ratio > 2.0 * ratio, "tlc {tlc_ratio} vs pcm {ratio}");
    }

    #[test]
    fn writes_trigger_erases_and_wear() {
        let mut dev = paper_device(NvmKind::Slc);
        dev.pre_erased_rows = 0;
        let mut reqs = Vec::new();
        for i in 0..64u64 {
            reqs.push(HostRequest::write(i * MIB, MIB));
        }
        let rep = dev.run(&BlockTrace::from_requests(reqs, 8));
        assert!(rep.wear.erases > 0);
        assert!(rep.bandwidth_mb_s > 0.0);
    }

    #[test]
    fn paq_improves_concurrent_service() {
        let media = MediaConfig::paper(NvmKind::Tlc, sdr400());
        let host = LinkChain::single(pcie(PcieGen::Gen2, 8));
        let with_paq = SsdDevice::new(SsdConfig::new(media, host.clone()));
        let without = SsdDevice::new(SsdConfig::new(media, host).without_paq());
        let trace = seq_read_trace(32 * MIB, 128 * 1024, 32);
        let a = with_paq.run(&trace);
        let b = without.run(&trace);
        assert!(
            a.bandwidth_mb_s > b.bandwidth_mb_s,
            "paq {} vs nopaq {}",
            a.bandwidth_mb_s,
            b.bandwidth_mb_s
        );
    }

    #[test]
    fn breakdown_buckets_are_all_populated_for_mixed_load() {
        let dev = paper_device(NvmKind::Tlc);
        let rep = dev.run(&seq_read_trace(32 * MIB, 256 * 1024, 16));
        let b = &rep.media.breakdown;
        assert!(b.cell_activation > 0);
        assert!(b.channel_activation > 0);
        assert!(b.flash_bus_activation > 0);
        assert!((b.percent().iter().sum::<f64>() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn latency_percentiles_reflect_media_speed() {
        // Single-page reads at queue depth 1: latency is sense-dominated,
        // so the Table-1 hierarchy shows through directly.
        let slc = paper_device(NvmKind::Slc);
        let tlc = paper_device(NvmKind::Tlc);
        let trace = |page: u64| {
            ooctrace::BlockTrace::from_requests(
                (0..64).map(|i| HostRequest::read(i * page, page)).collect(),
                1,
            )
        };
        let a = slc.run(&trace(2048));
        let b = tlc.run(&trace(8192));
        assert!(a.latency.p50 > 0);
        assert!(
            b.latency.p50 > a.latency.p50,
            "TLC p50 {} vs SLC {}",
            b.latency.p50,
            a.latency.p50
        );
        assert!(b.latency.p99 >= b.latency.p50);
        assert!(b.latency.max >= b.latency.p99);
    }

    #[test]
    fn report_conserves_bytes() {
        let dev = paper_device(NvmKind::Mlc);
        let trace = seq_read_trace(16 * MIB, MIB, 8);
        let rep = dev.run(&trace);
        // Media moved at least the payload (page-aligned over-read allowed).
        assert!(rep.media.bytes >= rep.total_bytes);
        assert_eq!(rep.requests, u64_from_usize(trace.len()));
    }
}
