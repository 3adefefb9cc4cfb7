//! Multi-tenant QoS: weighted fair queueing and admission control over
//! one shared device, with exact per-tenant latency attribution — and
//! the device's one request loop.
//!
//! The paper's studies replay one job at a time; a compute-local NVM
//! deployment actually multiplexes *many* jobs — eigensolver replays,
//! checkpoint bursts, key-value lookups — over the same fleet of
//! devices. This module adds that traffic layer inside the request
//! path (see docs/TENANCY.md):
//!
//! * **Fair queueing** — dispatch order across tenants follows
//!   start-time fair queueing (SFQ) over integer virtual time: each
//!   dispatched request advances its tenant's virtual finish tag by
//!   `bytes * SCALE / weight`, and the ready tenant with the smallest
//!   start tag dispatches next. Doubling a tenant's weight halves its
//!   virtual cost, so it wins dispatch order — and therefore die
//!   service — twice as often under contention.
//! * **Admission control** — at most `max_active` tenants run
//!   concurrently; later arrivals queue FIFO (by arrival time, then
//!   tenant index) and are admitted when a running tenant's last
//!   request completes.
//! * **Attribution** — every request goes through
//!   [`EngineState::service_one`], so the per-request breakdowns stay
//!   exact and the per-tenant rollups sum to the fleet totals. A
//!   tenant's die time, die-ops and media bytes ([`TagStats`]) are the
//!   change in the media engine's running totals across its own
//!   requests: every die-op runs inside exactly one request's service,
//!   so the tenants' shares sum to the fleet's.
//!
//! Everything is integer/deterministic: no wall clock, no hash-order
//! iteration, ties broken by tenant index. [`SsdDevice::run_observed`]
//! is this module's loop with one tenant admitted at time zero, so a
//! one-tenant shared run and a single-job run are the same computation.

use crate::device::{fault_states, EngineState};
use crate::report::RunReport;
use crate::SsdDevice;
use flashsim::stats::RawStats;
use flashsim::MediaFaultState;
use interconnect::LinkFaultSim;
use nvmtypes::convert::usize_from_u32;
use nvmtypes::fault::FaultPlan;
use nvmtypes::{HostRequest, Nanos};
use ooctrace::BlockTrace;
use simobs::{HdrHistogram, LatencyAttribution, Tracer};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Virtual-time scale: one byte of service at weight 1 costs `SCALE`
/// virtual ticks, so integer division by small weights keeps precision.
const SCALE: u64 = 1 << 16;

/// Floor on a request's virtual cost (bytes): a zero-length or tiny
/// request still consumes a dispatch slot.
const MIN_COST_BYTES: u64 = 4096;

/// One tenant's workload as the traffic layer sees it: a block trace
/// replayed closed-loop, a fair-queueing weight, an arrival time, and
/// the tenant's own fault plan (fault processes are per-tenant so one
/// tenant's draws never perturb another's).
#[derive(Debug, Clone)]
pub struct TenantWorkload {
    /// The requests, replayed closed-loop at the trace's queue depth
    /// (capped by the device NCQ depth).
    pub trace: BlockTrace,
    /// Fair-queueing weight (clamped to at least 1). Relative: a
    /// weight-4 tenant gets 4x the dispatch share of a weight-1 tenant
    /// while both are backlogged.
    pub weight: u64,
    /// When the tenant shows up, in simulated ns.
    pub arrival_ns: Nanos,
    /// The tenant's fault plan (media/link streams split per tenant).
    pub fault_plan: FaultPlan,
}

impl TenantWorkload {
    /// A weight-1, arrival-0, fault-free tenant over `trace`.
    pub fn new(trace: BlockTrace) -> TenantWorkload {
        TenantWorkload {
            trace,
            weight: 1,
            arrival_ns: 0,
            fault_plan: FaultPlan::none(),
        }
    }
}

/// A tenant as the request loop reads it, with its trace and fault plan
/// borrowed so a single-job run never copies its trace.
pub(crate) struct Tenant<'a> {
    pub(crate) trace: &'a BlockTrace,
    pub(crate) weight: u64,
    pub(crate) arrival_ns: Nanos,
    pub(crate) fault_plan: &'a FaultPlan,
}

/// Admission-control policy for a shared run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QosPolicy {
    /// Maximum tenants running concurrently; `0` means unlimited.
    /// Tenants beyond the cap wait FIFO (arrival time, then index) and
    /// admit when a running tenant's last request completes.
    pub max_active: usize,
}

impl QosPolicy {
    /// No admission cap: every tenant is admitted at its arrival.
    pub fn unlimited() -> QosPolicy {
        QosPolicy { max_active: 0 }
    }

    /// Admit at most `n` tenants concurrently.
    pub fn max_active(n: usize) -> QosPolicy {
        QosPolicy { max_active: n }
    }
}

impl Default for QosPolicy {
    fn default() -> QosPolicy {
        QosPolicy::unlimited()
    }
}

/// Die time, die-ops and payload bytes one tenant's requests consumed
/// on the media.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TagStats {
    /// Die busy time (op start to completion) of the tenant's die-ops, ns.
    pub busy_ns: Nanos,
    /// Die-ops executed for the tenant, recovery retries included.
    pub ops: u64,
    /// Payload bytes moved (reads + writes; erases move none).
    pub bytes: u64,
}

impl TagStats {
    /// The media engine's running totals.
    fn totals(stats: &RawStats) -> TagStats {
        TagStats {
            busy_ns: stats.busy_total,
            ops: stats.ops,
            bytes: stats.bytes(),
        }
    }

    /// Adds the media work done between the totals `before` and `after`.
    fn add_between(&mut self, before: TagStats, after: TagStats) {
        self.busy_ns += after.busy_ns - before.busy_ns;
        self.ops += after.ops - before.ops;
        self.bytes += after.bytes - before.bytes;
    }
}

/// Per-tenant results of a shared run.
#[derive(Debug, Clone)]
pub struct TenantRunStats {
    /// Index of the tenant in the input slice.
    pub tenant: u32,
    /// Requests the tenant completed.
    pub requests: u64,
    /// Host bytes the tenant moved.
    pub bytes: u64,
    /// When the tenant was admitted (>= its arrival).
    pub admitted_ns: Nanos,
    /// Completion time of the tenant's last request (0 for an empty
    /// trace: the tenant finished the moment it was admitted).
    pub finish_ns: Nanos,
    /// Full per-request latency distribution for this tenant alone.
    pub latency_hdr: HdrHistogram,
    /// Exact per-layer latency attribution for this tenant alone; the
    /// tenants' `total_ns` values sum to the fleet's.
    pub attribution: LatencyAttribution,
    /// Media work the tenant's requests caused; the tenants' values sum
    /// to the fleet's.
    pub media: TagStats,
}

/// A shared multi-tenant run: the fleet-level [`RunReport`] plus the
/// per-tenant rollups.
#[derive(Debug, Clone)]
pub struct SharedRunReport {
    /// Fleet-level report over all tenants' traffic, same accounting as
    /// [`SsdDevice::run`].
    pub fleet: RunReport,
    /// Per-tenant stats, indexed like the input slice.
    pub tenants: Vec<TenantRunStats>,
}

/// Mutable scheduler state for one tenant.
struct TenantState<'a> {
    trace: &'a BlockTrace,
    arrival_ns: Nanos,
    weight: u64,
    /// `Some(t)` once admitted at `t`; `None` while waiting.
    admitted: Option<Nanos>,
    next: usize,
    qd: usize,
    inflight: BinaryHeap<Reverse<Nanos>>,
    prev_issue: Nanos,
    /// Virtual finish tag of the tenant's last dispatched request.
    vfinish: u64,
    finish: Nanos,
    done: bool,
    media_faults: Option<MediaFaultState>,
    link_faults: Option<LinkFaultSim>,
    stats: TenantRunStats,
}

impl TenantState<'_> {
    /// Earliest time the tenant's next request could issue under the
    /// closed-loop rule: after the previous issue (or the last sync
    /// barrier's completion), and, with all `qd` slots taken, after the
    /// earliest outstanding completion (peek only; the pop happens at
    /// dispatch).
    fn ready(&self) -> Nanos {
        let mut ready = self.prev_issue;
        if self.inflight.len() >= self.qd {
            if let Some(&Reverse(c)) = self.inflight.peek() {
                ready = ready.max(c);
            }
        }
        ready
    }
}

/// Admits waiting tenants while fewer than `max_active` run, none
/// before `at`. An admitted tenant with an empty trace finishes
/// instantly and frees its slot for the next waiter.
fn admit(
    waiting: &mut VecDeque<usize>,
    ts: &mut [TenantState<'_>],
    active: &mut usize,
    max_active: usize,
    at: Nanos,
) {
    while *active < max_active {
        let Some(i) = waiting.pop_front() else { break };
        let t = &mut ts[i];
        let admitted_at = t.arrival_ns.max(at);
        t.admitted = Some(admitted_at);
        t.prev_issue = admitted_at;
        t.stats.admitted_ns = admitted_at;
        if t.trace.requests.is_empty() {
            t.done = true;
            t.finish = admitted_at;
            t.stats.finish_ns = admitted_at;
        } else {
            *active += 1;
        }
    }
}

impl SsdDevice {
    /// Replays several tenants' traces against **one** shared device
    /// under weighted fair queueing and admission control, with an
    /// observer attached (pass [`Tracer::off`] when not tracing).
    ///
    /// Returns the fleet-level report (same accounting as
    /// [`SsdDevice::run`] over the union of the traffic) plus exact
    /// per-tenant stats. Deterministic for fixed inputs: byte-identical
    /// across re-runs and thread counts.
    ///
    /// # Panics
    /// Panics if `tenants` is empty.
    pub fn run_shared(
        &self,
        tenants: &[TenantWorkload],
        policy: &QosPolicy,
        obs: &mut Tracer,
    ) -> SharedRunReport {
        assert!(!tenants.is_empty(), "run_shared needs at least one tenant");
        let tenants = tenants.iter().map(|t| Tenant {
            trace: &t.trace,
            weight: t.weight,
            arrival_ns: t.arrival_ns,
            fault_plan: &t.fault_plan,
        });
        self.serve(tenants, policy, obs)
    }

    /// The device's request loop, shared by [`SsdDevice::run_observed`]
    /// (one tenant) and [`SsdDevice::run_shared`].
    ///
    /// Each tenant issues closed-loop: a request issues once the
    /// tenant's previous request has issued, its last sync barrier has
    /// completed, and one of its `qd` slots is free. Those rules alone
    /// set issue times. Across tenants, a dispatch clock orders the
    /// service: each step dispatches, among the admitted tenants ready
    /// by the clock, the one with the smallest SFQ start tag.
    pub(crate) fn serve<'a>(
        &self,
        tenants: impl Iterator<Item = Tenant<'a>>,
        policy: &QosPolicy,
        obs: &mut Tracer,
    ) -> SharedRunReport {
        let cfg = self.config();
        let mut ts: Vec<TenantState<'a>> = tenants
            .enumerate()
            .map(|(i, t)| {
                let (media_faults, link_faults) = fault_states(t.fault_plan, &cfg.media);
                let qd = usize_from_u32(cfg.ncq_depth.min(t.trace.queue_depth).max(1));
                TenantState {
                    trace: t.trace,
                    arrival_ns: t.arrival_ns,
                    weight: t.weight.max(1),
                    admitted: None,
                    next: 0,
                    qd,
                    inflight: BinaryHeap::with_capacity(qd + 1),
                    prev_issue: 0,
                    vfinish: 0,
                    finish: 0,
                    done: false,
                    media_faults,
                    link_faults,
                    stats: TenantRunStats {
                        tenant: u32::try_from(i).unwrap_or(u32::MAX),
                        requests: 0,
                        bytes: 0,
                        admitted_ns: 0,
                        finish_ns: 0,
                        latency_hdr: HdrHistogram::new(),
                        attribution: LatencyAttribution::default(),
                        media: TagStats::default(),
                    },
                }
            })
            .collect();
        let total_requests: usize = ts.iter().map(|t| t.trace.len()).sum();
        let mut state = EngineState::new(self, total_requests);
        let max_active = if policy.max_active == 0 {
            ts.len()
        } else {
            policy.max_active
        };

        // FIFO admission queue: arrival order, ties by index.
        let mut waiting: VecDeque<usize> = {
            let mut order: Vec<usize> = (0..ts.len()).collect();
            order.sort_by_key(|&i| (ts[i].arrival_ns, i));
            order.into()
        };
        let mut active: usize = 0;
        admit(&mut waiting, &mut ts, &mut active, max_active, 0);

        // SFQ virtual time: the start tag of the last dispatched request.
        let mut vtime: u64 = 0;
        // The dispatch clock: advances to the earliest ready time when
        // no admitted tenant is ready "now". Requests never dispatch at
        // issue times beyond `now`, so a late-arriving tenant cannot
        // push media resources into its future and starve earlier work.
        let mut now: Nanos = 0;
        // Fleet-wide outstanding completions, used only to advance the
        // clock: once `device_slots` non-sync requests are outstanding,
        // `now` moves to the earliest of their completions. No issue
        // time waits for a device slot — each tenant's own closed loop
        // sets its issue times — so up to the sum of the tenants'
        // queue depths can be in flight at once, not `ncq_depth`.
        let device_slots = usize_from_u32(cfg.ncq_depth.max(1));
        let mut device_inflight: BinaryHeap<Reverse<Nanos>> =
            BinaryHeap::with_capacity(device_slots + 1);

        loop {
            if device_inflight.len() >= device_slots {
                if let Some(Reverse(c)) = device_inflight.pop() {
                    now = now.max(c);
                }
            }
            // Candidates: admitted, not done, with requests left.
            let mut best: Option<(u64, usize)> = None;
            let mut min_ready: Option<Nanos> = None;
            for (i, t) in ts.iter().enumerate() {
                if t.admitted.is_none() || t.done {
                    continue;
                }
                let ready = t.ready();
                min_ready = Some(min_ready.map_or(ready, |m: Nanos| m.min(ready)));
                if ready > now {
                    continue;
                }
                let start_tag = vtime.max(t.vfinish);
                if best.is_none_or(|(tag, idx)| (start_tag, i) < (tag, idx)) {
                    best = Some((start_tag, i));
                }
            }
            let (start_tag, i) = match (best, min_ready) {
                (Some(b), _) => b,
                (None, Some(m)) => {
                    // Nobody is ready yet: advance the clock.
                    now = m;
                    continue;
                }
                (None, None) => break,
            };

            let t = &mut ts[i];
            let req: HostRequest = t.trace.requests[t.next];
            t.next += 1;
            let mut issue = t.prev_issue;
            if t.inflight.len() >= t.qd {
                if let Some(Reverse(c)) = t.inflight.pop() {
                    issue = issue.max(c);
                }
            }

            let media_before = TagStats::totals(state.media.stats());
            let (completion, breakdown) =
                state.service_one(&req, issue, &mut t.media_faults, &mut t.link_faults, obs);
            t.stats
                .media
                .add_between(media_before, TagStats::totals(state.media.stats()));

            vtime = start_tag;
            t.vfinish = start_tag + req.len.max(MIN_COST_BYTES) * SCALE / t.weight;
            t.finish = t.finish.max(completion);
            t.stats.requests += 1;
            t.stats.bytes += req.len;
            t.stats.latency_hdr.record(completion.saturating_sub(issue));
            t.stats.attribution.absorb(breakdown);
            if req.sync {
                // Dependency barrier: nothing later from this tenant may
                // issue until this request (a metadata lookup or journal
                // commit) completes. Already-inflight requests keep going.
                t.prev_issue = completion;
            } else {
                t.inflight.push(Reverse(completion));
                t.prev_issue = issue;
                device_inflight.push(Reverse(completion));
            }

            if t.next == t.trace.requests.len() {
                t.done = true;
                t.stats.finish_ns = t.finish;
                let freed_at = t.finish;
                active -= 1;
                admit(&mut waiting, &mut ts, &mut active, max_active, freed_at);
            }
        }

        // Fold per-tenant link-fault accounting into the fleet totals.
        for t in &ts {
            if let Some(lf) = &t.link_faults {
                let s = lf.stats();
                state.rel.link.crc_errors += s.crc_errors;
                state.rel.link.replays += s.replays;
                state.rel.link.replay_ns += s.replay_ns;
                state.rel.link.retrains += s.retrains;
                state.rel.link.retrain_ns += s.retrain_ns;
            }
        }

        let total_bytes: u64 = ts.iter().map(|t| t.trace.total_bytes()).sum();
        let data_bytes: u64 = ts.iter().map(|t| t.trace.data_bytes()).sum();
        let fleet = state.finish(cfg, total_bytes, data_bytes, total_requests, obs);
        SharedRunReport {
            fleet,
            tenants: ts.into_iter().map(|t| t.stats).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SsdConfig;
    use flashsim::MediaConfig;
    use interconnect::{pcie, LinkChain, PcieGen};
    use nvmtypes::{BusTiming, NvmKind, MIB};

    fn device() -> SsdDevice {
        let media = MediaConfig::paper(
            NvmKind::Tlc,
            BusTiming {
                name: "ONFi3-SDR-400",
                bytes_per_ns: 0.4,
            },
        );
        SsdDevice::new(SsdConfig::new(media, LinkChain::single(pcie(PcieGen::Gen2, 8))).with_ufs())
    }

    fn read_trace(total: u64, req: u64, qd: u32) -> BlockTrace {
        let mut reqs = Vec::new();
        let mut off = 0;
        while off < total {
            reqs.push(HostRequest::read(off, req.min(total - off)));
            off += req;
        }
        BlockTrace::from_requests(reqs, qd)
    }

    #[test]
    fn one_tenant_shared_run_is_the_single_job_run() {
        // Reads, a sync barrier and writes, so every recovery path and
        // the link retrain cadence are exercised under the fault plan.
        let mut reqs: Vec<HostRequest> = (0..48)
            .map(|i| HostRequest::read(i * 256 * 1024, 256 * 1024))
            .collect();
        reqs.push(HostRequest::read(0, 4096).synchronous());
        reqs.extend((0..16).map(|i| HostRequest::write(i * 256 * 1024, 256 * 1024)));
        let trace = BlockTrace::from_requests(reqs, 8);
        for plan in [FaultPlan::none(), FaultPlan::moderate(42)] {
            let dev = SsdDevice::new(device().config().clone().with_fault_plan(plan));
            let single = dev.run(&trace);
            assert_eq!(single.reliability.any(), plan != FaultPlan::none());
            let mut tenant = TenantWorkload::new(trace.clone());
            tenant.fault_plan = plan;
            let shared = dev.run_shared(&[tenant], &QosPolicy::unlimited(), &mut Tracer::off());
            assert_eq!(format!("{:?}", shared.fleet), format!("{single:?}"));
            assert_eq!(shared.tenants.len(), 1);
            assert_eq!(shared.tenants[0].requests, single.requests);
        }
    }

    #[test]
    fn tenant_attributions_sum_to_the_fleet_total() {
        let dev = device();
        let tenants: Vec<TenantWorkload> = (0..4u64)
            .map(|i| {
                let mut t = TenantWorkload::new(read_trace(4 * MIB, 256 * 1024, 4));
                t.weight = 1 + i % 2;
                t
            })
            .collect();
        let shared = dev.run_shared(&tenants, &QosPolicy::unlimited(), &mut Tracer::off());
        assert!(shared.fleet.attribution.is_exact());
        let tenant_total: Nanos = shared.tenants.iter().map(|t| t.attribution.total_ns).sum();
        assert_eq!(tenant_total, shared.fleet.attribution.total_ns);
        let tenant_reqs: u64 = shared.tenants.iter().map(|t| t.requests).sum();
        assert_eq!(tenant_reqs, shared.fleet.requests);
        let tenant_media: u64 = shared.tenants.iter().map(|t| t.media.bytes).sum();
        assert_eq!(tenant_media, shared.fleet.media.bytes);
        for t in &shared.tenants {
            assert!(t.attribution.is_exact());
            assert!(t.media.ops > 0, "tenant {} has no die-ops", t.tenant);
        }
    }

    #[test]
    fn higher_weight_wins_tail_latency_under_contention() {
        let dev = device();
        let mk = |weight| {
            let mut t = TenantWorkload::new(read_trace(8 * MIB, 128 * 1024, 16));
            t.weight = weight;
            t
        };
        let shared = dev.run_shared(
            &[mk(8), mk(1), mk(1), mk(1)],
            &QosPolicy::unlimited(),
            &mut Tracer::off(),
        );
        let heavy = shared.tenants[0].latency_hdr.percentiles();
        let light = shared.tenants[1].latency_hdr.percentiles();
        assert!(
            heavy.p99 < light.p99,
            "weight-8 p99 {} should beat weight-1 p99 {}",
            heavy.p99,
            light.p99
        );
    }

    #[test]
    fn admission_control_serializes_beyond_the_cap() {
        let dev = device();
        let tenants: Vec<TenantWorkload> = (0..4)
            .map(|_| TenantWorkload::new(read_trace(2 * MIB, 256 * 1024, 4)))
            .collect();
        let capped = dev.run_shared(&tenants, &QosPolicy::max_active(1), &mut Tracer::off());
        // With one slot, each tenant is admitted when the previous
        // finishes: admission times are strictly increasing.
        for w in capped.tenants.windows(2) {
            assert!(w[1].admitted_ns >= w[0].finish_ns);
        }
        let open = dev.run_shared(&tenants, &QosPolicy::unlimited(), &mut Tracer::off());
        assert!(open.tenants.iter().all(|t| t.admitted_ns == 0));
        // Alone on the device, the first tenant finishes sooner than it
        // does sharing with three others. (Fleet makespans are close:
        // the device is work-conserving, so serialized admission mostly
        // reorders who waits, not how much total work there is.)
        assert!(
            capped.tenants[0].finish_ns < open.tenants[0].finish_ns,
            "solo {} vs shared {}",
            capped.tenants[0].finish_ns,
            open.tenants[0].finish_ns
        );
    }

    #[test]
    fn shared_runs_are_deterministic() {
        let dev = device();
        let tenants: Vec<TenantWorkload> = (0..3u64)
            .map(|i| {
                let mut t = TenantWorkload::new(read_trace(4 * MIB, 256 * 1024, 4));
                t.arrival_ns = i * 1_000_000;
                t
            })
            .collect();
        let a = dev.run_shared(&tenants, &QosPolicy::max_active(2), &mut Tracer::off());
        let b = dev.run_shared(&tenants, &QosPolicy::max_active(2), &mut Tracer::off());
        assert_eq!(a.fleet.makespan, b.fleet.makespan);
        assert_eq!(a.fleet.latency_hdr, b.fleet.latency_hdr);
        for (x, y) in a.tenants.iter().zip(&b.tenants) {
            assert_eq!(x.latency_hdr, y.latency_hdr);
            assert_eq!(x.attribution, y.attribution);
            assert_eq!(x.media, y.media);
        }
    }

    #[test]
    #[should_panic(expected = "at least one tenant")]
    fn empty_tenant_set_is_rejected() {
        device().run_shared(&[], &QosPolicy::unlimited(), &mut Tracer::off());
    }
}
