//! Multi-tenant traffic studies: several jobs sharing one device.
//!
//! The paper replays one job at a time; a compute-local NVM deployment
//! actually multiplexes *many* — eigensolver replays, checkpoint
//! bursts, key-value lookups — over the same fleet. This module is the
//! workload-facing half of that story (the scheduler half lives in
//! [`ssd::qos`], see docs/TENANCY.md):
//!
//! * [`TenantProfile`] — what a tenant does (the workload family and
//!   its size knobs), turned into a POSIX trace per tenant;
//! * [`TenantSpec`] — one tenant fully specified: profile, trace seed,
//!   fair-queueing weight, fault plan;
//! * [`ArrivalProcess`] — a seeded SplitMix64 arrival process that
//!   staggers tenants in time, with a bursty component so arrivals
//!   cluster the way real job queues do;
//! * [`TenancySpec`] — the generalized experiment: a
//!   [`ExperimentSpec`](crate::experiment::ExperimentSpec) holding a
//!   *set* of tenants plus an admission policy, run through
//!   [`ssd::SsdDevice::run_shared`];
//! * [`TenancyReport`] / [`TenantReport`] — the fleet-level
//!   [`ExperimentReport`] plus exact per-tenant tail-latency and
//!   attribution blocks.
//!
//! A one-tenant spec (weight 1, arrival 0, no admission cap) reproduces
//! the single-job [`ExperimentSpec::run`](crate::experiment::ExperimentSpec::run)
//! report byte-for-byte: both paths transform the same POSIX trace
//! through the same file system and service it with the same engine
//! code, and with one tenant the fair-queueing layer is an identity
//! (pinned by a test below and by `tests/determinism.rs`).

use crate::config::SystemConfig;
use crate::experiment::{report_from_run, ExperimentReport, ExperimentSpec, FsStage};
use crate::workload::{checkpoint_trace, kv_lookup_trace, synthetic_ooc_trace};
use nvmtypes::{FaultPlan, FaultRng, Nanos, NvmKind};
use ooctrace::PosixTrace;
use simobs::{HdrHistogram, HdrPercentiles, LatencyAttribution, Tracer};
use ssd::{QosPolicy, TenantWorkload};

/// Stream id for the arrival process, disjoint from the
/// `nvmtypes::fault::STREAM_*` fault streams so arrival draws never
/// perturb fault draws (and vice versa).
const STREAM_ARRIVAL: u64 = 5;

/// What one tenant does: a workload family and its size knobs. Each
/// profile expands to a POSIX trace via [`TenantProfile::posix_trace`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TenantProfile {
    /// An out-of-core eigensolver replay: large, mostly-sequential
    /// panel reads ([`synthetic_ooc_trace`]).
    Eigensolve {
        /// Bytes swept.
        total_bytes: u64,
        /// Panel read size.
        record_size: u64,
    },
    /// A write-heavy checkpointing job: the OoC sweep with periodic
    /// sequential checkpoint bursts ([`checkpoint_trace`]).
    Checkpoint {
        /// Bytes read between the start and the end of the job.
        read_bytes: u64,
        /// Read bytes between consecutive checkpoints.
        ckpt_interval_bytes: u64,
        /// Bytes written per checkpoint.
        ckpt_bytes: u64,
        /// Read/write record size.
        record_size: u64,
    },
    /// A latency-sensitive key-value store: uniformly random point
    /// reads with no reuse ([`kv_lookup_trace`]).
    KvLookup {
        /// Bytes looked up in total.
        total_bytes: u64,
        /// Size of one value read.
        value_size: u64,
    },
}

impl TenantProfile {
    /// The profile's display label (stable; used in reports and JSON).
    pub fn label(&self) -> &'static str {
        match self {
            TenantProfile::Eigensolve { .. } => "eigensolve",
            TenantProfile::Checkpoint { .. } => "checkpoint",
            TenantProfile::KvLookup { .. } => "kv-lookup",
        }
    }

    /// Expands the profile into its POSIX trace with trace seed `seed`.
    pub fn posix_trace(&self, seed: u64) -> PosixTrace {
        match *self {
            TenantProfile::Eigensolve {
                total_bytes,
                record_size,
            } => synthetic_ooc_trace(total_bytes, record_size, seed),
            TenantProfile::Checkpoint {
                read_bytes,
                ckpt_interval_bytes,
                ckpt_bytes,
                record_size,
            } => checkpoint_trace(
                read_bytes,
                ckpt_interval_bytes,
                ckpt_bytes,
                record_size,
                seed,
            ),
            TenantProfile::KvLookup {
                total_bytes,
                value_size,
            } => kv_lookup_trace(total_bytes, value_size, seed),
        }
    }
}

/// One tenant, fully specified.
#[derive(Debug, Clone, Copy)]
pub struct TenantSpec {
    /// The tenant's workload.
    pub profile: TenantProfile,
    /// Trace seed: two tenants with the same profile and different
    /// seeds replay different (deterministic) traces.
    pub seed: u64,
    /// Fair-queueing weight (relative dispatch share under contention).
    pub weight: u64,
    /// The tenant's own fault plan; fault streams are per-tenant, so
    /// one tenant's draws never perturb another's.
    pub fault_plan: FaultPlan,
}

impl TenantSpec {
    /// A weight-1, fault-free tenant of `profile` with trace seed 0.
    pub fn new(profile: TenantProfile) -> TenantSpec {
        TenantSpec {
            profile,
            seed: 0,
            weight: 1,
            fault_plan: FaultPlan::none(),
        }
    }

    /// Sets the trace seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> TenantSpec {
        self.seed = seed;
        self
    }

    /// Sets the fair-queueing weight.
    #[must_use]
    pub fn weight(mut self, weight: u64) -> TenantSpec {
        self.weight = weight;
        self
    }

    /// Installs a per-tenant fault plan.
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan) -> TenantSpec {
        self.fault_plan = plan;
        self
    }
}

/// A seeded SplitMix64 job-arrival process.
///
/// The first tenant always arrives at time zero (so a one-tenant spec
/// cannot be perturbed by the arrival seed); each later tenant arrives
/// one *gap* after the previous. With probability `burst_fraction` the
/// gap is zero — a burst, two jobs hitting the queue together — and
/// otherwise it is uniform in `[0, 2 * mean_gap_ns]`, so gaps average
/// `mean_gap_ns`. All draws come from [`FaultRng`] (SplitMix64) on its
/// own stream: deterministic, and independent of every fault stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalProcess {
    /// Mean inter-arrival gap, simulated ns.
    pub mean_gap_ns: Nanos,
    /// Probability in `[0, 1]` that a gap collapses to zero.
    pub burst_fraction: f64,
    /// Seed of the arrival stream.
    pub seed: u64,
}

impl ArrivalProcess {
    /// Every tenant arrives at time zero (the default).
    pub fn at_time_zero() -> ArrivalProcess {
        ArrivalProcess {
            mean_gap_ns: 0,
            burst_fraction: 0.0,
            seed: 0,
        }
    }

    /// Bursty arrivals: mean gap `mean_gap_ns`, a `burst_fraction`
    /// chance per gap of arriving together, from `seed`.
    pub fn bursty(mean_gap_ns: Nanos, burst_fraction: f64, seed: u64) -> ArrivalProcess {
        ArrivalProcess {
            mean_gap_ns,
            burst_fraction,
            seed,
        }
    }

    /// The arrival times of `n` tenants, non-decreasing, starting at 0.
    pub fn arrivals(&self, n: usize) -> Vec<Nanos> {
        let mut rng = FaultRng::new(self.seed).split(STREAM_ARRIVAL);
        let mut out = Vec::with_capacity(n);
        let mut t: Nanos = 0;
        for i in 0..n {
            if i > 0 {
                let gap = if rng.gen_bool(self.burst_fraction) {
                    0
                } else {
                    rng.gen_range(2 * self.mean_gap_ns + 1)
                };
                t += gap;
            }
            out.push(t);
        }
        out
    }
}

/// The generalized experiment: one system configuration and medium, a
/// *set* of tenants, an admission policy and an arrival process.
///
/// Built from [`ExperimentSpec::tenants`]; run with
/// [`TenancySpec::run`]:
///
/// ```
/// use oocnvm_core::config::SystemConfig;
/// use oocnvm_core::experiment::ExperimentSpec;
/// use oocnvm_core::tenancy::{TenantProfile, TenantSpec};
/// use nvmtypes::{NvmKind, MIB};
///
/// let report = ExperimentSpec::new(&SystemConfig::cnl_ufs(), NvmKind::Tlc)
///     .tenants(vec![
///         TenantSpec::new(TenantProfile::Eigensolve {
///             total_bytes: 8 * MIB,
///             record_size: MIB,
///         }),
///         TenantSpec::new(TenantProfile::KvLookup {
///             total_bytes: MIB,
///             value_size: 8192,
///         })
///         .weight(4),
///     ])
///     .run();
/// assert_eq!(report.tenants.len(), 2);
/// assert!(report.tenants[1].latency.p999 > 0);
/// ```
#[derive(Debug)]
pub struct TenancySpec<'t> {
    config: SystemConfig,
    kind: NvmKind,
    journaled_ufs: bool,
    tracer: Option<&'t mut Tracer>,
    tenants: Vec<TenantSpec>,
    policy: QosPolicy,
    arrivals: ArrivalProcess,
}

impl<'t> ExperimentSpec<'t> {
    /// Generalizes this spec to a set of tenants sharing the device.
    ///
    /// The spec's fault plan becomes the *first* tenant's plan (it
    /// described the one job the spec used to hold); further tenants
    /// carry their own plans. Tracer and journaled-UFS settings carry
    /// over unchanged.
    pub fn tenants(self, tenants: Vec<TenantSpec>) -> TenancySpec<'t> {
        let mut tenants = tenants;
        if let Some(first) = tenants.first_mut() {
            if !self.plan.is_none() && first.fault_plan.is_none() {
                first.fault_plan = self.plan;
            }
        }
        TenancySpec {
            config: self.config,
            kind: self.kind,
            journaled_ufs: self.journaled_ufs,
            tracer: self.tracer,
            tenants,
            policy: QosPolicy::unlimited(),
            arrivals: ArrivalProcess::at_time_zero(),
        }
    }
}

impl<'t> TenancySpec<'t> {
    /// Sets the admission-control policy (default: unlimited).
    #[must_use]
    pub fn policy(mut self, policy: QosPolicy) -> TenancySpec<'t> {
        self.policy = policy;
        self
    }

    /// Sets the arrival process (default: everyone at time zero).
    #[must_use]
    pub fn arrivals(mut self, arrivals: ArrivalProcess) -> TenancySpec<'t> {
        self.arrivals = arrivals;
        self
    }

    /// Runs the multi-tenant experiment: expands each tenant's profile
    /// to a POSIX trace, transforms it through the configuration's file
    /// system (or the real journaled UFS when the spec carries
    /// `journaled_ufs(true)`), and replays the set against one shared
    /// device under weighted fair queueing.
    ///
    /// # Panics
    /// Panics if the spec holds no tenants.
    pub fn run(self) -> TenancyReport {
        assert!(
            !self.tenants.is_empty(),
            "a tenancy needs at least one tenant"
        );
        let mut off = Tracer::off();
        let obs = match self.tracer {
            Some(t) => t,
            None => &mut off,
        };
        let arrivals = self.arrivals.arrivals(self.tenants.len());
        let stage = FsStage::of(&self.config, self.journaled_ufs);
        let workloads: Vec<TenantWorkload> = self
            .tenants
            .iter()
            .zip(&arrivals)
            .map(|(t, &arrival_ns)| {
                let posix = t.profile.posix_trace(t.seed);
                let block = stage.transform(&posix, obs);
                let mut w = TenantWorkload::new(block);
                w.weight = t.weight;
                w.arrival_ns = arrival_ns;
                w.fault_plan = t.fault_plan;
                w
            })
            .collect();
        let device = self.config.device(self.kind);
        let shared = device.run_shared(&workloads, &self.policy, obs);
        let tenants = self
            .tenants
            .iter()
            .zip(&arrivals)
            .zip(shared.tenants)
            .map(|((spec, &arrival_ns), s)| TenantReport {
                tenant: s.tenant,
                profile: spec.profile.label(),
                weight: spec.weight,
                arrival_ns,
                admitted_ns: s.admitted_ns,
                finish_ns: s.finish_ns,
                requests: s.requests,
                bytes: s.bytes,
                latency: s.latency_hdr.percentiles(),
                latency_hdr: s.latency_hdr,
                attribution: s.attribution,
                media_busy_ns: s.media.busy_ns,
                media_ops: s.media.ops,
                media_bytes: s.media.bytes,
            })
            .collect();
        TenancyReport {
            fleet: report_from_run(self.config.label, self.kind, shared.fleet),
            tenants,
        }
    }
}

/// Runs a batch of tenancy specs on the thread pool, returning reports
/// in input order — byte-identical at any thread count because each
/// tenancy is an independent pure function of its spec (the same
/// contract as [`crate::experiment::run_batch`]).
///
/// The pool claims work in the order it is handed it, and a tenancy's
/// cost grows with its tenant count, so the specs go to the pool
/// heaviest first (most tenants first, ties in input order): the
/// largest run starts at once instead of last. Which worker ran a spec
/// is invisible in its report.
///
/// Specs must be `'static` (untraced): a tracer is a single mutable
/// observation stream and cannot be shared across workers.
pub fn run_tenancy_batch(specs: Vec<TenancySpec<'static>>) -> Vec<TenancyReport> {
    use rayon::prelude::*;
    let mut plain: Vec<_> = specs
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            (
                i,
                s.config,
                s.kind,
                s.journaled_ufs,
                s.tenants,
                s.policy,
                s.arrivals,
            )
        })
        .collect();
    plain.sort_by_key(|(i, _, _, _, tenants, _, _)| (std::cmp::Reverse(tenants.len()), *i));
    let mut done: Vec<(usize, TenancyReport)> = plain
        .into_par_iter()
        .map(|(i, config, kind, journaled, tenants, policy, arrivals)| {
            let report = ExperimentSpec::new(&config, kind)
                .journaled_ufs(journaled)
                .tenants(tenants)
                .policy(policy)
                .arrivals(arrivals)
                .run();
            (i, report)
        })
        .collect();
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, report)| report).collect()
}

/// Per-tenant results of a [`TenancySpec::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// Tenant index in the spec's input order.
    pub tenant: u32,
    /// Profile label ([`TenantProfile::label`]).
    pub profile: &'static str,
    /// Fair-queueing weight the tenant ran with.
    pub weight: u64,
    /// When the tenant arrived (from the [`ArrivalProcess`]).
    pub arrival_ns: Nanos,
    /// When admission control let it in (>= arrival).
    pub admitted_ns: Nanos,
    /// Completion time of its last request.
    pub finish_ns: Nanos,
    /// Requests completed.
    pub requests: u64,
    /// Host bytes moved.
    pub bytes: u64,
    /// Tail-latency block: p50/p90/p99/p999/max over this tenant's
    /// requests alone.
    pub latency: HdrPercentiles,
    /// The full distribution behind [`TenantReport::latency`].
    pub latency_hdr: HdrHistogram,
    /// Exact per-layer latency attribution; tenants' `total_ns` sum to
    /// the fleet's.
    pub attribution: LatencyAttribution,
    /// Die-busy time attributed to this tenant by the media engine's
    /// arbitration tags.
    pub media_busy_ns: Nanos,
    /// Die operations the tenant consumed.
    pub media_ops: u64,
    /// Media bytes the tenant moved.
    pub media_bytes: u64,
}

/// Results of a multi-tenant run: the fleet-level rollup (same shape as
/// a single-job [`ExperimentReport`], over the union of the traffic)
/// plus the per-tenant blocks.
#[derive(Debug, PartialEq)]
pub struct TenancyReport {
    /// Fleet-level report over all tenants' traffic.
    pub fleet: ExperimentReport,
    /// Per-tenant reports, in spec order.
    pub tenants: Vec<TenantReport>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmtypes::MIB;

    fn eigensolve(total: u64) -> TenantProfile {
        TenantProfile::Eigensolve {
            total_bytes: total,
            record_size: MIB,
        }
    }

    #[test]
    fn one_tenant_reproduces_the_single_job_report_byte_for_byte() {
        let cfg = SystemConfig::cnl_ufs();
        let trace = synthetic_ooc_trace(8 * MIB, MIB, 3);
        let single = ExperimentSpec::new(&cfg, NvmKind::Tlc).run(&trace);
        let tenancy = ExperimentSpec::new(&cfg, NvmKind::Tlc)
            .tenants(vec![TenantSpec::new(eigensolve(8 * MIB)).seed(3)])
            .run();
        // `{:?}` renders every field of every layer (including the full
        // HDR bucket array), so string equality is byte-identity.
        assert_eq!(format!("{single:?}"), format!("{:?}", tenancy.fleet));
        assert_eq!(tenancy.tenants.len(), 1);
        assert_eq!(tenancy.tenants[0].requests, single.run.requests);
        assert_eq!(tenancy.tenants[0].arrival_ns, 0);
    }

    #[test]
    fn one_tenant_with_faults_reproduces_the_faulted_report() {
        let cfg = SystemConfig::cnl_ufs();
        let plan = FaultPlan::moderate(42);
        let trace = synthetic_ooc_trace(8 * MIB, MIB, 3);
        let single = ExperimentSpec::new(&cfg, NvmKind::Tlc)
            .faults(plan)
            .run(&trace);
        let tenancy = ExperimentSpec::new(&cfg, NvmKind::Tlc)
            .faults(plan)
            .tenants(vec![TenantSpec::new(eigensolve(8 * MIB)).seed(3)])
            .run();
        assert_eq!(format!("{single:?}"), format!("{:?}", tenancy.fleet));
    }

    #[test]
    fn arrival_process_is_seeded_and_bursty() {
        let a = ArrivalProcess::bursty(1_000_000, 0.5, 9);
        let xs = a.arrivals(64);
        assert_eq!(xs[0], 0);
        assert!(xs.windows(2).all(|w| w[0] <= w[1]), "non-decreasing");
        assert_eq!(xs, a.arrivals(64), "deterministic per seed");
        assert_ne!(xs, ArrivalProcess::bursty(1_000_000, 0.5, 10).arrivals(64));
        // Bursts: some consecutive arrivals coincide; others don't.
        let zero_gaps = xs.windows(2).filter(|w| w[0] == w[1]).count();
        assert!(zero_gaps > 8, "only {zero_gaps} bursts");
        assert!(zero_gaps < 56, "{zero_gaps} bursts of 63 gaps");
        // Degenerate process: everyone at zero.
        assert!(ArrivalProcess::at_time_zero()
            .arrivals(5)
            .iter()
            .all(|&t| t == 0));
    }

    #[test]
    fn mixed_profiles_report_attribution_that_sums() {
        let report = ExperimentSpec::new(&SystemConfig::cnl_ufs(), NvmKind::Tlc)
            .tenants(vec![
                TenantSpec::new(eigensolve(8 * MIB)),
                TenantSpec::new(TenantProfile::Checkpoint {
                    read_bytes: 4 * MIB,
                    ckpt_interval_bytes: 2 * MIB,
                    ckpt_bytes: MIB,
                    record_size: MIB,
                })
                .seed(1),
                TenantSpec::new(TenantProfile::KvLookup {
                    total_bytes: 2 * MIB,
                    value_size: 8192,
                })
                .seed(2)
                .weight(4),
            ])
            .arrivals(ArrivalProcess::bursty(500_000, 0.25, 7))
            .run();
        assert_eq!(report.tenants.len(), 3);
        let total: Nanos = report.tenants.iter().map(|t| t.attribution.total_ns).sum();
        assert_eq!(total, report.fleet.run.attribution.total_ns);
        let reqs: u64 = report.tenants.iter().map(|t| t.requests).sum();
        assert_eq!(reqs, report.fleet.run.requests);
        assert_eq!(report.tenants[2].profile, "kv-lookup");
        for t in &report.tenants {
            assert!(t.media_ops > 0, "tenant {} has no die time", t.tenant);
            assert!(t.latency.p50 <= t.latency.p99 && t.latency.p99 <= t.latency.p999);
        }
    }

    #[test]
    fn journaled_ufs_carries_over_to_every_tenant() {
        let model = ExperimentSpec::new(&SystemConfig::cnl_ufs(), NvmKind::Tlc)
            .tenants(vec![TenantSpec::new(eigensolve(4 * MIB))])
            .run();
        let real = ExperimentSpec::new(&SystemConfig::cnl_ufs(), NvmKind::Tlc)
            .journaled_ufs(true)
            .tenants(vec![TenantSpec::new(eigensolve(4 * MIB))])
            .run();
        assert!(
            real.fleet.run.total_bytes > model.fleet.run.total_bytes,
            "journaled {} vs model {}",
            real.fleet.run.total_bytes,
            model.fleet.run.total_bytes
        );
    }

    #[test]
    #[should_panic(expected = "at least one tenant")]
    fn empty_tenancy_is_rejected() {
        let _ = ExperimentSpec::new(&SystemConfig::cnl_ufs(), NvmKind::Tlc)
            .tenants(vec![])
            .run();
    }
}
