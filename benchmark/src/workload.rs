//! The four workloads: input generation, the timed pass through the
//! production batch entry points, and the decomposed pass that calls each
//! layer's public entry point on its own so it can be timed from outside.
//!
//! Every pass reduces its simulated results to a [`PassOutput`] digest.
//! The decomposed pass must reproduce the timed pass's digest bit for bit
//! (same calls, same order), with tracing off and with a ring tracer on:
//! that is the observer-effect check.

use nvmtypes::{NvmKind, SimError, MIB};
use ooc::lobpcg::{Lobpcg, LobpcgOptions, LobpcgResult, Operator};
use ooc::{DMatrix, HamiltonianSpec, UfsMatrix, UfsOperator};
use oocfs::FileSystemModel;
use oocnvm_core::config::SystemConfig;
use oocnvm_core::experiment::{run_batch, ExperimentSpec};
use oocnvm_core::tenancy::{run_tenancy_batch, ArrivalProcess, TenantProfile, TenantSpec};
use oocnvm_core::workload::{checkpoint_trace, synthetic_ooc_trace};
use ooctrace::{BlockTrace, PosixTrace, TraceCapture};
use simobs::{HdrHistogram, LatencyAttribution, Tracer};
use simprof::SimSpanProfile;
use ssd::{QosPolicy, RunReport, TenantWorkload};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Events one traced device run may hold. A run that emits more loses
/// its oldest spans, which would make the `sim.*` attribution inexact, so
/// any drop fails the pass.
const RING_EVENTS: usize = 1 << 20;

/// Checkpoint traces per `journaled_ckpt` pass. How much copy-on-write
/// work one trace makes depends on where its jittered records fall, by
/// up to ±6% between seeds; a pass over several traces averages that out.
const CKPT_TRACES: u64 = 4;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Table-2 × media study on a 1 MiB-record read sweep.
    PaperSweep,
    /// Checkpoint writes beside reads through the real journaled UFS.
    JournaledCkpt,
    /// Many small-request tenants sharing one device under fair queueing.
    TenantMix,
    /// The out-of-core LOBPCG application over UFS-stored panels.
    OocSolve,
}

/// How big the inputs are: the benchmark runs [`Scale::Full`]; tests run
/// the same code paths at [`Scale::Tiny`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The committed workload sizes (pins are taken at this scale).
    Full,
    /// Reduced sizes for debug-mode tests.
    Tiny,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperSweep,
        Workload::JournaledCkpt,
        Workload::TenantMix,
        Workload::OocSolve,
    ];

    /// The workload's name on the command line and in every report.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper_sweep",
            Workload::JournaledCkpt => "journaled_ckpt",
            Workload::TenantMix => "tenant_mix",
            Workload::OocSolve => "ooc_solve",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Generates the workload's inputs from `seed`. Calls into the trace
    /// generators and the out-of-core store build are timed into `layers`.
    pub fn setup(self, scale: Scale, seed: u64, layers: &mut Layers) -> Result<Inputs, SimError> {
        let tiny = scale == Scale::Tiny;
        Ok(match self {
            Workload::PaperSweep => {
                let (mib, configs, kinds) = if tiny {
                    (
                        8,
                        vec![SystemConfig::ion_gpfs(), SystemConfig::cnl_ufs()],
                        vec![NvmKind::Tlc, NvmKind::Pcm],
                    )
                } else {
                    (128, SystemConfig::table2(), NvmKind::ALL.to_vec())
                };
                let trace = timed(&mut layers.gen, || {
                    synthetic_ooc_trace(mib * MIB, MIB, seed)
                });
                Inputs::Sweep {
                    traces: vec![trace],
                    runs: configs
                        .iter()
                        .flat_map(|c| kinds.iter().map(move |&k| (*c, k)))
                        .collect(),
                    journaled: false,
                }
            }
            Workload::JournaledCkpt => {
                let (read, every, ckpt) = if tiny {
                    (4 * MIB, MIB, MIB / 2)
                } else {
                    (32 * MIB, 4 * MIB, 2 * MIB)
                };
                let record = if tiny { MIB / 4 } else { MIB };
                let traces = (0..CKPT_TRACES)
                    .map(|j| {
                        let seed = seed.wrapping_mul(CKPT_TRACES).wrapping_add(j);
                        timed(&mut layers.gen, || {
                            checkpoint_trace(read, every, ckpt, record, seed)
                        })
                    })
                    .collect();
                let cnl = SystemConfig::cnl_ufs();
                Inputs::Sweep {
                    traces,
                    runs: vec![(cnl, NvmKind::Tlc), (cnl, NvmKind::Pcm)],
                    journaled: true,
                }
            }
            Workload::TenantMix => {
                let (densities, unit): (&[usize], u64) = if tiny {
                    (&[3], MIB / 4)
                } else {
                    (&[3, 6, 12, 24], MIB)
                };
                let mut runs = Vec::new();
                for config in [SystemConfig::ion_gpfs(), SystemConfig::cnl_ufs()] {
                    for &n in densities {
                        runs.push(TenancyInput {
                            config,
                            tenants: (0..n).map(|i| tenant(i, seed, unit)).collect(),
                            arrivals: ArrivalProcess::bursty(200_000, 0.25, seed),
                        });
                    }
                }
                Inputs::Tenants(runs)
            }
            Workload::OocSolve => {
                let (spec, rows, opts) = if tiny {
                    (HamiltonianSpec::tiny(300), 32, solver(3, 6, seed))
                } else {
                    (HamiltonianSpec::medium(10_000), 256, solver(8, 12, seed))
                };
                let spec = HamiltonianSpec { seed, ..spec };
                let (matrix, diag) = timed(&mut layers.ooc_setup, || {
                    let h = spec.generate();
                    let diag: Vec<f64> = (0..h.n).map(|i| h.get(i, i)).collect();
                    UfsMatrix::build(&h, rows, 0, None).map(|m| (Box::new(m), diag))
                })?;
                Inputs::Solve { matrix, diag, opts }
            }
        })
    }
}

/// Tenant `i` of the mix: the three profiles in turn, the key-value
/// lookups at weight 4. `unit` scales every size (1 MiB at full scale).
fn tenant(i: usize, seed: u64, unit: u64) -> TenantSpec {
    let (profile, weight) = match i % 3 {
        0 => (
            TenantProfile::Eigensolve {
                total_bytes: 16 * unit,
                record_size: unit,
            },
            1,
        ),
        1 => (
            TenantProfile::Checkpoint {
                read_bytes: 8 * unit,
                ckpt_interval_bytes: 4 * unit,
                ckpt_bytes: 2 * unit,
                record_size: unit,
            },
            1,
        ),
        _ => (
            TenantProfile::KvLookup {
                total_bytes: 8 * unit,
                value_size: 4096,
            },
            4,
        ),
    };
    TenantSpec::new(profile)
        .seed(seed.wrapping_add(u64::try_from(i).unwrap_or(0)))
        .weight(weight)
}

/// LOBPCG options. The tolerance is out of reach in `iters` iterations,
/// so every seed does the same number of operator applications.
fn solver(block_size: usize, iters: usize, seed: u64) -> LobpcgOptions {
    LobpcgOptions {
        block_size,
        max_iters: iters,
        tol: 1e-9,
        seed,
        precondition: true,
    }
}

/// One multi-tenant experiment of [`Workload::TenantMix`].
#[derive(Debug, Clone)]
pub struct TenancyInput {
    config: SystemConfig,
    tenants: Vec<TenantSpec>,
    arrivals: ArrivalProcess,
}

/// Generated inputs: everything a pass reads and nothing it writes.
#[derive(Debug)]
pub enum Inputs {
    /// POSIX traces, each replayed on each `(config, medium)` pair,
    /// through the configuration's file-system model or the journaled UFS.
    Sweep {
        /// The application traces, one `run_batch` each.
        traces: Vec<PosixTrace>,
        /// The experiments of one pass.
        runs: Vec<(SystemConfig, NvmKind)>,
        /// Replay through [`ufs::JournaledUfs`] instead of the model.
        journaled: bool,
    },
    /// Multi-tenant experiments on TLC.
    Tenants(Vec<TenancyInput>),
    /// The out-of-core store and solver settings.
    Solve {
        /// The Hamiltonian's panels in a mounted journaled UFS.
        matrix: Box<UfsMatrix>,
        /// Its diagonal, for the Jacobi preconditioner.
        diag: Vec<f64>,
        /// Solver settings.
        opts: LobpcgOptions,
    },
}

/// What a pass produced, reduced to what the benchmark checks and counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassOutput {
    /// Digest of every simulated result of the pass.
    pub digest: u64,
    /// Simulated device bytes moved (`RunReport::total_bytes`, summed).
    pub device_bytes: u64,
}

/// Host nanoseconds spent inside each layer's public entry points.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Layers {
    /// Trace generators (`core::workload`, `TenantProfile::posix_trace`).
    pub gen: u64,
    /// File-system model transforms (`FsKind::transform`).
    pub fs: u64,
    /// Journaled UFS replays (`JournaledUfs::transform_with_stats`).
    pub ufs: u64,
    /// Single-job device runs (`SsdDevice::run`).
    pub ssd: u64,
    /// Shared multi-tenant device runs (`SsdDevice::run_shared`).
    pub qos: u64,
    /// Hamiltonian generation and `UfsMatrix::build`.
    pub ooc_setup: u64,
    /// Panel reads through the UFS read path (`UfsMatrix::read_panel`).
    pub panel_read: u64,
    /// Sparse products (`CsrPanel::spmm_into`).
    pub spmm: u64,
    /// The rest of `Lobpcg::solve`: the dense LOBPCG algebra.
    pub dense: u64,
}

impl Layers {
    /// Sum over every layer.
    pub fn total(&self) -> u64 {
        self.gen
            + self.fs
            + self.ufs
            + self.ssd
            + self.qos
            + self.ooc_setup
            + self.panel_read
            + self.spmm
            + self.dense
    }
}

/// The decomposed pass: its output, its layer times and what a ring
/// tracer counted.
#[derive(Debug, Clone, Default)]
pub struct Traced {
    /// Digest and bytes, comparable with the timed pass's.
    pub output: PassOutput,
    /// Host time per layer inside the pass.
    pub layers: Layers,
    /// Host time of the whole pass, ns.
    pub pass_ns: u64,
    /// Host time inside the calls that take a tracer, ns.
    pub traced_calls_ns: u64,
    /// Block-trace bytes the journaled UFS emitted.
    pub ufs_block_bytes: u64,
    /// Panel bytes the solver read.
    pub panel_bytes: u64,
    /// Every simobs counter (ring tracer only).
    pub counters: BTreeMap<&'static str, u64>,
    /// Simulated self time per layer, ns (ring tracer only).
    pub sim_self_ns: BTreeMap<&'static str, u64>,
    /// Events the rings dropped (must stay 0).
    pub dropped: u64,
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runs `f`, adding its host time to `acc`.
fn timed<T>(acc: &mut u64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    *acc += elapsed_ns(start);
    out
}

/// The timed pass: the production batch entry points, exactly as the
/// study binaries call them. They return no errors: a journaled replay
/// that fails yields an empty block trace instead, so a device run that
/// served no request fails the pass.
pub fn pass(inputs: &Inputs) -> Result<PassOutput, SimError> {
    let mut d = Digest::new();
    let (mut device_bytes, mut idle_runs) = (0, 0);
    match inputs {
        Inputs::Sweep {
            traces,
            runs,
            journaled,
        } => {
            for trace in traces {
                let specs = runs
                    .iter()
                    .map(|(c, k)| ExperimentSpec::new(c, *k).journaled_ufs(*journaled))
                    .collect();
                for r in run_batch(specs, trace) {
                    d.run(r.label, r.kind, &r.run);
                    device_bytes += r.run.total_bytes;
                    idle_runs += u64::from(r.run.requests == 0);
                }
            }
        }
        Inputs::Tenants(runs) => {
            let specs = runs
                .iter()
                .map(|t| {
                    ExperimentSpec::new(&t.config, NvmKind::Tlc)
                        .tenants(t.tenants.clone())
                        .arrivals(t.arrivals)
                })
                .collect();
            for r in run_tenancy_batch(specs) {
                d.run(r.fleet.label, r.fleet.kind, &r.fleet.run);
                device_bytes += r.fleet.run.total_bytes;
                idle_runs += u64::from(r.fleet.run.requests == 0);
                for t in &r.tenants {
                    d.tenant(
                        [
                            t.requests,
                            t.bytes,
                            t.admitted_ns,
                            t.finish_ns,
                            t.media_busy_ns,
                            t.media_ops,
                            t.media_bytes,
                        ],
                        &t.latency_hdr,
                        &t.attribution,
                    );
                }
            }
        }
        Inputs::Solve { matrix, diag, opts } => {
            let cap = TraceCapture::new();
            let op = UfsOperator::new(matrix, &cap).with_diagonal(diag.clone());
            let res = Lobpcg::new(*opts).solve(&op);
            let trace = cap.into_trace();
            d.solve(&res, &trace);
            let cnl = SystemConfig::cnl_ufs();
            let r = ExperimentSpec::new(&cnl, NvmKind::Tlc).run(&trace);
            d.run(r.label, r.kind, &r.run);
            device_bytes += r.run.total_bytes;
            idle_runs += u64::from(r.run.requests == 0);
        }
    }
    if idle_runs > 0 {
        return Err(SimError::invalid_config(
            "pass",
            format!("{idle_runs} device runs served no request"),
        ));
    }
    Ok(PassOutput {
        digest: d.0,
        device_bytes,
    })
}

/// A [`UfsOperator`] twin that times `read_panel` and `spmm_into`
/// separately, in `UfsMatrix::spmm_traced`'s order, so the solve is
/// bit-identical while its panel reads and sparse products are split out.
struct TimedOperator<'a> {
    matrix: &'a UfsMatrix,
    sink: &'a TraceCapture,
    diag: &'a [f64],
    read_ns: Cell<u64>,
    spmm_ns: Cell<u64>,
    error: Cell<Option<SimError>>,
}

impl Operator for TimedOperator<'_> {
    fn dim(&self) -> usize {
        self.matrix.n
    }

    fn apply(&self, x: &DMatrix) -> DMatrix {
        let mut y = DMatrix::zeros(self.matrix.n, x.ncols);
        let (mut read, mut spmm) = (self.read_ns.get(), self.spmm_ns.get());
        for idx in 0..self.matrix.panels.len() {
            match timed(&mut read, || self.matrix.read_panel(idx, self.sink)) {
                Ok(panel) => timed(&mut spmm, || panel.spmm_into(x, &mut y)),
                Err(e) => {
                    // Mirror `UfsOperator`: a failed read yields zeros.
                    self.error.set(Some(e));
                    y = DMatrix::zeros(self.matrix.n, x.ncols);
                    break;
                }
            }
        }
        self.read_ns.set(read);
        self.spmm_ns.set(spmm);
        y
    }

    fn diagonal(&self) -> Option<Vec<f64>> {
        Some(self.diag.to_vec())
    }
}

/// Collects what one pass's tracers saw.
struct Probe {
    ring: bool,
    traced: Traced,
}

impl Probe {
    fn tracer(&self) -> Tracer {
        if self.ring {
            Tracer::ring(RING_EVENTS)
        } else {
            Tracer::off()
        }
    }

    /// Folds a finished device-run tracer into the counters and the
    /// simulated-time attribution. Each run starts its simulated clock at
    /// zero, so runs are attributed one at a time and then summed.
    fn absorb(&mut self, obs: Tracer) {
        if !self.ring {
            return;
        }
        let log = obs.finish();
        for (name, v) in log.metrics.counters() {
            *self.traced.counters.entry(name).or_insert(0) += v;
        }
        for l in SimSpanProfile::build(&log).layers {
            *self.traced.sim_self_ns.entry(l.layer.label()).or_insert(0) += l.self_ns;
        }
        self.traced.dropped += log.dropped;
    }
}

/// Fails on an empty block trace: `transform_observed` turns a replay
/// error into one, and an empty trace would otherwise digest the same
/// on every pass.
fn nonempty(block: BlockTrace, who: &str) -> Result<BlockTrace, SimError> {
    if block.is_empty() {
        return Err(SimError::invalid_config(who, "emitted no requests"));
    }
    Ok(block)
}

/// The decomposed pass: every layer's public entry point called on its
/// own and timed from outside, through the `_observed` entry points with
/// [`Tracer::off`] (`ring == false`) or one [`Tracer::ring`] per device
/// run (`ring == true`). Single-threaded by construction: the pass never
/// enters the thread pool except for the solver's own dense kernels.
pub fn decomposed_pass(inputs: &Inputs, ring: bool) -> Result<Traced, SimError> {
    let mut p = Probe {
        ring,
        traced: Traced::default(),
    };
    let mut d = Digest::new();
    let mut device_bytes = 0;
    let start = Instant::now();
    match inputs {
        Inputs::Sweep {
            traces,
            runs,
            journaled,
        } => {
            for trace in traces {
                for &(config, kind) in runs {
                    let mut obs = p.tracer();
                    let l = &mut p.traced.layers;
                    let block = if *journaled {
                        let ufs = ufs::JournaledUfs::default();
                        let block = timed(&mut l.ufs, || ufs.transform_observed(trace, &mut obs));
                        p.traced.ufs_block_bytes += block.total_bytes();
                        nonempty(block, "ufs.replay")?
                    } else {
                        timed(&mut l.fs, || config.fs.transform_observed(trace, &mut obs))
                    };
                    let device = config.device(kind);
                    let run = timed(&mut l.ssd, || device.run_observed(&block, &mut obs));
                    p.absorb(obs);
                    d.run(config.label, kind, &run);
                    device_bytes += run.total_bytes;
                }
            }
        }
        Inputs::Tenants(runs) => {
            for t in runs {
                let mut obs = p.tracer();
                let l = &mut p.traced.layers;
                let arrivals = t.arrivals.arrivals(t.tenants.len());
                let mut workloads = Vec::with_capacity(t.tenants.len());
                for (spec, &arrival_ns) in t.tenants.iter().zip(&arrivals) {
                    let posix = timed(&mut l.gen, || spec.profile.posix_trace(spec.seed));
                    let block = timed(&mut l.fs, || {
                        t.config.fs.transform_observed(&posix, &mut obs)
                    });
                    let mut w = TenantWorkload::new(block);
                    w.weight = spec.weight;
                    w.arrival_ns = arrival_ns;
                    w.fault_plan = spec.fault_plan;
                    workloads.push(w);
                }
                let device = t.config.device(NvmKind::Tlc);
                let shared = timed(&mut l.qos, || {
                    device.run_shared(&workloads, &QosPolicy::unlimited(), &mut obs)
                });
                p.absorb(obs);
                d.run(t.config.label, NvmKind::Tlc, &shared.fleet);
                device_bytes += shared.fleet.total_bytes;
                for s in &shared.tenants {
                    d.tenant(
                        [
                            s.requests,
                            s.bytes,
                            s.admitted_ns,
                            s.finish_ns,
                            s.media.busy_ns,
                            s.media.ops,
                            s.media.bytes,
                        ],
                        &s.latency_hdr,
                        &s.attribution,
                    );
                }
            }
        }
        Inputs::Solve { matrix, diag, opts } => {
            let cap = TraceCapture::new();
            let op = TimedOperator {
                matrix,
                sink: &cap,
                diag,
                read_ns: Cell::new(0),
                spmm_ns: Cell::new(0),
                error: Cell::new(None),
            };
            let mut solver_obs = p.tracer();
            let mut solve_ns = 0;
            let res = timed(&mut solve_ns, || {
                Lobpcg::new(*opts).solve_observed(&op, &mut solver_obs)
            });
            if let Some(e) = op.error.take() {
                return Err(e);
            }
            // The solver's spans tick on its own logical clock: keep its
            // counters, not its simulated-time attribution.
            if ring {
                for (name, v) in solver_obs.finish().metrics.counters() {
                    *p.traced.counters.entry(name).or_insert(0) += v;
                }
            }
            let mut obs = p.tracer();
            let l = &mut p.traced.layers;
            l.panel_read += op.read_ns.get();
            l.spmm += op.spmm_ns.get();
            l.dense += solve_ns.saturating_sub(op.read_ns.get() + op.spmm_ns.get());
            let trace = cap.into_trace();
            p.traced.panel_bytes += trace.total_bytes();
            d.solve(&res, &trace);

            let cnl = SystemConfig::cnl_ufs();
            let block = timed(&mut l.fs, || cnl.fs.transform_observed(&trace, &mut obs));
            let device = cnl.device(NvmKind::Tlc);
            let run = timed(&mut l.ssd, || device.run_observed(&block, &mut obs));
            p.absorb(obs);
            d.run(cnl.label, NvmKind::Tlc, &run);
            device_bytes += run.total_bytes;
        }
    }
    let mut traced = p.traced;
    traced.pass_ns = elapsed_ns(start);
    traced.traced_calls_ns = traced.layers.total() - traced.layers.gen - traced.layers.ooc_setup;
    traced.output = PassOutput {
        digest: d.0,
        device_bytes,
    };
    Ok(traced)
}

/// FNV-1a over the simulated results a pass returns. Every field is an
/// integer or an `f64`'s exact bits, so two passes digest equal only if
/// their results are bit-identical.
#[derive(Debug, Clone, Copy)]
pub struct Digest(pub u64);

impl Digest {
    /// The empty digest.
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes in one word.
    pub fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn words(&mut self, vs: impl IntoIterator<Item = u64>) {
        for v in vs {
            self.word(v);
        }
    }

    fn text(&mut self, s: &str) {
        self.words(s.bytes().map(u64::from));
        self.word(0);
    }

    fn hdr(&mut self, h: &HdrHistogram) {
        let p = h.percentiles();
        self.words([h.total(), h.sum(), p.p50, p.p90, p.p99, p.p999, p.max]);
    }

    fn attribution(&mut self, a: &LatencyAttribution) {
        self.words([
            a.queue_ns,
            a.die_ns,
            a.channel_ns,
            a.link_ns,
            a.fs_meta_ns,
            a.recovery_ns,
            a.total_ns,
            a.requests,
        ]);
    }

    /// One device run, labelled with its configuration and medium.
    fn run(&mut self, label: &str, kind: NvmKind, r: &RunReport) {
        self.text(label);
        self.text(kind.label());
        let m = &r.media;
        let b = &m.breakdown;
        self.words([
            r.makespan,
            r.requests,
            r.total_bytes,
            r.data_bytes,
            r.bandwidth_mb_s.to_bits(),
            r.data_bandwidth_mb_s.to_bits(),
            r.host_busy,
            r.dma_media_idle,
            m.active_span,
            m.bytes,
            m.channel_util.to_bits(),
            m.package_util.to_bits(),
            m.die_util.to_bits(),
            m.cell_util.to_bits(),
            m.remaining_mb_s.to_bits(),
            b.non_overlapped_dma,
            b.flash_bus_activation,
            b.channel_activation,
            b.cell_contention,
            b.channel_contention,
            b.cell_activation,
            r.wear.erases,
            r.wear.host_units_written,
            r.wear.gc_units_written,
            r.wear.gc_runs,
            r.energy.total_mj().to_bits(),
            r.latency.p50,
            r.latency.p95,
            r.latency.p99,
            r.latency.max,
        ]);
        self.words(r.pal.counts);
        self.hdr(&r.latency_hdr);
        self.attribution(&r.attribution);
    }

    /// One tenant of a shared run: requests, bytes, admitted, finish,
    /// media busy, media ops, media bytes; then its latency.
    fn tenant(&mut self, fields: [u64; 7], hdr: &HdrHistogram, a: &LatencyAttribution) {
        self.words(fields);
        self.hdr(hdr);
        self.attribution(a);
    }

    /// A solve and the POSIX trace it captured.
    fn solve(&mut self, res: &LobpcgResult, trace: &PosixTrace) {
        self.words(res.eigenvalues.iter().map(|v| v.to_bits()));
        self.words(res.residuals.iter().map(|v| v.to_bits()));
        self.words([
            u64::try_from(res.iterations).unwrap_or(u64::MAX),
            u64::try_from(res.operator_applies).unwrap_or(u64::MAX),
            u64::from(res.converged),
            u64::try_from(trace.len()).unwrap_or(u64::MAX),
            trace.total_bytes(),
        ]);
    }
}
