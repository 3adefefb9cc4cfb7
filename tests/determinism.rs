//! Determinism regression: two identical simulator runs must produce
//! byte-identical reports.
//!
//! The paper's figures are ratios between simulated configurations
//! (e.g. the ~10.3x CNL speedup); if iteration order or wall-clock state
//! leaked into the pipeline, those ratios would wobble run-to-run and
//! the reproduction would be unfalsifiable. Clippy bans the usual
//! sources (`HashMap`/`HashSet` state, `Instant::now`, OS entropy) at
//! the source level (`crates/clippy.toml`); this test pins the
//! end-to-end behaviour.

use flashsim::MediaConfig;
use interconnect::{ddr800, pcie, LinkChain, PcieGen};
use nvmtypes::{FaultPlan, HostRequest, NvmKind, KIB, MIB};
use oocnvm_core::workload::synthetic_ooc_trace;
use ooctrace::BlockTrace;
use proptest::prelude::*;
use rayon::prelude::*;
use simobs::{chrome_trace, Tracer};
use ssd::{RunReport, SsdConfig, SsdDevice};
use std::sync::Mutex;

/// A mixed read/write trace with strided offsets: enough irregularity to
/// exercise the FTL mapping tree and per-die queues in non-trivial order.
fn mixed_trace() -> BlockTrace {
    let mut reqs = Vec::new();
    let mut off = 0u64;
    for i in 0..256u64 {
        let len = 16 * KIB + (i % 7) * 4 * KIB;
        if i % 3 == 0 {
            reqs.push(HostRequest::write(off % (64 * MIB), len));
        } else {
            reqs.push(HostRequest::read((off * 3) % (64 * MIB), len));
        }
        off += len + (i % 5) * KIB;
    }
    BlockTrace::from_requests(reqs, 16)
}

/// One full flashsim+ssd run on a fresh device.
fn run_once(kind: NvmKind) -> RunReport {
    run_once_with_plan(kind, FaultPlan::none())
}

/// Same run with a fault plan installed.
fn run_once_with_plan(kind: NvmKind, plan: FaultPlan) -> RunReport {
    let media = MediaConfig::paper(kind, ddr800());
    let cfg = SsdConfig::new(media, LinkChain::single(pcie(PcieGen::Gen3, 8)))
        .with_ufs()
        .with_fault_plan(plan);
    SsdDevice::new(cfg).run(&mixed_trace())
}

/// Every observable byte of a report, not just headline numbers: the
/// `Debug` rendering covers all fields (latency percentiles, per-level
/// parallelism counters, energy), `summary()` covers the human format.
fn rendered(rep: &RunReport) -> String {
    format!("{rep:?}\n{}", rep.summary())
}

#[test]
fn identical_runs_render_byte_identical_reports() {
    for kind in NvmKind::ALL {
        let a = rendered(&run_once(kind));
        let b = rendered(&run_once(kind));
        assert_eq!(
            a,
            b,
            "{}: reports diverged between identical runs",
            kind.label()
        );
    }
}

#[test]
fn fault_injected_runs_are_byte_identical_for_a_seed() {
    // Same seed + same plan -> byte-identical report; a different seed
    // must actually exercise the fault machinery (heavy rates on a
    // 256-request trace cannot be a silent no-op).
    for plan in [FaultPlan::light(11), FaultPlan::heavy(11)] {
        let a = rendered(&run_once_with_plan(NvmKind::Tlc, plan));
        let b = rendered(&run_once_with_plan(NvmKind::Tlc, plan));
        assert_eq!(a, b, "fault-injected reports diverged between runs");
    }
    let heavy = run_once_with_plan(NvmKind::Tlc, FaultPlan::heavy(11));
    assert!(
        heavy.reliability.ecc_retries > 0,
        "heavy plan produced no ECC retries: the fault path is dead"
    );
}

#[test]
fn zero_rate_plan_reproduces_the_plain_report_exactly() {
    // FaultPlan::none() must not perturb a single byte: no RNG draws,
    // no extra ops, no reordered state.
    for kind in NvmKind::ALL {
        let plain = rendered(&run_once(kind));
        let zeroed = rendered(&run_once_with_plan(kind, FaultPlan::none()));
        assert_eq!(
            plain,
            zeroed,
            "{}: zero-rate plan diverged from the fault-free run",
            kind.label()
        );
    }
}

#[test]
fn tracing_sinks_do_not_perturb_the_report() {
    // The observability contract (docs/OBSERVABILITY.md): attaching a
    // tracer — any sink — must not change a single byte of the result.
    // Pin the no-op sink against the ring sink against the plain `run`.
    let plain = rendered(&run_once_with_plan(NvmKind::Tlc, FaultPlan::heavy(11)));
    let mut off = Tracer::off();
    let with_off = {
        let media = MediaConfig::paper(NvmKind::Tlc, ddr800());
        let cfg = SsdConfig::new(media, LinkChain::single(pcie(PcieGen::Gen3, 8)))
            .with_ufs()
            .with_fault_plan(FaultPlan::heavy(11));
        rendered(&SsdDevice::new(cfg).run_observed(&mixed_trace(), &mut off))
    };
    let mut ring = Tracer::ring(8192);
    let with_ring = {
        let media = MediaConfig::paper(NvmKind::Tlc, ddr800());
        let cfg = SsdConfig::new(media, LinkChain::single(pcie(PcieGen::Gen3, 8)))
            .with_ufs()
            .with_fault_plan(FaultPlan::heavy(11));
        rendered(&SsdDevice::new(cfg).run_observed(&mixed_trace(), &mut ring))
    };
    assert_eq!(plain, with_off, "no-op sink perturbed the report");
    assert_eq!(plain, with_ring, "ring sink perturbed the report");
}

#[test]
fn trace_exports_are_byte_identical_across_invocations() {
    // Same seed, same workload, two separate invocations: the rendered
    // Chrome-trace JSON must match byte for byte, or the timeline cannot
    // be diffed between runs.
    let export = || {
        let media = MediaConfig::paper(NvmKind::Tlc, ddr800());
        let cfg = SsdConfig::new(media, LinkChain::single(pcie(PcieGen::Gen3, 8)))
            .with_ufs()
            .with_fault_plan(FaultPlan::heavy(11));
        let mut obs = Tracer::ring(8192);
        let rep = SsdDevice::new(cfg).run_observed(&mixed_trace(), &mut obs);
        (rendered(&rep), chrome_trace(&obs.finish()))
    };
    let (rep_a, json_a) = export();
    let (rep_b, json_b) = export();
    assert_eq!(rep_a, rep_b, "reports diverged between invocations");
    assert_eq!(json_a, json_b, "trace JSON diverged between invocations");
}

#[test]
fn reports_are_stable_across_interleaved_device_lifetimes() {
    // Run A, then build and run another device, then run A's config
    // again: no global state may leak between device instances.
    let first = rendered(&run_once(NvmKind::Mlc));
    let _decoy = run_once(NvmKind::Pcm);
    let second = rendered(&run_once(NvmKind::Mlc));
    assert_eq!(first, second, "device lifetimes are not isolated");
}

// --- determinism under parallelism (docs/PARALLELISM.md) -------------------
//
// The batch entry points fan experiments out over the vendored work-
// sharing pool; the contract is that the thread count is invisible in
// every output. These tests pin the three report generators
// byte-identical at 1, 2 and 8 workers, and pin the pool primitives the
// contract rests on: ordered `collect` and panic propagation.

/// Makes `RAYON_NUM_THREADS` mutation exclusive: tests in one binary run on
/// concurrent threads, and the environment is process-global.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with the pool pinned to `n` workers, then restores the
/// default (host parallelism).
fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    std::env::set_var("RAYON_NUM_THREADS", n.to_string());
    let out = f();
    std::env::remove_var("RAYON_NUM_THREADS");
    out
}

#[test]
fn reports_are_byte_identical_at_every_thread_count() {
    let _guard = ENV_LOCK.lock().unwrap();
    let seed = 7;
    let trace = synthetic_ooc_trace(2 * MIB, MIB, seed);
    let runs: Vec<_> = [1usize, 2, 8]
        .into_iter()
        .map(|n| {
            with_threads(n, || {
                let head = oocnvm::bench::headline::report(&trace).unwrap();
                let rel = oocnvm::reliability::render_report(seed, 2, 60);
                let obs = oocnvm::obsreport::traced_pass(seed, 2, 60);
                (
                    head.text,
                    head.json,
                    rel.text,
                    rel.json,
                    obs.rendered,
                    obs.trace_json,
                )
            })
        })
        .collect();
    assert_eq!(runs[0], runs[1], "outputs diverged between 1 and 2 threads");
    assert_eq!(runs[0], runs[2], "outputs diverged between 1 and 8 threads");
}

#[test]
fn ufs_study_is_byte_identical_at_every_thread_count() {
    // The crash matrix fans every (crash point, torn/dropped) case out
    // on the pool; the recovery report and digest must not see the
    // worker count.
    let _guard = ENV_LOCK.lock().unwrap();
    let runs: Vec<_> = [1usize, 2, 8]
        .into_iter()
        .map(|n| {
            with_threads(n, || {
                let r = oocnvm::ufs_study::render_report(7, true);
                (r.text, r.json)
            })
        })
        .collect();
    assert_eq!(
        runs[0], runs[1],
        "ufs study diverged between 1 and 2 threads"
    );
    assert_eq!(
        runs[0], runs[2],
        "ufs study diverged between 1 and 8 threads"
    );
}

#[test]
fn tenants_study_is_byte_identical_at_every_thread_count() {
    // The multi-tenant QoS study fans the config × density sweep out on
    // the pool, and inside each cell the tenants share one simulated
    // device through the fair-queueing scheduler; neither level may see
    // the worker count, and a same-seed re-run must be byte-identical.
    let _guard = ENV_LOCK.lock().unwrap();
    let runs: Vec<_> = [1usize, 2, 8]
        .into_iter()
        .map(|n| {
            with_threads(n, || {
                let r = oocnvm::tenants_study::render_report(7, &[1, 3]);
                (r.text, r.json)
            })
        })
        .collect();
    assert_eq!(
        runs[0], runs[1],
        "tenants study diverged between 1 and 2 threads"
    );
    assert_eq!(
        runs[0], runs[2],
        "tenants study diverged between 1 and 8 threads"
    );
    let again = oocnvm::tenants_study::render_report(7, &[1, 3]);
    assert_eq!(
        runs[0],
        (again.text, again.json),
        "tenants study diverged between same-seed re-runs"
    );
}

#[test]
fn run_batch_equals_each_specs_own_run() {
    // `run_batch` transforms each distinct file-system stage once and
    // runs every spec's device on that stage's block trace. The batch
    // mixes journaled and model stages, one config on two media, two
    // fault plans and a duplicated spec; every report must equal the
    // spec run on its own, whole, at 1 and 2 workers.
    use oocfs::FsKind;
    use oocnvm_core::config::SystemConfig;
    use oocnvm_core::experiment::{run_batch, ExperimentSpec};
    let _guard = ENV_LOCK.lock().unwrap();
    let trace = synthetic_ooc_trace(2 * MIB, MIB, 5);
    let cnl = SystemConfig::cnl_ufs();
    let cells = [
        (cnl, NvmKind::Tlc, FaultPlan::none(), true),
        (cnl, NvmKind::Pcm, FaultPlan::none(), true),
        (cnl, NvmKind::Tlc, FaultPlan::light(3), false),
        (
            SystemConfig::ion_gpfs(),
            NvmKind::Slc,
            FaultPlan::heavy(5),
            false,
        ),
        (
            SystemConfig::cnl(FsKind::Ext4),
            NvmKind::Mlc,
            FaultPlan::light(3),
            false,
        ),
        (cnl, NvmKind::Tlc, FaultPlan::none(), false),
        (cnl, NvmKind::Tlc, FaultPlan::none(), true),
    ];
    let spec = |&(config, kind, plan, journaled): &(SystemConfig, NvmKind, FaultPlan, bool)| {
        ExperimentSpec::new(&config, kind)
            .faults(plan)
            .journaled_ufs(journaled)
    };
    let alone: Vec<_> = cells.iter().map(|c| spec(c).run(&trace)).collect();
    for n in [1usize, 2] {
        let batch = with_threads(n, || run_batch(cells.iter().map(spec).collect(), &trace));
        assert_eq!(batch.len(), alone.len());
        for (i, (b, a)) in batch.iter().zip(&alone).enumerate() {
            assert_eq!(b, a, "spec {i} diverged from its own run at {n} threads");
        }
    }
}

#[test]
fn run_tenancy_batch_equals_each_specs_own_run() {
    // `run_tenancy_batch` hands the pool the heaviest tenancy first and
    // puts the reports back in input order. Tenant counts here are out
    // of order and tied, over two configs, so that order differs from
    // the input's; every report must equal the spec run on its own,
    // whole, at 1 and 2 workers.
    use oocnvm_core::config::SystemConfig;
    use oocnvm_core::experiment::ExperimentSpec;
    use oocnvm_core::tenancy::{run_tenancy_batch, TenancySpec, TenantProfile, TenantSpec};
    let _guard = ENV_LOCK.lock().unwrap();
    let cells = [
        (SystemConfig::cnl_ufs(), 3u64),
        (SystemConfig::ion_gpfs(), 12),
        (SystemConfig::cnl_ufs(), 1),
        (SystemConfig::cnl_ufs(), 12),
        (SystemConfig::ion_gpfs(), 6),
    ];
    let spec = |&(config, n): &(SystemConfig, u64)| -> TenancySpec<'static> {
        let tenants = (0..n)
            .map(|t| {
                TenantSpec::new(TenantProfile::KvLookup {
                    total_bytes: 64 * KIB,
                    value_size: 4 * KIB,
                })
                .seed(n * 100 + t)
            })
            .collect();
        ExperimentSpec::new(&config, NvmKind::Tlc).tenants(tenants)
    };
    let alone: Vec<_> = cells.iter().map(|c| spec(c).run()).collect();
    for n in [1usize, 2] {
        let batch = with_threads(n, || run_tenancy_batch(cells.iter().map(spec).collect()));
        assert_eq!(batch.len(), alone.len());
        for (i, (b, a)) in batch.iter().zip(&alone).enumerate() {
            assert_eq!(b, a, "spec {i} diverged from its own run at {n} threads");
        }
    }
}

/// FNV-1a over the little-endian bytes of every value.
fn fnv1a(values: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// `Read` records of `sweeps` panel sweeps of `store`, in directory
/// order, stamped by a default `TraceCapture` clock (1 ns per call).
fn directory_order_reads(store: &ooc::UfsMatrix, sweeps: usize) -> Vec<ooctrace::TraceRecord> {
    (0..sweeps)
        .flat_map(|_| &store.panels)
        .zip(0u64..)
        .map(|(p, t)| ooctrace::TraceRecord {
            t,
            op: nvmtypes::IoOp::Read,
            file: store.file_id,
            offset: p.offset,
            len: p.len,
        })
        .collect()
}

#[test]
fn ooc_solve_is_bit_identical_at_every_thread_count() {
    // The panel sweep runs on every worker, but claims, records and
    // reads panels in directory order under one lock. The solve, its
    // POSIX trace (timestamps included) and the store's device image
    // after the solve must not see the worker count, and must equal the
    // in-core solve and a serial directory-order trace.
    use ooc::lobpcg::{Lobpcg, LobpcgOptions};
    use ooc::{HamiltonianSpec, UfsMatrix, UfsOperator};
    use ooctrace::TraceCapture;
    let _guard = ENV_LOCK.lock().unwrap();
    let h = HamiltonianSpec::medium(2_000).generate();
    let diag: Vec<f64> = (0..h.n).map(|i| h.get(i, i)).collect();
    let opts = LobpcgOptions {
        block_size: 8,
        max_iters: 12,
        ..LobpcgOptions::default()
    };
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let want = Lobpcg::new(opts).solve(&h);
    let runs: Vec<_> = [1usize, 2]
        .into_iter()
        .map(|n| {
            with_threads(n, || {
                let store = UfsMatrix::build(&h, 128, 0, None).unwrap();
                let cap = TraceCapture::new();
                let op = UfsOperator::new(&store, &cap).with_diagonal(diag.clone());
                let res = Lobpcg::new(opts).solve(&op);
                let trace = cap.into_trace();
                assert_eq!(
                    trace.records,
                    directory_order_reads(&store, res.operator_applies),
                    "the trace left directory order at {n} threads"
                );
                (
                    bits(&res.eigenvalues),
                    bits(&res.residuals),
                    fnv1a(&res.eigenvectors.data),
                    trace,
                    store.into_media(),
                )
            })
        })
        .collect();
    let (values, residuals, vectors, trace, media) = &runs[0];
    assert_eq!(values, &bits(&want.eigenvalues), "differs from in-core");
    assert_eq!(residuals, &bits(&want.residuals), "differs from in-core");
    assert_eq!(*vectors, fnv1a(&want.eigenvectors.data));
    assert_eq!(values, &runs[1].0, "eigenvalues diverged at 2 threads");
    assert_eq!(residuals, &runs[1].1, "residuals diverged at 2 threads");
    assert_eq!(*vectors, runs[1].2, "eigenvectors diverged at 2 threads");
    assert_eq!(trace, &runs[1].3, "POSIX trace diverged at 2 threads");
    assert!(*media == runs[1].4, "device image diverged at 2 threads");
}

/// `spmm_traced` over an `n`-row Hamiltonian in `rows`-row panels with
/// an `m`-column operand, at 1, 2 and 4 workers: the product must equal
/// the in-core `CsrMatrix::spmm` bit for bit, and the trace must be one
/// `Read` per panel in directory order.
fn sweep_matches_in_core(n: usize, rows: usize, m: usize, seed: u64) {
    use ooc::{DMatrix, HamiltonianSpec, UfsMatrix};
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    let h = HamiltonianSpec {
        seed,
        ..HamiltonianSpec::tiny(n)
    }
    .generate();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut x = DMatrix::zeros(n, m);
    for v in x.data.iter_mut() {
        *v = rng.gen_range(-1.0..1.0);
    }
    let want: Vec<u64> = h.spmm(&x).data.iter().map(|v| v.to_bits()).collect();
    let store = UfsMatrix::build(&h, rows, 3, None).unwrap();
    for threads in [1usize, 2, 4] {
        let cap = ooctrace::TraceCapture::new();
        let y = with_threads(threads, || store.spmm_traced(&x, &cap)).unwrap();
        let got: Vec<u64> = y.data.iter().map(|v| v.to_bits()).collect();
        assert!(
            got == want,
            "n {n} rows {rows} m {m}: product differs at {threads} threads"
        );
        assert_eq!(
            cap.into_trace().records,
            directory_order_reads(&store, 1),
            "n {n} rows {rows} m {m}: trace differs at {threads} threads"
        );
    }
}

#[test]
fn panel_sweep_edge_cases_match_the_in_core_product() {
    let _guard = ENV_LOCK.lock().unwrap();
    // One panel; exactly one panel per worker; fewer panels than workers;
    // a short last panel; one row per panel.
    for (n, rows, m) in [
        (40, 40, 3),
        (40, 500, 1),
        (40, 20, 8),
        (40, 15, 24),
        (9, 1, 5),
    ] {
        sweep_matches_in_core(n, rows, m, 11);
    }
}

#[test]
fn panel_sweep_stops_at_the_first_failed_read() {
    // A directory entry that points past the end of the file fails its
    // `Ufs::read`. The sweep must return that error and record nothing
    // after the failing panel, at any worker count.
    use ooc::{DMatrix, HamiltonianSpec, UfsMatrix};
    let _guard = ENV_LOCK.lock().unwrap();
    let h = HamiltonianSpec::tiny(120).generate();
    let mut store = UfsMatrix::build(&h, 10, 0, None).unwrap();
    store.panels[4].offset = store.bytes();
    let want = directory_order_reads(&store, 1)[..5].to_vec();
    let x = DMatrix::zeros(h.n, 4);
    for threads in [1usize, 2, 4] {
        let cap = ooctrace::TraceCapture::new();
        let err = with_threads(threads, || store.spmm_traced(&x, &cap)).unwrap_err();
        assert!(err.to_string().contains("size is"), "{err}");
        assert_eq!(
            cap.into_trace().records,
            want,
            "records after the failed read at {threads} threads"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any size, panel height and block width, the multi-worker
    /// panel sweep is the in-core product, bit for bit, and its trace is
    /// one read per panel in directory order.
    #[test]
    fn panel_sweep_equals_the_in_core_product(
        n in 2usize..300,
        rows in 1usize..320,
        m in 1usize..=24,
        seed in prop::num::u64::ANY,
    ) {
        let _guard = ENV_LOCK.lock().unwrap();
        sweep_matches_in_core(n, rows, m, seed);
    }
}

#[test]
fn ufs_path_with_empty_fault_plan_is_byte_identical_to_no_plan() {
    // `FaultPlan::none()` through the journaled-UFS experiment path must
    // be indistinguishable from running that path with no plan at all:
    // the crash hook may not perturb the simulation when idle.
    use oocnvm_core::config::SystemConfig;
    use oocnvm_core::experiment::ExperimentSpec;
    let trace = synthetic_ooc_trace(2 * MIB, MIB, 11);
    let cnl = SystemConfig::cnl_ufs();
    let bare = ExperimentSpec::new(&cnl, NvmKind::Tlc)
        .journaled_ufs(true)
        .run(&trace);
    let idle = ExperimentSpec::new(&cnl, NvmKind::Tlc)
        .journaled_ufs(true)
        .faults(FaultPlan::none())
        .run(&trace);
    assert_eq!(
        rendered(&bare.run),
        rendered(&idle.run),
        "idle fault plan perturbed the UFS path"
    );
    assert_eq!(
        bare.bandwidth_mb_s.to_bits(),
        idle.bandwidth_mb_s.to_bits(),
        "idle fault plan perturbed the UFS bandwidth"
    );
}

#[test]
fn pool_propagates_worker_panics() {
    // A panic inside a parallel region must unwind out of `collect` on
    // the calling thread, not vanish into a worker.
    let caught = std::panic::catch_unwind(|| -> Vec<u64> {
        (0u64..64)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|i| {
                assert_ne!(i, 37, "injected failure");
                i
            })
            .collect()
    });
    assert!(caught.is_err(), "a worker panic must reach the caller");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Parallel `collect` returns results in input order for any input,
    /// regardless of how the chunks were claimed by workers.
    #[test]
    fn pool_collect_preserves_input_order(xs in prop::collection::vec(prop::num::u64::ANY, 0..300)) {
        let f = |x: u64| x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(7);
        let seq: Vec<u64> = xs.iter().copied().map(f).collect();
        let par: Vec<u64> = xs.into_par_iter().map(f).collect();
        prop_assert_eq!(par, seq);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Per-tenant latency attribution is exact, not sampled: across any
    /// tenant mix, seed and QoS weight, the tenants' attributed
    /// nanoseconds, request counts, host bytes and media bytes sum to
    /// the fleet totals, and every tenant is charged die-ops.
    #[test]
    fn tenant_attribution_sums_to_the_fleet_total(
        seed in prop::num::u64::ANY,
        n in 1usize..5,
        kv_weight in 1u64..8,
    ) {
        use oocnvm_core::config::SystemConfig;
        use oocnvm_core::experiment::ExperimentSpec;
        use oocnvm_core::tenancy::{ArrivalProcess, TenantProfile, TenantSpec};
        let cnl = SystemConfig::cnl_ufs();
        let tenants = (0..n)
            .map(|i| {
                let profile = match i % 3 {
                    0 => TenantProfile::Eigensolve {
                        total_bytes: 2 * MIB,
                        record_size: MIB,
                    },
                    1 => TenantProfile::Checkpoint {
                        read_bytes: 2 * MIB,
                        ckpt_interval_bytes: MIB,
                        ckpt_bytes: MIB,
                        record_size: MIB,
                    },
                    _ => TenantProfile::KvLookup {
                        total_bytes: MIB,
                        value_size: 8192,
                    },
                };
                TenantSpec::new(profile)
                    .seed(seed.wrapping_add(nvmtypes::u64_from_usize(i)))
                    .weight(if i % 3 == 2 { kv_weight } else { 1 })
            })
            .collect();
        let report = ExperimentSpec::new(&cnl, NvmKind::Tlc)
            .tenants(tenants)
            .arrivals(ArrivalProcess::bursty(100_000, 0.25, seed))
            .run();
        prop_assert!(report.fleet.run.attribution.is_exact());
        let attributed: u64 = report.tenants.iter().map(|t| t.attribution.total_ns).sum();
        prop_assert_eq!(attributed, report.fleet.run.attribution.total_ns);
        let requests: u64 = report.tenants.iter().map(|t| t.requests).sum();
        prop_assert_eq!(requests, report.fleet.run.requests);
        let bytes: u64 = report.tenants.iter().map(|t| t.bytes).sum();
        prop_assert_eq!(bytes, report.fleet.run.total_bytes);
        let media_bytes: u64 = report.tenants.iter().map(|t| t.media_bytes).sum();
        prop_assert_eq!(media_bytes, report.fleet.run.media.bytes);
        prop_assert!(report.tenants.iter().all(|t| t.media_ops > 0));
    }
}
