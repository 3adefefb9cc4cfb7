//! Pins the simulated results of one small end-to-end scenario, field
//! by field: the Table-2 × media sweep of an 8 MiB read-only panel
//! sweep, one traced journaled CNL-UFS/TLC run beside its untraced
//! twin, that run's journal write amplification, and an in-core LOBPCG
//! solve. Every constant is simulated time, a byte or event count, or
//! eigenvalue bits, so none depends on the host or the thread count; a
//! change to the model, the tracer's observer effect, the HDR bucketing,
//! the UFS counters or the solver's arithmetic moves one of them.

use nvmtypes::{NvmKind, MIB};
use ooc::lobpcg::{Lobpcg, LobpcgOptions};
use ooc::HamiltonianSpec;
use oocnvm_bench::sweep::Sweep;
use oocnvm_core::config::SystemConfig;
use oocnvm_core::experiment::ExperimentSpec;
use oocnvm_core::workload::synthetic_ooc_trace;
use simobs::{HdrHistogram, Metric, Tracer};
use simprof::SimSpanProfile;

/// Workload seed, shared by the trace and the solver's start block.
const SEED: u64 = 42;

#[test]
fn the_scenario_matches_its_pinned_simulated_results() {
    let trace = synthetic_ooc_trace(8 * MIB, MIB, SEED);

    // The Table-2 × media sweep: totals and the merged HDR latency
    // percentiles over every run.
    let sweep = Sweep::run(&SystemConfig::table2(), &NvmKind::ALL, &trace);
    let (mut requests, mut bytes, mut sim_ns) = (0u64, 0u64, 0u64);
    let mut merged = HdrHistogram::new();
    for r in sweep.reports() {
        requests += r.run.requests;
        bytes += r.run.total_bytes;
        sim_ns += r.run.makespan;
        merged.merge(&r.run.latency_hdr);
    }
    assert_eq!(
        (sweep.reports().len(), requests, bytes, sim_ns),
        (52, 1_892, 437_010_432, 184_217_275)
    );
    assert_eq!(requests * 1_000_000_000 / sim_ns, 10_270, "ops per sim-s");
    let pct = merged.percentiles();
    assert_eq!(
        (pct.p50, pct.p90, pct.p99, pct.p999, pct.max),
        (360_447, 966_655, 2_949_119, 3_519_096, 3_519_096)
    );

    // One journaled CNL-UFS/TLC run, traced and untraced: tracing must
    // not change a result, and the trace's simulated self-time
    // attribution is exact.
    let cnl = SystemConfig::cnl_ufs();
    let mut obs = Tracer::ring(1 << 16);
    let traced = ExperimentSpec::new(&cnl, NvmKind::Tlc)
        .journaled_ufs(true)
        .tracer(&mut obs)
        .run(&trace);
    let untraced = ExperimentSpec::new(&cnl, NvmKind::Tlc)
        .journaled_ufs(true)
        .run(&trace);
    assert!(traced == untraced, "tracing changed the run's report");
    let log = obs.finish();
    assert_eq!(log.emitted, 1_425);
    let prof = SimSpanProfile::build(&log);
    assert_eq!(prof.union_ns, 14_530_620);
    let layers: Vec<(&str, u64, u64)> = prof
        .layers
        .iter()
        .map(|l| (l.layer.label(), l.calls, l.self_ns))
        .collect();
    assert_eq!(
        layers,
        [
            ("media", 1_378, 11_866_692),
            ("ssd", 22, 20_000),
            ("link", 22, 2_643_928),
            ("run", 1, 0),
        ]
    );

    // The same run's journal write amplification, from its counters.
    let wa = ufs::WriteAmp {
        user_bytes: log.metrics.counter(Metric::UfsUserBytes),
        cow_bytes: log.metrics.counter(Metric::UfsCowBytes),
        journal_bytes: log.metrics.counter(Metric::UfsJournalBytes),
        apply_bytes: log.metrics.counter(Metric::UfsApplyBytes),
        commits: log.metrics.counter(Metric::UfsCommits),
        recovery_replays: 0,
    };
    assert_eq!(
        (
            wa.user_bytes,
            wa.cow_bytes,
            wa.journal_bytes,
            wa.apply_bytes
        ),
        (2_097_152, 3_227_648, 32_768, 12_288)
    );
    assert_eq!((wa.commits, wa.device_per_user_permille()), (2, 1_560));

    // The unpreconditioned in-core solve, which is bit-identical to the
    // same solve over the out-of-core store.
    let h = HamiltonianSpec::tiny(96).generate();
    let res = Lobpcg::new(LobpcgOptions {
        block_size: 3,
        max_iters: 60,
        seed: SEED,
        precondition: false,
        ..LobpcgOptions::default()
    })
    .solve(&h);
    let eigen_digest = res
        .eigenvalues
        .iter()
        .fold(0u64, |acc, v| acc.rotate_left(7) ^ v.to_bits());
    assert_eq!((res.iterations, res.eigenvalues.len()), (43, 3));
    assert_eq!(eigen_digest, 0xddd0_5f4e_bb65_0715);
}
