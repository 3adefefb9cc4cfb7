//! Integration tests for the extension studies: energy, cluster scaling,
//! the cache argument, checkpointing and graph analytics.

use nvmtypes::{NvmKind, MIB};
use oocnvm_core::cache::{replay_lru, reuse_distances};
use oocnvm_core::cluster::{ion_saturation_nodes, scaling_curve, ClusterSpec, NodeRates};
use oocnvm_core::config::SystemConfig;
use oocnvm_core::experiment::ExperimentSpec;
use oocnvm_core::workload::{checkpoint_trace, graph_ooc_trace, synthetic_ooc_trace};

#[test]
fn energy_per_byte_favors_compute_local() {
    let trace = synthetic_ooc_trace(48 * MIB, 6 * MIB, 11);
    let ion = ExperimentSpec::new(&SystemConfig::ion_gpfs(), NvmKind::Tlc).run(&trace);
    let cnl = ExperimentSpec::new(&SystemConfig::cnl_ufs(), NvmKind::Tlc).run(&trace);
    // Same bytes, but the slow ION run burns static die power ~4x longer
    // on top of identical dynamic read energy...
    let ion_njb = ion.run.energy.nj_per_byte();
    let cnl_njb = cnl.run.energy.nj_per_byte();
    assert!(
        ion_njb > 1.1 * cnl_njb,
        "ION {ion_njb} nJ/B should exceed CNL {cnl_njb} nJ/B"
    );
    // ...and the ION path additionally pays the fabric's ~8 nJ/B (two
    // HCAs + the ION server share), tripling its energy per byte.
    assert!(ion_njb + 8.0 > 3.0 * cnl_njb);
    // Sanity: both report positive power.
    assert!(ion.run.energy.mean_power_w(ion.run.makespan) > 0.0);
}

#[test]
fn pcm_dynamic_read_energy_beats_nand() {
    let trace = synthetic_ooc_trace(48 * MIB, 6 * MIB, 11);
    let config = SystemConfig::cnl_ufs();
    let tlc = ExperimentSpec::new(&config, NvmKind::Tlc)
        .run(&trace)
        .run
        .energy;
    let pcm = ExperimentSpec::new(&config, NvmKind::Pcm)
        .run(&trace)
        .run
        .energy;
    assert!(pcm.read_mj < tlc.read_mj);
}

#[test]
fn faster_architectures_use_less_total_energy_for_the_same_work() {
    // The static-power argument: NATIVE-16 finishes ~4x sooner than UFS,
    // so it spends less idle energy on identical payload bytes.
    let trace = synthetic_ooc_trace(48 * MIB, 6 * MIB, 11);
    let ufs = ExperimentSpec::new(&SystemConfig::cnl_ufs(), NvmKind::Tlc)
        .run(&trace)
        .run;
    let n16 = ExperimentSpec::new(&SystemConfig::cnl_native16(), NvmKind::Tlc)
        .run(&trace)
        .run;
    assert_eq!(ufs.energy.bytes, n16.energy.bytes);
    assert!(n16.energy.total_mj() < ufs.energy.total_mj());
}

#[test]
fn cluster_scaling_crossover_favors_cnl_at_the_papers_partition_size() {
    let trace = synthetic_ooc_trace(32 * MIB, 6 * MIB, 9);
    let rates = NodeRates::measure(NvmKind::Tlc, &trace);
    let spec = ClusterSpec::carver();
    let curve = scaling_curve(&spec, &rates, &[1, 40]);
    // Even a single node gains; at 40 nodes the ION path has saturated.
    assert!(curve[0].cnl_mb_s > curve[0].ion_mb_s);
    assert!(curve[1].cnl_mb_s > 5.0 * curve[1].ion_mb_s);
    assert!(ion_saturation_nodes(&spec, &rates) < 40);
    // CNL scaling is exactly linear.
    assert!((curve[1].cnl_mb_s / curve[0].cnl_mb_s - 40.0).abs() < 1e-9);
}

#[test]
fn ooc_reuse_distances_defeat_partial_caches() {
    // The §1 argument, end to end on the synthetic OoC sweep.
    let trace = synthetic_ooc_trace(128 * MIB, 4 * MIB, 5);
    let reuse = reuse_distances(&trace, 1 << 20);
    // The working set is 32 MiB (a quarter of the volume): the median
    // reuse distance is the whole working set.
    let need = reuse.capacity_for_half_hits(1 << 20).unwrap();
    assert!(need >= 30 * MIB, "need {need}");
    // An LRU at 75% of the working set hits almost nothing beyond
    // adjacent-record block overlap...
    let small = replay_lru(&trace, 24 * MIB, 1 << 20);
    assert!(
        small.hit_ratio() < 0.25,
        "small cache hit {}",
        small.hit_ratio()
    );
    // ...while a full-size cache hits on every sweep after the first.
    let big = replay_lru(&trace, 40 * MIB, 1 << 20);
    assert!(big.hit_ratio() > 0.6, "big cache hit {}", big.hit_ratio());
    assert!(big.warm_bytes.is_some());
}

#[test]
fn checkpoint_workload_runs_and_wears_the_device() {
    let trace = checkpoint_trace(48 * MIB, 12 * MIB, 6 * MIB, 4 * MIB, 7);
    let config = SystemConfig::cnl_ufs();
    // UFS mode doesn't inject erases (app-managed); traditional FTL does.
    let trad =
        ExperimentSpec::new(&SystemConfig::cnl(oocfs::FsKind::Ext4), NvmKind::Slc).run(&trace);
    assert!(trad.run.wear.erases > 0, "no erases under the FTL");
    let ufs = ExperimentSpec::new(&config, NvmKind::Slc).run(&trace);
    assert!(ufs.bandwidth_mb_s > 0.0);
    // Mixed read/write is slower than the pure-read workload of the same
    // volume on TLC (program latencies bite).
    let pure = synthetic_ooc_trace(trace.total_bytes(), 4 * MIB, 7);
    let mixed_tlc = ExperimentSpec::new(&config, NvmKind::Tlc).run(&trace);
    let pure_tlc = ExperimentSpec::new(&config, NvmKind::Tlc).run(&pure);
    assert!(mixed_tlc.bandwidth_mb_s < pure_tlc.bandwidth_mb_s);
}

#[test]
fn graph_analytics_widen_the_ufs_advantage() {
    // External-memory BFS/PageRank (the intro's other OoC family) mix
    // small random vertex touches into the edge stream. Those 8 KiB reads
    // are sense-latency-bound, so throughput hinges on how many the stack
    // keeps in flight: UFS sustains a deep queue while a traditional FS
    // stalls on metadata and shallow plugging — its advantage *grows*
    // with the random share.
    let streaming = graph_ooc_trace(48 * MIB, 2 * MIB, 0.0, 5);
    let mixed = graph_ooc_trace(48 * MIB, 2 * MIB, 0.4, 5);
    let ratio = |trace| {
        let ufs = ExperimentSpec::new(&SystemConfig::cnl_ufs(), NvmKind::Tlc).run(trace);
        let ext4 =
            ExperimentSpec::new(&SystemConfig::cnl(oocfs::FsKind::Ext4), NvmKind::Tlc).run(trace);
        ufs.bandwidth_mb_s / ext4.bandwidth_mb_s
    };
    let r_stream = ratio(&streaming);
    let r_mixed = ratio(&mixed);
    assert!(
        r_stream > 1.0,
        "UFS should win even while streaming: {r_stream}"
    );
    assert!(
        r_mixed > r_stream,
        "mixed advantage {r_mixed} should exceed streaming {r_stream}"
    );
    // But mixing random reads costs everyone absolute bandwidth.
    let ufs_stream = ExperimentSpec::new(&SystemConfig::cnl_ufs(), NvmKind::Tlc).run(&streaming);
    let ufs_mixed = ExperimentSpec::new(&SystemConfig::cnl_ufs(), NvmKind::Tlc).run(&mixed);
    assert!(ufs_mixed.bandwidth_mb_s < ufs_stream.bandwidth_mb_s);
}
