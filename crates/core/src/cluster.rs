//! Cluster-level scaling: the architectural motivation of Figures 2/3.
//!
//! Carver's OoC partition dedicates 40 compute nodes and 10 I/O nodes
//! (20 PCIe SSDs) to out-of-core computation. Every CN's accesses to
//! ION-resident NVM share the IONs' SSDs and the fabric; compute-local
//! NVM scales with the node count instead. This module turns the
//! simulator's single-node measurements into cluster aggregates.

use crate::config::SystemConfig;
use crate::experiment::ExperimentSpec;
use nvmtypes::NvmKind;
use ooctrace::PosixTrace;

/// Static description of the cluster (defaults follow Figure 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSpec {
    /// I/O nodes serving the OoC partition.
    pub ions: u32,
    /// PCIe SSDs per ION.
    pub ssds_per_ion: u32,
    /// Fabric bisection bandwidth available to the OoC partition, MB/s
    /// (a QDR 4X fat-tree corner; the per-CN link is modelled by the
    /// ION-GPFS experiment itself).
    pub bisection_mb_s: f64,
}

impl ClusterSpec {
    /// Carver's OoC sub-cluster: 10 IONs, 20 PCIe SSDs, and a bisection
    /// sized for its 40-node partition.
    pub fn carver() -> ClusterSpec {
        ClusterSpec {
            ions: 10,
            ssds_per_ion: 2,
            bisection_mb_s: 40.0 * 4000.0 * 0.5,
        }
    }
}

/// Aggregate delivered bandwidth at one node count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingPoint {
    /// Compute nodes running the OoC application.
    pub nodes: u32,
    /// ION-remote aggregate, MB/s.
    pub ion_mb_s: f64,
    /// Compute-local aggregate, MB/s.
    pub cnl_mb_s: f64,
}

/// Single-node calibration inputs measured by the simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeRates {
    /// What one CN extracts from the ION path (network + GPFS + SSD).
    pub per_cn_ion_mb_s: f64,
    /// What one ION's SSD delivers to GPFS-shaped traffic (no network):
    /// the server-side ceiling.
    pub per_ion_ssd_mb_s: f64,
    /// What one CN extracts from its local SSD through UFS.
    pub per_cn_local_mb_s: f64,
}

impl NodeRates {
    /// Measures the three rates with the simulator on `trace` / `kind`.
    pub fn measure(kind: NvmKind, trace: &PosixTrace) -> NodeRates {
        let ion = ExperimentSpec::new(&SystemConfig::ion_gpfs(), kind).run(trace);
        let local = ExperimentSpec::new(&SystemConfig::cnl_ufs(), kind).run(trace);
        // Server-side ceiling: GPFS-shaped block traffic on the bridged
        // device without the fabric hop.
        let mut server_cfg = SystemConfig::ion_gpfs();
        server_cfg.location = crate::config::Location::ComputeLocal;
        let server = ExperimentSpec::new(&server_cfg, kind).run(trace);
        NodeRates {
            per_cn_ion_mb_s: ion.bandwidth_mb_s,
            per_ion_ssd_mb_s: server.bandwidth_mb_s,
            per_cn_local_mb_s: local.bandwidth_mb_s,
        }
    }
}

/// Aggregate bandwidth curves as the application scales out.
///
/// ION-remote: `min(N x per-CN rate, IONs x server ceiling, bisection)`.
/// Compute-local: `N x per-CN local rate` — no shared term at all.
pub fn scaling_curve(
    spec: &ClusterSpec,
    rates: &NodeRates,
    node_counts: &[u32],
) -> Vec<ScalingPoint> {
    node_counts
        .iter()
        .map(|&n| ScalingPoint {
            nodes: n,
            ion_mb_s: (n as f64 * rates.per_cn_ion_mb_s)
                .min(spec.ions as f64 * rates.per_ion_ssd_mb_s)
                .min(spec.bisection_mb_s),
            cnl_mb_s: n as f64 * rates.per_cn_local_mb_s,
        })
        .collect()
}

/// The node count at which the ION path stops scaling (its aggregate is
/// within 1% of the shared ceiling).
pub fn ion_saturation_nodes(spec: &ClusterSpec, rates: &NodeRates) -> u32 {
    let ceiling = (spec.ions as f64 * rates.per_ion_ssd_mb_s).min(spec.bisection_mb_s);
    (ceiling / rates.per_cn_ion_mb_s).ceil() as u32
}

/// Aggregate compute-local bandwidth with `failed_local` of `nodes` CNs
/// running in degraded mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradedPoint {
    /// Compute nodes in the job.
    pub nodes: u32,
    /// Nodes whose local SSD has failed.
    pub failed_local: u32,
    /// Healthy aggregate (no failures), MB/s.
    pub healthy_mb_s: f64,
    /// Degraded aggregate, MB/s: healthy nodes keep their local rate,
    /// failed nodes fall back to the shared ION path.
    pub degraded_mb_s: f64,
}

impl DegradedPoint {
    /// Fraction of the healthy aggregate retained, `[0, 1]`.
    pub fn retained(&self) -> f64 {
        if self.healthy_mb_s <= 0.0 {
            0.0
        } else {
            self.degraded_mb_s / self.healthy_mb_s
        }
    }
}

/// Degraded mode: a CN whose local SSD fails does not stop — it falls
/// back to the ION path, whose aggregate is still bounded by the shared
/// server ceiling and the fabric bisection. This is the fault model's
/// cluster-level answer to "what does CNL lose when devices die": the
/// surviving nodes keep scaling linearly, only the fallback traffic
/// contends.
pub fn degraded_scaling_point(
    spec: &ClusterSpec,
    rates: &NodeRates,
    nodes: u32,
    failed_local: u32,
) -> DegradedPoint {
    let failed = failed_local.min(nodes);
    let healthy = nodes - failed;
    let fallback = (failed as f64 * rates.per_cn_ion_mb_s)
        .min(spec.ions as f64 * rates.per_ion_ssd_mb_s)
        .min(spec.bisection_mb_s);
    DegradedPoint {
        nodes,
        failed_local: failed,
        healthy_mb_s: nodes as f64 * rates.per_cn_local_mb_s,
        degraded_mb_s: healthy as f64 * rates.per_cn_local_mb_s + fallback,
    }
}

/// Degraded-mode curve over a sweep of failure counts at fixed scale.
pub fn degraded_curve(
    spec: &ClusterSpec,
    rates: &NodeRates,
    nodes: u32,
    failure_counts: &[u32],
) -> Vec<DegradedPoint> {
    failure_counts
        .iter()
        .map(|&f| degraded_scaling_point(spec, rates, nodes, f))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rates() -> NodeRates {
        NodeRates {
            per_cn_ion_mb_s: 800.0,
            per_ion_ssd_mb_s: 1500.0,
            per_cn_local_mb_s: 3000.0,
        }
    }

    #[test]
    fn cnl_scales_linearly_ion_saturates() {
        let spec = ClusterSpec::carver();
        let curve = scaling_curve(&spec, &rates(), &[1, 10, 40, 80]);
        // Linear CNL.
        assert_eq!(curve[2].cnl_mb_s, 40.0 * 3000.0);
        assert_eq!(curve[3].cnl_mb_s, 2.0 * curve[2].cnl_mb_s);
        // ION capped by 10 x 1500 = 15000 from ~19 nodes on.
        assert_eq!(curve[2].ion_mb_s, 15_000.0);
        assert_eq!(curve[3].ion_mb_s, 15_000.0);
        assert!(curve[0].ion_mb_s < 1000.0 + 1e-9);
    }

    #[test]
    fn saturation_point_matches_arithmetic() {
        let spec = ClusterSpec::carver();
        // 15000 / 800 = 18.75 -> 19 nodes.
        assert_eq!(ion_saturation_nodes(&spec, &rates()), 19);
    }

    #[test]
    fn bisection_can_be_the_binding_constraint() {
        let mut spec = ClusterSpec::carver();
        spec.bisection_mb_s = 5_000.0;
        let curve = scaling_curve(&spec, &rates(), &[40]);
        assert_eq!(curve[0].ion_mb_s, 5_000.0);
    }

    #[test]
    fn degraded_mode_interpolates_between_cnl_and_ion() {
        let spec = ClusterSpec::carver();
        let r = rates();
        let none = degraded_scaling_point(&spec, &r, 40, 0);
        assert_eq!(none.degraded_mb_s, none.healthy_mb_s);
        assert_eq!(none.retained(), 1.0);
        // One failure: lose one local rate, gain one ION rate.
        let one = degraded_scaling_point(&spec, &r, 40, 1);
        assert_eq!(one.degraded_mb_s, 39.0 * 3000.0 + 800.0);
        assert!(one.retained() < 1.0);
        // All failed: pure ION aggregate, capped by the shared ceiling.
        let all = degraded_scaling_point(&spec, &r, 40, 40);
        assert_eq!(all.degraded_mb_s, 15_000.0);
        // Monotone: more failures never help.
        let curve = degraded_curve(&spec, &r, 40, &[0, 1, 5, 20, 40]);
        for pair in curve.windows(2) {
            assert!(pair[1].degraded_mb_s <= pair[0].degraded_mb_s);
        }
        // Failure count is clamped to the job size.
        let clamped = degraded_scaling_point(&spec, &r, 4, 9);
        assert_eq!(clamped.failed_local, 4);
    }

    #[test]
    fn measured_rates_order_sensibly() {
        let trace = crate::workload::synthetic_ooc_trace(24 * nvmtypes::MIB, 4 * nvmtypes::MIB, 7);
        let r = NodeRates::measure(NvmKind::Slc, &trace);
        // Removing the fabric can only help; local UFS beats both.
        assert!(r.per_ion_ssd_mb_s > r.per_cn_ion_mb_s);
        assert!(r.per_cn_local_mb_s > r.per_cn_ion_mb_s);
    }
}
