//! Cluster-scaling analysis (extension): the architectural motivation of
//! Figures 2/3. A 40-CN/10-ION Carver-style partition shares the IONs'
//! SSDs and the fabric; compute-local SSDs scale with the node count.
use nvmtypes::NvmKind;
use oocnvm_bench::{banner, standard_trace};
use oocnvm_core::cluster::{ion_saturation_nodes, scaling_curve, ClusterSpec, NodeRates};
use oocnvm_core::format::Table;
use std::process::ExitCode;

fn main() -> ExitCode {
    println!(
        "{}",
        banner(
            "Scaling",
            "aggregate delivered bandwidth as the OoC application scales out",
        )
    );
    let trace = match standard_trace() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("scaling: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = ClusterSpec::carver();
    println!(
        "cluster: {} IONs x {} SSDs, {:.0} GB/s bisection (Carver's OoC partition)\n",
        spec.ions,
        spec.ssds_per_ion,
        spec.bisection_mb_s / 1000.0
    );

    for kind in [NvmKind::Tlc, NvmKind::Pcm] {
        let rates = NodeRates::measure(kind, &trace);
        println!(
            "{}: per-CN ION path {:.0} MB/s, per-ION server ceiling {:.0} MB/s, per-CN local {:.0} MB/s",
            kind.label(),
            rates.per_cn_ion_mb_s,
            rates.per_ion_ssd_mb_s,
            rates.per_cn_local_mb_s
        );
        let nodes = [1u32, 2, 4, 8, 16, 40, 64];
        let curve = scaling_curve(&spec, &rates, &nodes);
        let mut t = Table::new([
            "nodes",
            "ION aggregate MB/s",
            "CNL aggregate MB/s",
            "CNL/ION",
        ]);
        for p in &curve {
            t.row([
                p.nodes.to_string(),
                format!("{:.0}", p.ion_mb_s),
                format!("{:.0}", p.cnl_mb_s),
                format!("{:.1}x", p.cnl_mb_s / p.ion_mb_s),
            ]);
        }
        print!("{}", t.render());
        println!(
            "ION path stops scaling at {} nodes; at the paper's 40-node partition the\n\
             compute-local architecture delivers {:.1}x the aggregate bandwidth.\n",
            ion_saturation_nodes(&spec, &rates),
            curve
                .iter()
                .find(|p| p.nodes == 40)
                .map(|p| p.cnl_mb_s / p.ion_mb_s)
                .unwrap_or(0.0)
        );
    }
    ExitCode::SUCCESS
}
