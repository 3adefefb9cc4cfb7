//! Energy analysis (extension): the paper motivates NVM acceleration
//! partly by the "high energy use" of distributed DRAM + networks. This
//! binary quantifies media energy per configuration and medium, and the
//! energy cost of the ION-remote data path relative to compute-local.
use nvmtypes::NvmKind;
use oocnvm_bench::sweep::Sweep;
use oocnvm_bench::{banner, standard_trace};
use oocnvm_core::config::{Location, SystemConfig};
use oocnvm_core::format::Table;
use ooctrace::PosixTrace;
use std::process::ExitCode;

/// Network-interface energy per byte for the ION path: a QDR HCA burns
/// roughly 10 W at 4 GB/s line rate, twice (CN side and ION side), plus
/// the ION server's share. Representative, documented in DESIGN.md.
const ION_NETWORK_NJ_PER_BYTE: f64 = 8.0;

fn main() -> ExitCode {
    let trace = match standard_trace() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("energy: {e}");
            return ExitCode::from(2);
        }
    };
    match run(trace) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("energy: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(trace: PosixTrace) -> Result<(), String> {
    println!(
        "{}",
        banner("Energy", "media energy per configuration (extension study)")
    );
    let configs = [
        SystemConfig::ion_gpfs(),
        SystemConfig::cnl(oocfs::FsKind::Ext4),
        SystemConfig::cnl_ufs(),
        SystemConfig::cnl_native16(),
    ];
    let sweep = Sweep::run(&configs, &NvmKind::ALL, &trace);

    let mut t = Table::new([
        "config",
        "medium",
        "total mJ",
        "nJ/B (media)",
        "nJ/B (+net)",
        "mean W",
    ]);
    for c in sweep.configs() {
        for kind in NvmKind::ALL {
            let r = sweep.require(c.label, kind)?;
            let e = &r.run.energy;
            let media_njb = e.nj_per_byte();
            let path_njb = media_njb
                + if c.location == Location::IonRemote {
                    ION_NETWORK_NJ_PER_BYTE
                } else {
                    0.0
                };
            t.row([
                c.label.to_string(),
                kind.label().to_string(),
                format!("{:.1}", e.total_mj()),
                format!("{:.1}", media_njb),
                format!("{:.1}", path_njb),
                format!("{:.2}", e.mean_power_w(r.run.makespan)),
            ]);
        }
    }
    print!("{}", t.render());

    // Headline: energy per byte delivered, ION vs CNL on the same medium.
    println!("\nobservations:");
    for kind in [NvmKind::Tlc, NvmKind::Pcm] {
        let ion = sweep.require("ION-GPFS", kind)?;
        let ufs = sweep.require("CNL-UFS", kind)?;
        let ion_njb = ion.run.energy.nj_per_byte() + ION_NETWORK_NJ_PER_BYTE;
        let ufs_njb = ufs.run.energy.nj_per_byte();
        println!(
            "  {}: ION path {:.1} nJ/B vs compute-local {:.1} nJ/B — x{:.1} less energy per byte",
            kind.label(),
            ion_njb,
            ufs_njb,
            ion_njb / ufs_njb
        );
    }
    println!(
        "  (static die power dominates slow configurations: finishing the same\n\
         work sooner is itself an energy optimisation)"
    );
    Ok(())
}
