//! Regenerates Figures 9a/9b: average channel-level and package-level
//! utilization across all thirteen configurations and four NVM types.
use nvmtypes::NvmKind;
use oocnvm_bench::sweep::Sweep;
use oocnvm_bench::{banner, standard_trace};
use oocnvm_core::config::SystemConfig;
use oocnvm_core::format::pct;
use ooctrace::PosixTrace;
use std::process::ExitCode;

fn main() -> ExitCode {
    let trace = match standard_trace() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("fig9: {e}");
            return ExitCode::from(2);
        }
    };
    match run(trace) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fig9: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(trace: PosixTrace) -> Result<(), String> {
    let configs = SystemConfig::table2();
    let sweep = Sweep::run(&configs, &NvmKind::ALL, &trace);

    println!("{}", banner("Figure 9a", "channel-level utilization (%)"));
    print!(
        "{}",
        sweep.media_table(" %", |r| pct(r.channel_util)).render()
    );

    println!("{}", banner("Figure 9b", "package-level utilization (%)"));
    print!(
        "{}",
        sweep.media_table(" %", |r| pct(r.package_util)).render()
    );

    println!("\nobservations (paper §4.5):");
    let ion = sweep.require("ION-GPFS", NvmKind::Tlc)?;
    let ufs = sweep.require("CNL-UFS", NvmKind::Tlc)?;
    println!(
        "  ION-GPFS (TLC): channels {:.0}% busy but packages only {:.0}% — GPFS striping\n\
         \"results in more randomized accesses and more channels being utilized\n\
         simultaneously\" while \"the utilization of the underlying packages is quite low\"",
        ion.channel_util * 100.0,
        ion.package_util * 100.0
    );
    println!(
        "  CNL-UFS (TLC): channels {:.0}%, packages {:.0}% — \"near full utilization\"",
        ufs.channel_util * 100.0,
        ufs.package_util * 100.0
    );
    Ok(())
}
