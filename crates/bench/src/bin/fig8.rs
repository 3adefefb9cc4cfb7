//! Regenerates Figures 8a/8b: bandwidth achieved and remaining for the
//! device-improvement ladder — CNL-UFS, CNL-BRIDGE-16, CNL-NATIVE-8,
//! CNL-NATIVE-16.
use nvmtypes::NvmKind;
use oocnvm_bench::sweep::Sweep;
use oocnvm_bench::{banner, standard_trace};
use oocnvm_core::config::SystemConfig;
use oocnvm_core::format::mbps;
use ooctrace::PosixTrace;
use std::process::ExitCode;

fn main() -> ExitCode {
    let trace = match standard_trace() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("fig8: {e}");
            return ExitCode::from(2);
        }
    };
    match run(trace) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fig8: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(trace: PosixTrace) -> Result<(), String> {
    let configs = SystemConfig::figure8();
    let sweep = Sweep::run(&configs, &NvmKind::ALL, &trace);

    println!(
        "{}",
        banner(
            "Figure 8a",
            "bandwidth achieved (MB/s) through the device improvements",
        )
    );
    print!(
        "{}",
        sweep.media_table("", |r| mbps(r.bandwidth_mb_s)).render()
    );

    println!(
        "{}",
        banner("Figure 8b", "bandwidth remaining in the NVM media (MB/s)")
    );
    print!(
        "{}",
        sweep.media_table("", |r| mbps(r.remaining_mb_s)).render()
    );

    let bw = |label: &str, k| sweep.require(label, k).map(|r| r.bandwidth_mb_s);
    println!("\nobservations (paper §4.4):");
    let mean = |label: &str| -> Result<f64, String> {
        let mut sum = 0.0;
        for &k in &NvmKind::ALL {
            sum += bw(label, k)?;
        }
        Ok(sum / 4.0)
    };
    println!(
        "  BRIDGE-16 over UFS-x8 (mean): +{:.0}%   (paper: 'increases only marginally')",
        (mean("CNL-BRIDGE-16")? / mean("CNL-UFS")? - 1.0) * 100.0
    );
    println!(
        "  NATIVE-8 over BRIDGE-16 (mean): x{:.1}   (paper: 'a factor of 2, despite half the lanes')",
        mean("CNL-NATIVE-8")? / mean("CNL-BRIDGE-16")?
    );
    // ION reference for the 16x / 8x claims.
    let ion_sweep = Sweep::run(&[SystemConfig::ion_gpfs()], &NvmKind::ALL, &trace);
    let ion = |k| ion_sweep.require("ION-GPFS", k).map(|r| r.bandwidth_mb_s);
    println!(
        "  NATIVE-16 over ION-GPFS on PCM: x{:.1}   (paper: 'an incredible factor of 16')",
        bw("CNL-NATIVE-16", NvmKind::Pcm)? / ion(NvmKind::Pcm)?
    );
    println!(
        "  NATIVE-16 over ION-GPFS on TLC: x{:.1}   (paper: 'an increase of 8 times')",
        bw("CNL-NATIVE-16", NvmKind::Tlc)? / ion(NvmKind::Tlc)?
    );
    Ok(())
}
