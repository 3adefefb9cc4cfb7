//! Bandwidth and utilisation table of the Fig. 7 configurations plus
//! the CNL bridge/native variants, on every medium.
//!
//! ```text
//! calibrate [mib]    sweep a synthetic read workload of `mib` MiB (default 256)
//! ```
//!
//! The workload is checked with [`synthetic_shape`] before any trace is
//! built: a size that is not a number, zero, overflows a byte count or
//! needs too many 6 MiB records is a usage error (exit 2).
use nvmtypes::NvmKind;
use oocnvm_bench::sweep::Sweep;
use oocnvm_core::config::SystemConfig;
use oocnvm_core::workload::{synthetic_ooc_trace, synthetic_shape};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: calibrate [mib]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mib = match args.as_slice() {
        [] => 256,
        [mib] => match mib.parse::<u64>() {
            Ok(mib) => mib,
            Err(_) => return usage(),
        },
        _ => return usage(),
    };
    let (total, record) = match synthetic_shape(mib, 6 * 1024) {
        Ok(shape) => shape,
        Err(e) => {
            eprintln!("calibrate: {e}");
            return usage();
        }
    };
    match run(total, record) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("calibrate: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(total: u64, record: u64) -> Result<(), String> {
    let trace = synthetic_ooc_trace(total, record, 42);
    let mut configs = SystemConfig::figure7();
    configs.extend([
        SystemConfig::cnl_bridge16(),
        SystemConfig::cnl_native8(),
        SystemConfig::cnl_native16(),
    ]);
    let t0 = std::time::Instant::now();
    let sweep = Sweep::run(&configs, &NvmKind::ALL, &trace);
    eprintln!("sweep took {:?}", t0.elapsed());
    println!(
        "{:<16} {:>8} {:>8} {:>8} {:>8}",
        "config", "TLC", "MLC", "SLC", "PCM"
    );
    for c in sweep.configs() {
        let get = |k| sweep.require(c.label, k).map(|r| r.bandwidth_mb_s);
        println!(
            "{:<16} {:>8.0} {:>8.0} {:>8.0} {:>8.0}",
            c.label,
            get(NvmKind::Tlc)?,
            get(NvmKind::Mlc)?,
            get(NvmKind::Slc)?,
            get(NvmKind::Pcm)?
        );
    }
    println!("\nutil/remaining/pal4 (TLC):");
    for c in sweep.configs() {
        let r = sweep.require(c.label, NvmKind::Tlc)?;
        println!(
            "{:<16} chan={:>5.1}% pkg={:>5.1}% rem={:>7.0} pal={:?} dma%={:.1}",
            c.label,
            r.channel_util * 100.0,
            r.package_util * 100.0,
            r.remaining_mb_s,
            r.pal_pct.map(|p| p.round()),
            r.breakdown_pct[0]
        );
    }
    Ok(())
}
