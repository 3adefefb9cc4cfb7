//! Regenerates Figures 7a/7b: bandwidth achieved and bandwidth remaining
//! for the ION-GPFS baseline and the nine compute-local file systems,
//! across all four NVM media.
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
            eprintln!("fig7: {e}");
            return ExitCode::from(2);
        }
    };
    match run(trace) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fig7: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(trace: PosixTrace) -> Result<(), String> {
    let configs = SystemConfig::figure7();
    let sweep = Sweep::run(&configs, &NvmKind::ALL, &trace);

    println!(
        "{}",
        banner(
            "Figure 7a",
            "bandwidth achieved (MB/s) per file system and NVM type",
        )
    );
    print!(
        "{}",
        sweep.media_table("", |r| mbps(r.bandwidth_mb_s)).render()
    );

    println!(
        "{}",
        banner("Figure 7b", "bandwidth remaining in the NVM media (MB/s)")
    );
    print!(
        "{}",
        sweep.media_table("", |r| mbps(r.remaining_mb_s)).render()
    );

    // The section-4.3 observations, computed from the sweep.
    let bw = |label: &str, k| sweep.require(label, k).map(|r| r.bandwidth_mb_s);
    println!("\nobservations (paper §4.3):");
    for (kind, claim) in [
        (NvmKind::Tlc, "7%"),
        (NvmKind::Mlc, "78%"),
        (NvmKind::Slc, "108%"),
    ] {
        let ion = bw("ION-GPFS", kind)?;
        let mut worst = f64::INFINITY;
        for c in configs.iter().filter(|c| !c.fs.is_ion()) {
            worst = worst.min(bw(c.label, kind)?);
        }
        println!(
            "  worst CNL FS vs ION-GPFS on {}: +{:.0}%   (paper: +{claim})",
            kind.label(),
            (worst / ion - 1.0) * 100.0
        );
    }
    let e2 = bw("CNL-EXT2", NvmKind::Tlc)?;
    let bt = bw("CNL-BTRFS", NvmKind::Tlc)?;
    println!(
        "  ext2 -> BTRFS on TLC: x{:.2}   (paper: 'a factor of 2')",
        bt / e2
    );
    let e4 = bw("CNL-EXT4", NvmKind::Tlc)?;
    let e4l = bw("CNL-EXT4-L", NvmKind::Tlc)?;
    println!(
        "  ext4 -> ext4-L on TLC: +{:.0} MB/s   (paper: 'about 1GB/s')",
        e4l - e4
    );
    let mut pcm = Vec::new();
    for c in configs.iter().filter(|c| !c.fs.is_ion()) {
        pcm.push(bw(c.label, NvmKind::Pcm)?);
    }
    let spread =
        pcm.iter().cloned().fold(0.0, f64::max) / pcm.iter().cloned().fold(f64::INFINITY, f64::min);
    println!(
        "  PCM spread across CNL file systems: x{spread:.2}   (paper: PCM 'obscures the differences')"
    );
    Ok(())
}
