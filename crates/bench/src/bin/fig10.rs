//! Regenerates Figures 10a–10d: execution-state breakdowns and PAL
//! parallelism decompositions for TLC and PCM across all configurations.
use nvmtypes::NvmKind;
use oocnvm_bench::sweep::Sweep;
use oocnvm_bench::{banner, standard_trace};
use oocnvm_core::config::SystemConfig;
use oocnvm_core::format::Table;
use ooctrace::PosixTrace;
use std::process::ExitCode;

const STATES: [&str; 6] = [
    "NonOvlp-DMA %",
    "FlashBus %",
    "Channel %",
    "CellCont %",
    "ChanCont %",
    "CellAct %",
];

fn breakdown_table(sweep: &Sweep, kind: NvmKind) -> Result<Table, String> {
    let mut t = Table::new(std::iter::once("config").chain(STATES).collect::<Vec<_>>());
    for c in sweep.configs() {
        let r = sweep.require(c.label, kind)?;
        let mut row = vec![c.label.to_string()];
        row.extend(r.breakdown_pct.iter().map(|p| format!("{p:.1}")));
        t.row(row);
    }
    Ok(t)
}

fn pal_table(sweep: &Sweep, kind: NvmKind) -> Result<Table, String> {
    let mut t = Table::new(["config", "PAL1 %", "PAL2 %", "PAL3 %", "PAL4 %"]);
    for c in sweep.configs() {
        let r = sweep.require(c.label, kind)?;
        let mut row = vec![c.label.to_string()];
        row.extend(r.pal_pct.iter().map(|p| format!("{p:.1}")));
        t.row(row);
    }
    Ok(t)
}

fn main() -> ExitCode {
    let trace = match standard_trace() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("fig10: {e}");
            return ExitCode::from(2);
        }
    };
    match run(trace) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fig10: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(trace: PosixTrace) -> Result<(), String> {
    let configs = SystemConfig::table2();
    let sweep = Sweep::run(&configs, &[NvmKind::Tlc, NvmKind::Pcm], &trace);

    println!(
        "{}",
        banner("Figure 10a", "TLC execution-time breakdown (%)")
    );
    print!("{}", breakdown_table(&sweep, NvmKind::Tlc)?.render());

    println!(
        "{}",
        banner("Figure 10b", "TLC parallelism decomposition (%)")
    );
    print!("{}", pal_table(&sweep, NvmKind::Tlc)?.render());

    println!(
        "{}",
        banner("Figure 10c", "PCM execution-time breakdown (%)")
    );
    print!("{}", breakdown_table(&sweep, NvmKind::Pcm)?.render());

    println!(
        "{}",
        banner("Figure 10d", "PCM parallelism decomposition (%)")
    );
    print!("{}", pal_table(&sweep, NvmKind::Pcm)?.render());

    println!("\nobservations (paper §4.5):");
    let ion = sweep.require("ION-GPFS", NvmKind::Tlc)?;
    println!(
        "  ION-GPFS TLC: {:.0}% of requests reach only PAL3, {:.0}% reach PAL4 —\n\
         \"ION-local PCIe stays almost completely parallelism type PAL3, and almost\n\
         never makes it to the full parallelism of PAL4\"",
        ion.pal_pct[2], ion.pal_pct[3]
    );
    let ufs = sweep.require("CNL-UFS", NvmKind::Tlc)?;
    println!(
        "  CNL-UFS TLC: {:.0}% PAL4 — \"UFS-based architectures are able to almost\n\
         entirely reach parallelism state PAL4\"",
        ufs.pal_pct[3]
    );
    let mut pcm_min_pal4 = f64::INFINITY;
    for c in sweep.configs() {
        pcm_min_pal4 = pcm_min_pal4.min(sweep.require(c.label, NvmKind::Pcm)?.pal_pct[3]);
    }
    println!(
        "  PCM: every configuration >= {pcm_min_pal4:.0}% PAL4 — \"almost entirely in state\n\
         PAL4, a direct result of the much smaller page sizes\""
    );
    let n16 = sweep.require("CNL-NATIVE-16", NvmKind::Tlc)?;
    println!(
        "  CNL-NATIVE-16 TLC: cell activation {:.0}% of device time — \"the closer one\n\
         can get to waiting solely on the NVM itself, the better\"",
        n16.breakdown_pct[5]
    );
    Ok(())
}
