//! `reliability` — the fault-injection study: what do media, link and
//! node faults cost the ION-remote and compute-local paths?
//!
//! ```text
//! cargo run --release --bin reliability [-- --smoke] [--seed N] [--json PATH]
//! ```
//!
//! Sweeps the built-in fault-plan presets (`none`, `light`, `moderate`,
//! `heavy`) over the ION-GPFS and CNL-UFS configurations in one parallel
//! batch, runs a LOBPCG solve with node kills and checkpoint/restart,
//! prints the degraded-mode cluster curve, and finally re-runs the whole
//! study with the same seed to prove the output is byte-identical (the
//! determinism contract of docs/FAULT_MODEL.md and
//! docs/PARALLELISM.md). `--smoke` shrinks the workload for CI;
//! `--json <path>` also writes the study in a stable versioned schema
//! (`oocnvm.reliability/3`), covered by the same byte-identity check.
//!
//! The study itself lives in [`oocnvm::reliability`].

use oocnvm::bench::cli::{self, StudyArgs};
use oocnvm::reliability::render_report;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match StudyArgs::from_env(cli::RELIABILITY_FLAGS) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("reliability: {e}");
            return ExitCode::from(2);
        }
    };
    let smoke = args.smoke;
    let seed = args.seed_or(42);
    let json_path = args.json;
    let (trace_mib, solver_dim) = if smoke { (4, 120) } else { (16, 600) };

    let report = render_report(seed, trace_mib, solver_dim);
    print!("{}", report.text);

    // The determinism contract: the identical seed must reproduce the
    // identical study, byte for byte, in the same process — the text
    // report and the JSON document both.
    let again = render_report(seed, trace_mib, solver_dim);
    let deterministic = report.text == again.text && report.json == again.json;
    println!();
    println!(
        "same-seed re-run is byte-identical: {}",
        if deterministic { "OK" } else { "FAIL" }
    );

    if let Some(path) = json_path {
        match std::fs::write(&path, &report.json) {
            Ok(()) => println!("json written to {path}"),
            Err(e) => {
                println!("json write to {path} failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if !deterministic || report.text.contains("FAIL") {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
