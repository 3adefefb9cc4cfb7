//! `ufs` — the crash-consistency study: exhaustive power-loss recovery
//! testing of the journaled UFS, the journal's device-level cost, and
//! the eigensolver on the real filesystem.
//!
//! ```text
//! cargo run --release --bin ufs [-- --smoke] [--seed N] [--json PATH]
//! ```
//!
//! Runs the exhaustive crash-point sweep (power loss during every device
//! write of a deterministic workload, dropped and torn, each remounted
//! and verified), compares the model-UFS and journaled-UFS block traces
//! on the same device, solves LOBPCG over the UFS-backed panel store,
//! and finally re-runs the whole study with the same seed to prove the
//! output is byte-identical. `--smoke` shrinks the workload for CI;
//! `--json <path>` also writes the study in a stable versioned schema
//! (`oocnvm.ufs/2`), covered by the same byte-identity check.
//!
//! The study itself lives in [`oocnvm::ufs_study`].

use oocnvm::bench::cli::{self, StudyArgs};
use oocnvm::ufs_study::render_report;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let args = match StudyArgs::from_env(cli::UFS_FLAGS) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ufs: {e}");
            return ExitCode::from(2);
        }
    };
    let smoke = args.smoke;
    let seed = args.seed_or(42);
    let json_path = args.json;

    let wall = Instant::now();
    let report = render_report(seed, smoke);
    print!("{}", report.text);

    // The determinism contract: the identical seed must reproduce the
    // identical study, byte for byte — text and JSON both.
    let again = render_report(seed, smoke);
    let deterministic = report.text == again.text && report.json == again.json;
    println!();
    println!(
        "same-seed re-run is byte-identical: {}",
        if deterministic { "OK" } else { "FAIL" }
    );
    println!("wall time: {:.2}s", wall.elapsed().as_secs_f64());

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
