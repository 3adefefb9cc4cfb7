//! `tenants` — the multi-tenant QoS study: per-tenant tail latency as
//! more jobs share one device, ION-remote vs compute-local.
//!
//! ```text
//! cargo run --release --bin tenants -- \
//!     [--smoke] [--seed N] [--json PATH] [--baseline PATH]
//! ```
//!
//! Sweeps tenant density (a cycling eigensolve/checkpoint/kv-lookup
//! mix with bursty seeded arrivals, kv tenants at WFQ weight 4) over
//! the ION-GPFS and CNL-UFS configurations in one parallel batch, then
//! re-renders the study with the same seed to prove the output is
//! byte-identical. Everything in the JSON is simulated time, so the
//! document is exactly reproducible: in `--smoke` mode it is diffed
//! byte-for-byte against the committed baseline
//! (`results/BENCH_tenants.json` by default) and any drift fails the
//! gate.
//!
//! To regenerate the baseline after an intentional change:
//! `cargo run --release --bin tenants -- --smoke --json results/BENCH_tenants.json`.
//!
//! The study itself lives in [`oocnvm::tenants_study`].

use oocnvm::bench::cli::{self, StudyArgs};
use oocnvm::tenants_study::render_report;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match StudyArgs::from_env(cli::TENANTS_FLAGS) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tenants: {e}");
            return ExitCode::from(2);
        }
    };
    let smoke = args.smoke;
    let seed = args.seed_or(42);
    let densities: &[usize] = if smoke { &[1, 3, 6] } else { &[1, 3, 6, 12] };

    let report = render_report(seed, densities);
    print!("{}", report.text);

    // The determinism contract: the identical seed must reproduce the
    // identical study, byte for byte, in the same process — the text
    // report and the JSON document both.
    let again = render_report(seed, densities);
    let deterministic = report.text == again.text && report.json == again.json;
    println!();
    println!(
        "same-seed re-run is byte-identical: {}",
        if deterministic { "OK" } else { "FAIL" }
    );

    let mut failed = !deterministic || report.text.contains("FAIL");

    if let Some(path) = &args.json {
        match std::fs::write(path, &report.json) {
            Ok(()) => println!("json written to {path}"),
            Err(e) => {
                println!("json write to {path} failed: {e}");
                failed = true;
            }
        }
    }

    // The smoke sweep is pinned: its JSON must match the committed
    // baseline byte-for-byte (all-simulated quantities — no tolerance
    // band needed). The full sweep uses a longer density axis, so it
    // only checks a baseline the caller names explicitly.
    let baseline_path = args
        .baseline
        .unwrap_or_else(|| "results/BENCH_tenants.json".to_string());
    if smoke {
        match std::fs::read_to_string(&baseline_path) {
            Ok(baseline) => {
                if baseline == report.json {
                    println!("baseline {baseline_path}: OK (byte-identical)");
                } else {
                    println!("baseline {baseline_path}: DRIFT — study output changed");
                    println!("(regenerate with: tenants --smoke --json {baseline_path})");
                    failed = true;
                }
            }
            Err(e) => {
                println!("baseline {baseline_path} not readable: {e}");
                println!("(regenerate with: tenants --smoke --json {baseline_path})");
                failed = true;
            }
        }
    }

    if failed {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
