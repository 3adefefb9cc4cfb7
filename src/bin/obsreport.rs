//! `obsreport` — deterministic observability report for one experiment.
//!
//! ```text
//! cargo run --release --bin obsreport [-- --smoke] [--seed N] [--out PATH] [--json PATH]
//! ```
//!
//! Runs the paper's CNL-UFS configuration (TLC media) under the `light`
//! fault plan with a ring-buffered tracer attached, then a small LOBPCG
//! solve on the solver lane of the same tracer, and:
//!
//! 1. exports the collected events as Chrome trace-event JSON (loadable
//!    in Perfetto / `chrome://tracing`; see docs/OBSERVABILITY.md) to
//!    `--out` (default `target/obsreport.trace.json`),
//! 2. validates the emitted document with simobs's own JSON parser,
//! 3. prints the text flamegraph rollup and the per-layer latency
//!    attribution table (components must sum to the measured total),
//! 4. proves the observer effect is zero: the traced run's report is
//!    byte-identical to an untraced run, and a second traced run
//!    produces byte-identical trace JSON.
//!
//! `--json <path>` additionally writes a versioned summary
//! (`oocnvm.obsreport/1`) of the checks. Exit status is non-zero if any
//! check fails, which is what `scripts/check.sh` leans on.
//!
//! The study itself lives in [`oocnvm::obsreport`].

use oocnvm::bench::cli::{self, StudyArgs};
use oocnvm::obsreport::report;
use std::process::ExitCode;

fn check(label: &str, ok: bool) {
    println!("{label}: {}", if ok { "OK" } else { "FAIL" });
}

fn main() -> ExitCode {
    let args = match StudyArgs::from_env(cli::OBSREPORT_FLAGS) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("obsreport: {e}");
            return ExitCode::from(2);
        }
    };
    let smoke = args.smoke;
    let seed = args.seed_or(42);
    let out_path = args
        .out
        .unwrap_or_else(|| "target/obsreport.trace.json".to_string());
    let json_path = args.json;
    let (trace_mib, solver_dim) = if smoke { (4, 120) } else { (32, 240) };

    println!("== obsreport: CNL-UFS / TLC, {trace_mib} MiB, light faults, seed {seed} ==");
    let study = report(seed, trace_mib, solver_dim);
    let mut ok = study.all_ok();

    check(
        "tracing leaves the simulation result untouched",
        study.observer_free,
    );
    check(
        "same-seed re-run exports byte-identical trace JSON",
        study.replay_identical,
    );
    check(
        "exported JSON parses and is format-tagged",
        study.parsed_and_tagged,
    );
    check(
        "latency attribution components sum to the measured total",
        study.attribution_exact,
    );

    match std::fs::write(&out_path, &study.pass.trace_json) {
        Ok(()) => println!(
            "trace written to {out_path} ({} bytes) — open in https://ui.perfetto.dev",
            study.pass.trace_json.len()
        ),
        Err(e) => {
            println!("trace write to {out_path} failed: {e}");
            ok = false;
        }
    }

    if let Some(path) = json_path {
        match std::fs::write(&path, &study.json) {
            Ok(()) => println!("summary json written to {path}"),
            Err(e) => {
                println!("summary json write to {path} failed: {e}");
                ok = false;
            }
        }
    }

    println!();
    print!("{}", study.pass.flame);
    println!();
    print!("{}", study.pass.attrib);

    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
