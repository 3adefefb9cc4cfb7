//! Regenerates the paper's §7 headline numbers:
//!
//! * compute-local SSDs beat client-remote SSDs by ~108% on average,
//! * UFS adds ~52% over the traditional-file-system CNL baseline,
//! * the hardware improvements add another ~250%,
//! * end-to-end: ~10.3x over ION-local NVM.
//!
//! `--json <path>` additionally writes the matrix in a stable versioned
//! schema (`oocnvm.headline/2`) for downstream tooling. The whole
//! computation lives in [`oocnvm_bench::headline`] so the determinism
//! tests can pin it byte-identical at every thread count.
use oocnvm_bench::cli::{self, StudyArgs};
use oocnvm_bench::{banner, headline, standard_trace};
use std::process::ExitCode;

fn main() -> ExitCode {
    println!(
        "{}",
        banner("§7 headline", "average improvements across NVM media")
    );
    let args = match StudyArgs::from_env(cli::HEADLINE_FLAGS) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("headline: {e}");
            return ExitCode::from(2);
        }
    };
    let json_path = args.json;
    let trace = match standard_trace() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("headline: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(report) = headline::report(&trace) else {
        eprintln!("headline: the table-2 sweep is missing a labelled configuration");
        return ExitCode::FAILURE;
    };
    print!("{}", report.text);

    if let Some(path) = json_path {
        match std::fs::write(&path, &report.json) {
            Ok(()) => println!("  json written to {path}"),
            Err(e) => {
                println!("  json write to {path} failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
