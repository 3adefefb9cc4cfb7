//! CLI for `simlint`.
//!
//! ```text
//! cargo run -p simlint                 # gate: scan the workspace
//! cargo run -p simlint -- --root DIR   # scan a different tree
//! ```
//!
//! Every `unit_mismatch` finding is printed and fails the gate. Without
//! `--root` the scan covers the workspace the binary was built from,
//! wherever it is run.
//!
//! Exit codes: 0 clean, 1 findings, 2 usage or I/O errors, or a tree
//! with no in-scope source file.

use std::path::PathBuf;
use std::process::ExitCode;

fn parse_args() -> Result<PathBuf, String> {
    let mut root = simlint::workspace_root();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = PathBuf::from(args.next().ok_or("--root needs a directory")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(root)
}

fn main() -> ExitCode {
    let root = match parse_args() {
        Ok(root) => root,
        Err(msg) => {
            eprintln!("simlint: {msg}\nusage: simlint [--root DIR]");
            return ExitCode::from(2);
        }
    };
    let report = match simlint::scan_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("simlint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    if report.files_scanned == 0 {
        eprintln!("simlint: no in-scope source file under {}", root.display());
        return ExitCode::from(2);
    }
    println!("simlint: scanned {} files", report.files_scanned);
    if report.findings.is_empty() {
        println!("simlint: clean (no unit_mismatch finding)");
        return ExitCode::SUCCESS;
    }
    for l in &report.findings {
        eprintln!(
            "{}:{}:{}: [unit_mismatch] {}",
            l.path, l.finding.line, l.finding.col, l.finding.message
        );
    }
    eprintln!(
        "simlint: FAILED — {} unit_mismatch finding(s)",
        report.findings.len()
    );
    ExitCode::FAILURE
}
