//! Every bin built on `oocnvm_bench::standard_trace` rejects an
//! `OOCNVM_TRACE_MIB` it cannot build a workload from — exit 2 with a
//! message naming the variable, before any trace is generated: zero
//! (which used to print all-zero figures), a non-number (which used to
//! fall back to 256 MiB), and a size whose byte count overflows.

use std::process::Command;

#[test]
fn a_bad_trace_size_is_a_usage_error_in_every_bin() {
    let bins = [
        ("ablations", env!("CARGO_BIN_EXE_ablations")),
        ("energy", env!("CARGO_BIN_EXE_energy")),
        ("fig7", env!("CARGO_BIN_EXE_fig7")),
        ("fig8", env!("CARGO_BIN_EXE_fig8")),
        ("fig9", env!("CARGO_BIN_EXE_fig9")),
        ("fig10", env!("CARGO_BIN_EXE_fig10")),
        ("headline", env!("CARGO_BIN_EXE_headline")),
        ("scaling", env!("CARGO_BIN_EXE_scaling")),
    ];
    for (bin, exe) in bins {
        for mib in ["0", "abc", "99999999999999"] {
            let out = Command::new(exe)
                .env("OOCNVM_TRACE_MIB", mib)
                .output()
                .expect("run the bin");
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{bin} at {mib}: {err}");
            assert!(
                err.contains(&format!("{bin}: invalid config: `OOCNVM_TRACE_MIB`")),
                "{bin} at {mib}: {err}"
            );
        }
    }
}
