//! `calibrate [mib]` rejects a size it cannot build a workload from —
//! exit 2 with usage, before any trace is generated: a non-number (which
//! used to fall back to 256 MiB), zero (which used to print an all-zero
//! table) and a size whose byte count overflows (which used to wrap).

use std::process::Command;

#[test]
fn a_bad_size_is_a_usage_error() {
    for mib in ["abc", "0", "99999999999999"] {
        let out = Command::new(env!("CARGO_BIN_EXE_calibrate"))
            .arg(mib)
            .output()
            .expect("run calibrate");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "calibrate {mib}: {err}");
        assert!(
            err.contains("usage: calibrate [mib]"),
            "calibrate {mib}: {err}"
        );
        assert!(out.stdout.is_empty(), "calibrate {mib} printed a table");
    }
}

#[test]
fn a_small_size_prints_the_table() {
    let out = Command::new(env!("CARGO_BIN_EXE_calibrate"))
        .arg("6")
        .output()
        .expect("run calibrate");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "calibrate 6: {err}");
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(table.starts_with("config"), "{table}");
    assert!(table.contains("CNL-UFS"), "{table}");
}
