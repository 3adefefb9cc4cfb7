//! `tracetool fs` on POSIX trace files at the edge of what the trace
//! format accepts: a record ending past `TraceRecord::MAX_END`, or with a
//! field after `len`, is a parse error (exit 1) naming its line, never an
//! empty block trace; a record ending exactly at the bound transforms.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Writes `text` to a trace file named `name` and runs
/// `tracetool fs <fs> <file>` on it.
fn tracetool_fs(fs: &str, name: &str, text: &str) -> Output {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).expect("write the trace file");
    Command::new(env!("CARGO_BIN_EXE_tracetool"))
        .args(["fs", fs])
        .arg(&path)
        .output()
        .expect("run tracetool")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn an_end_past_the_largest_file_offset_is_a_parse_error() {
    for (i, line) in [
        "0 R 0 18446744073709551615 4096",
        "0 R 0 18446744073709547519 4096",
        "0 R 0 9223372036854771712 4096",
    ]
    .into_iter()
    .enumerate()
    {
        let out = tracetool_fs("ext4", &format!("past_end_{i}.trace"), &format!("{line}\n"));
        assert_eq!(out.status.code(), Some(1), "{line}: {}", stderr(&out));
        assert!(stderr(&out).contains("line 1"), "{line}: {}", stderr(&out));
        assert!(out.stdout.is_empty(), "{line}: printed a block trace");
    }
}

#[test]
fn a_field_after_len_is_a_parse_error() {
    let out = tracetool_fs(
        "ext4",
        "extra_field.trace",
        "0 R 0 0 4096\n0 R 0 0 4096 extra junk\n",
    );
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains("line 2"), "{}", stderr(&out));
    assert!(stderr(&out).contains("`extra`"), "{}", stderr(&out));
}

#[test]
fn a_record_ending_at_the_largest_file_offset_transforms() {
    // UFS and GPFS map the record directly; a local model would first lay
    // out every extent below it.
    for fs in ["ufs", "gpfs"] {
        let out = tracetool_fs(
            fs,
            &format!("at_end_{fs}.trace"),
            "0 R 0 9223372036854771712 4095\n",
        );
        assert_eq!(out.status.code(), Some(0), "{fs}: {}", stderr(&out));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("(data 4095)"), "{fs}: {stdout}");
    }
}

/// `tracetool gen` rejects a workload it cannot build — exit 2 with the
/// usage text, before any trace is generated: an empty workload, a
/// record below 4 KiB, a byte count that overflows `u64`, more records
/// than the cap, or a number that does not parse.
#[test]
fn gen_rejects_workloads_it_cannot_build() {
    for args in [
        ["0", "64", "7"],
        ["4", "1", "7"],
        ["4", "3", "7"],
        ["18446744073709551615", "64", "7"],
        ["17592186044416", "64", "7"],
        ["4", "18014398509481984", "7"],
        ["4097", "4", "7"],
        ["abc", "64", "7"],
        ["4", "64", "-1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_tracetool"))
            .arg("gen")
            .args(args)
            .output()
            .expect("run tracetool");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        assert!(
            stderr(&out).contains("usage:"),
            "{args:?}: {}",
            stderr(&out)
        );
        assert!(out.stdout.is_empty(), "{args:?}: printed a trace");
    }
}

/// `tracetool lobpcg` rejects sizes the solver cannot run — exit 2 with
/// the usage text, before any solve: a zero block, a dimension below 2,
/// a block above a third of the dimension, and a panel of zero rows.
#[test]
fn lobpcg_rejects_sizes_it_cannot_solve() {
    for (args, says) in [
        (["50", "0", "10", "4"], "--block 0 is outside 1..=16"),
        (["1", "1", "10", "4"], "--n 1 is outside 2..="),
        (["50", "20", "10", "4"], "--block 20 is outside 1..=16"),
        (["50", "2", "10", "0"], "rows_per_panel"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_tracetool"))
            .arg("lobpcg")
            .args(args)
            .output()
            .expect("run tracetool");
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(says), "{args:?} must say {says:?}: {err}");
        assert!(err.contains("usage:"), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?}: printed a trace");
    }
}
