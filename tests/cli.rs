//! `oocnvm` rejects bad command lines with the usage text and exit 2
//! before building any trace. Every input here is rejected, so no test
//! runs a simulation.

use std::process::{Command, Output};

fn oocnvm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_oocnvm"))
        .args(args)
        .output()
        .expect("run oocnvm")
}

#[test]
fn bad_command_lines_exit_2_with_usage() {
    let run = ["run", "--config", "CNL-UFS", "--media", "tlc"];
    let with = |extra: &[&'static str]| -> Vec<&'static str> {
        run.iter().chain(extra).copied().collect()
    };
    let cases: Vec<(Vec<&str>, &str)> = vec![
        (vec![], "missing command"),
        (vec!["frobnicate"], "unknown command"),
        (vec!["list", "--verbose"], "unknown command"),
        (
            with(&["--mib", "abc"]),
            "`--mib` takes a non-negative integer",
        ),
        (
            with(&["--mib", "-1"]),
            "`--mib` takes a non-negative integer",
        ),
        (
            with(&["--mib", "2.5"]),
            "`--mib` takes a non-negative integer",
        ),
        (with(&["--mib"]), "`--mib` needs a value"),
        (with(&["--mib", "8", "--mib", "8"]), "`--mib` given twice"),
        (with(&["--verbose", "1"]), "unknown flag `--verbose`"),
        (with(&["--record-kib", "1"]), "at least 4 KiB"),
        (with(&["--record-kib", "3"]), "at least 4 KiB"),
        (with(&["--mib", "0"]), "above zero"),
        (with(&["--mib", "18446744073709551615"]), "above zero"),
        (with(&["--mib", "17592186044416"]), "above zero"),
        (
            with(&["--record-kib", "18014398509481984"]),
            "at least 4 KiB",
        ),
        (
            with(&["--mib", "4097", "--record-kib", "4"]),
            "above the cap",
        ),
        (vec!["run", "--media", "tlc"], "--config"),
        (
            vec!["run", "--config", "CNL-UFS", "--media", "floppy"],
            "--media",
        ),
        (vec!["sweep", "--mib", "18446744073709551615"], "above zero"),
        (
            vec!["sweep", "--mib", "8", "--seed", "7"],
            "unknown flag `--seed`",
        ),
        (vec!["solve"], "missing --n"),
        (
            vec!["solve", "--n", "x"],
            "`--n` takes a non-negative integer",
        ),
        (vec!["solve", "--n", "1"], "outside 2..="),
        (vec!["solve", "--n", "4294967296"], "outside 2..="),
        (vec!["solve", "--n", "50", "--block", "0"], "--block 0"),
        (
            vec!["solve", "--n", "50", "--block", "17"],
            "outside 1..=16",
        ),
    ];
    for (args, says) in cases {
        let out = oocnvm(&args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(says), "{args:?} must say {says:?}: {err}");
        assert!(err.contains("usage:"), "{args:?}: {err}");
        assert!(
            out.stdout.is_empty(),
            "{args:?} ran: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}
