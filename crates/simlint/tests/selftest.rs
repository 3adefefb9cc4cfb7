//! Self-tests for the `simlint` gate.
//!
//! Three layers:
//!
//! 1. **Fixture corpus** (`fixtures/ws/`): a miniature workspace whose
//!    core crate plants four unit mismatches that only dataflow reveals
//!    (cross-statement and cross-crate). The pass must find exactly
//!    those.
//! 2. **Gate behaviour**: the `simlint` binary must exit 1 on the
//!    fixture corpus, 0 on the real workspace, and 2 on a tree it finds
//!    nothing to scan in or on any flag but `--root`.
//! 3. **Lint tables**: the clippy lints that carry the syntactic
//!    invariants are set in every `crates/*` manifest, and the clippy
//!    fixture package (`fixtures/clippy/`) is linted exactly as
//!    `flashsim` is.

use simlint::scan_workspace;
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/ws")
}

fn real_root() -> PathBuf {
    simlint::workspace_root()
}

fn simlint() -> Command {
    Command::new(env!("CARGO_BIN_EXE_simlint"))
}

/// The core fixture's four mismatches, with messages naming the
/// mechanism each one needed; the ssd fixture and the dimension-changing
/// arithmetic stay silent.
#[test]
fn fixture_corpus_yields_exactly_the_planted_findings() {
    let report = scan_workspace(&fixture_root()).expect("fixture scan");
    assert_eq!(report.files_scanned, 2, "fixture corpus shape changed");
    let messages: Vec<&str> = report
        .findings
        .iter()
        .map(|l| {
            assert_eq!(l.path, "crates/core/src/lib.rs", "{l:?}");
            l.finding.message.as_str()
        })
        .collect();
    assert_eq!(messages.len(), 4, "{messages:?}");
    // Cross-crate contract: the callee's parameter is declared in the
    // ssd fixture; only the symbol index connects the two files.
    for want in [
        "argument `deadline_ns` of `admit` expects ns",
        "`+` combines",
        "`deadline_ns` is declared in ns",
        "field `start_ns`",
    ] {
        assert!(messages.iter().any(|m| m.contains(want)), "{want}");
    }
}

#[test]
fn fixture_corpus_fails_the_gate() {
    let out = simlint()
        .arg("--root")
        .arg(fixture_root())
        .output()
        .expect("run simlint binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("simlint: FAILED — 4 unit_mismatch finding(s)"),
        "{stderr}"
    );
    assert_eq!(stderr.matches("[unit_mismatch]").count(), 4, "{stderr}");
}

#[test]
fn gate_is_clean_on_the_real_workspace() {
    let out = simlint()
        .arg("--root")
        .arg(real_root())
        .output()
        .expect("run simlint binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}

/// Without `--root` the binary scans the workspace it was built from,
/// even when run from elsewhere with no cargo environment; a tree with
/// nothing in scope is a usage error, never a clean pass.
#[test]
fn the_gate_never_passes_on_an_empty_scan() {
    let empty = std::env::temp_dir().join(format!("simlint-empty-{}", std::process::id()));
    std::fs::create_dir_all(&empty).expect("an empty tree");
    let from_elsewhere = simlint()
        .current_dir(&empty)
        .env_remove("CARGO_MANIFEST_DIR")
        .output();
    let in_empty = simlint().arg("--root").arg(&empty).status();
    std::fs::remove_dir_all(&empty).expect("remove the empty tree");

    let out = from_elsewhere.expect("run simlint binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    let scanned = scan_workspace(&real_root())
        .expect("workspace scan")
        .files_scanned;
    assert!(
        stdout.contains(&format!("scanned {scanned} files")),
        "{stdout}"
    );
    assert_eq!(in_empty.expect("run simlint binary").code(), Some(2));
}

/// `--root` is the one flag: anything else, the retired export,
/// baseline and allowlist flags included, is a usage error.
#[test]
fn every_other_argument_is_a_usage_error() {
    for args in [
        &["--json"][..],
        &["--list"],
        &["--baseline", "results/simlint.baseline.json"],
        &["--write-allow"],
        &["--root"],
    ] {
        let out = simlint().args(args).output().expect("run simlint binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: simlint [--root DIR]"), "{stderr}");
    }
}

/// The body lines of one `[name]` table of a manifest, comments and
/// blank lines dropped.
fn table<'a>(manifest: &'a str, name: &str) -> Vec<&'a str> {
    let header = format!("[{name}]");
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect()
}

/// The crates doing ns/bytes/energy arithmetic, which deny `as` casts.
const UNIT_MATH_CRATES: [&str; 7] = [
    "flashsim",
    "ssd",
    "interconnect",
    "fs",
    "nvmtypes",
    "simobs",
    "simprof",
];

/// Every `crates/*` manifest repeats the workspace lint base and adds
/// its share of the syntactic invariants (docs/INVARIANTS.md), and the
/// clippy fixture package is linted exactly as `flashsim` is. Cargo
/// takes no crate lints beside `workspace = true`, so these copies are
/// what keeps the policy one policy.
#[test]
fn lint_tables_do_not_drift() {
    let read = |p: &Path| std::fs::read_to_string(p).expect("a manifest");
    let root = real_root();
    let workspace = read(&root.join("Cargo.toml"));
    let base_rust = table(&workspace, "workspace.lints.rust");
    let base_clippy = table(&workspace, "workspace.lints.clippy");
    assert!(!base_rust.is_empty() && !base_clippy.is_empty());
    let mut checked = 0;
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let dir = entry.expect("a directory entry").path();
        let Ok(manifest) = std::fs::read_to_string(dir.join("Cargo.toml")) else {
            continue;
        };
        let name = dir
            .file_name()
            .and_then(|n| n.to_str())
            .expect("a crate directory name");
        assert_eq!(table(&manifest, "lints.rust"), base_rust, "{name}");
        let mut want: Vec<String> = base_clippy.iter().map(|l| l.to_string()).collect();
        let mut add = |lint: &str| want.push(format!("{lint} = \"deny\""));
        add("unreachable");
        add("ref_as_ptr");
        add("let_underscore_untyped");
        // simlint's own wildcards are over its AST enums.
        if name != "simlint" {
            add("wildcard_enum_match_arm");
        }
        if UNIT_MATH_CRATES.contains(&name) {
            add("as_conversions");
        }
        // A crate with binaries denies printing in its library alone.
        let has_bins = dir.join("src/main.rs").exists() || dir.join("src/bin").exists();
        if has_bins {
            let lib = read(&dir.join("src/lib.rs"));
            assert!(
                lib.contains("#![deny(clippy::print_stdout, clippy::print_stderr)]"),
                "{name}'s library may print"
            );
        } else {
            add("print_stdout");
            add("print_stderr");
        }
        assert_eq!(table(&manifest, "lints.clippy"), want, "{name}");
        checked += 1;
    }
    assert_eq!(checked, 13, "the workspace has 13 crates");

    let flashsim = read(&root.join("crates/flashsim/Cargo.toml"));
    let fixture = read(&Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/clippy/Cargo.toml"));
    for name in ["lints.rust", "lints.clippy"] {
        assert_eq!(table(&fixture, name), table(&flashsim, name), "[{name}]");
    }
}
