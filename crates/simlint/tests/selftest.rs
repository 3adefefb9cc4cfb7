//! Self-tests for the `simlint` gate.
//!
//! Four layers:
//!
//! 1. **Fixture corpus** (`fixtures/ws/`): a miniature workspace whose
//!    files plant violations only dataflow reveals (cross-statement,
//!    interprocedural and cross-crate). Each pass must find exactly the
//!    planted violations — no more.
//! 2. **Gate behaviour**: the `simlint` binary must exit nonzero on the
//!    fixture corpus and on a hot root that names no function, clean on
//!    the real workspace, and with a usage error on a tree it finds
//!    nothing to scan in.
//! 3. **Ratchet**: `simlint.allow` may only burn down, and only
//!    `hotpath_alloc` can be allowlisted at all.
//! 4. **Lint tables**: the clippy lints that carry the syntactic
//!    invariants are set in every `crates/*` manifest, and the clippy
//!    fixture package (`fixtures/clippy/`) is linted exactly as
//!    `flashsim` is.

use simlint::allow::Allowlist;
use simlint::hotpath::HOT_ROOTS;
use simlint::rules::Rule;
use simlint::{check, scan_workspace};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/ws")
}

fn real_root() -> PathBuf {
    simlint::workspace_root()
}

#[test]
fn fixture_corpus_triggers_every_rule_exactly() {
    let report = scan_workspace(&fixture_root()).expect("fixture scan");
    assert_eq!(report.files_scanned, 3, "fixture corpus shape changed");
    let count = |rule, path: &str| report.counts.get(&(rule, path.to_string())).copied();
    // Unit pass: all four planted mismatches in the core fixture —
    // addition, let binding, cross-crate call argument, struct field.
    assert_eq!(count(Rule::UnitMismatch, "crates/core/src/lib.rs"), Some(4));
    // The negative: dimension-changing arithmetic produces nothing.
    assert_eq!(report.total(Rule::UnitMismatch), 4);
    // Lock order (interconnect + ssd fixtures): the alpha->beta edges
    // (direct nesting and the interprocedural one via `grab_beta`) and
    // the ssd fixture's beta->alpha edge that closes the cycle. The
    // dropped guard and the consistently-ordered gamma/delta pair stay
    // silent.
    assert_eq!(
        count(Rule::LockOrder, "crates/interconnect/src/lib.rs"),
        Some(2),
        "direct + interprocedural alpha->beta edges"
    );
    assert_eq!(
        count(Rule::LockOrder, "crates/ssd/src/lib.rs"),
        Some(1),
        "the beta->alpha edge closing the cross-file cycle"
    );
    assert_eq!(report.total(Rule::LockOrder), 3);
    // Hotpath pass (ssd fixture): `serve` is a declared hot root, so
    // the `vec![]` in its loop is per-event; the hoisted `scratch` reuse
    // (`clear`/`push`) must NOT fire.
    assert_eq!(
        count(Rule::HotPathAlloc, "crates/ssd/src/lib.rs"),
        Some(1),
        "the vec![] in the hot loop, and nothing else"
    );
    assert_eq!(report.total(Rule::HotPathAlloc), 1);
    for rule in Rule::ALL {
        assert!(report.total(rule) > 0, "{} never fired", rule.id());
    }
}

#[test]
fn fixture_corpus_fails_the_gate() {
    // Library level: empty allowlist -> violations for every planted file.
    let report = scan_workspace(&fixture_root()).expect("fixture scan");
    let verdict = check(&report, &Allowlist::default());
    assert!(!verdict.ok());
    assert_eq!(
        verdict.violations.len(),
        4,
        "one violation per (rule, file)"
    );
    assert!(verdict.stale.is_empty());

    // Binary level: the gate must exit nonzero on the corpus.
    let status = Command::new(env!("CARGO_BIN_EXE_simlint"))
        .args(["--root"])
        .arg(fixture_root())
        .status()
        .expect("run simlint binary");
    assert_eq!(status.code(), Some(1), "gate must fail on the fixtures");
}

/// A declared hot root that names no function fails the gate by name,
/// so renaming a root function cannot shrink the hot region unseen. The
/// fixture corpus defines `ssd::qos::SsdDevice::serve` alone, so the
/// other default roots stand for misspelt ones there; the real
/// workspace resolves every root.
#[test]
fn every_hot_root_must_name_a_function() {
    let report = scan_workspace(&fixture_root()).expect("fixture scan");
    let missing: Vec<&str> = HOT_ROOTS
        .into_iter()
        .filter(|root| *root != "ssd::qos::SsdDevice::serve")
        .collect();
    assert_eq!(report.unresolved_roots, missing);
    let verdict = check(&report, &Allowlist::default());
    assert_eq!(verdict.unresolved_roots.len(), missing.len());

    let out = Command::new(env!("CARGO_BIN_EXE_simlint"))
        .args(["--root"])
        .arg(fixture_root())
        .output()
        .expect("run simlint binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    for root in &missing {
        assert!(
            stderr.contains(&format!("unresolved hot root: hot root `{root}`")),
            "{stderr}"
        );
    }

    let real = scan_workspace(&real_root()).expect("workspace scan");
    assert!(
        real.unresolved_roots.is_empty(),
        "{:?}",
        real.unresolved_roots
    );
}

#[test]
fn only_hot_path_findings_can_be_allowlisted() {
    // Even a fully up-to-date allowlist excuses only the hot-path site:
    // the correctness passes carry no budget.
    let report = scan_workspace(&fixture_root()).expect("fixture scan");
    let allow = Allowlist::from_counts(&report.counts);
    assert_eq!(allow.iter().count(), 1, "the ssd hot-path site alone");
    let verdict = check(&report, &allow);
    assert!(verdict.stale.is_empty());
    assert_eq!(verdict.violations.len(), 3, "{:?}", verdict.violations);
    assert!(verdict.violations.iter().all(|v| !v.contains("hotpath")));
}

#[test]
fn allowlist_only_ratchets_down() {
    // Granting more than reality is a stale entry: the gate forces the
    // allowlist to track the actual count exactly, so it can only shrink.
    let report = scan_workspace(&fixture_root()).expect("fixture scan");
    let mut counts = report.counts.clone();
    if let Some(c) = counts.get_mut(&(Rule::HotPathAlloc, "crates/ssd/src/lib.rs".into())) {
        *c += 1; // pretend a site was hoisted without ratcheting
    }
    let inflated = Allowlist::from_counts(&counts);
    let verdict = check(&report, &inflated);
    assert!(
        verdict
            .stale
            .iter()
            .any(|s| s.contains("crates/ssd/src/lib.rs")),
        "over-granted entry must be reported as stale"
    );
    assert!(!verdict.ok());
}

#[test]
fn real_workspace_is_clean_under_its_allowlist() {
    let root = real_root();
    let report = scan_workspace(&root).expect("workspace scan");
    let text = std::fs::read_to_string(root.join("simlint.allow")).expect("simlint.allow exists");
    let allow = Allowlist::parse(&text).expect("simlint.allow parses");
    let verdict = check(&report, &allow);
    assert!(
        verdict.ok(),
        "workspace gate broken:\nviolations: {:?}\nstale: {:?}",
        verdict.violations,
        verdict.stale
    );
}

#[test]
fn hot_path_allowance_stays_at_its_burn_down_residue() {
    let text =
        std::fs::read_to_string(real_root().join("simlint.allow")).expect("simlint.allow exists");
    let allow = Allowlist::parse(&text).expect("simlint.allow parses");
    // Hot-path allocation debt: the v3 burn-down left 11 audited-benign
    // sites (API-intrinsic owned returns and metadata-small clones, each
    // carrying a "Hot-path audit" comment). The budget only shrinks.
    let total = allow.total(Rule::HotPathAlloc);
    assert!(
        total <= 11,
        "hotpath_alloc allowance {total} must stay at or below the burn-down residue of 11"
    );
}

/// The core fixture plants violations that only dataflow reveals; the
/// unit pass catches all four, with messages naming the mechanism each
/// one needed.
#[test]
fn core_fixture_is_caught_by_the_semantic_passes() {
    let path = "crates/core/src/lib.rs";
    let report = scan_workspace(&fixture_root()).expect("fixture scan");
    let core: Vec<_> = report.findings.iter().filter(|l| l.path == path).collect();
    let units: Vec<_> = core
        .iter()
        .filter(|l| l.finding.rule == Rule::UnitMismatch)
        .collect();
    assert_eq!(units.len(), core.len(), "{core:?}");
    assert_eq!(units.len(), 4, "{units:?}");
    // Cross-crate contract: the callee's parameter is declared in the
    // ssd fixture; only the symbol index connects the two files.
    assert!(units.iter().any(|l| l
        .finding
        .message
        .contains("argument `deadline_ns` of `admit` expects ns")));
    assert!(units
        .iter()
        .any(|l| l.finding.message.contains("`+` combines")));
    assert!(units.iter().any(|l| l
        .finding
        .message
        .contains("`deadline_ns` is declared in ns")));
    assert!(units
        .iter()
        .any(|l| l.finding.message.contains("field `start_ns`")));
}

#[test]
fn gate_is_clean_on_the_real_workspace() {
    let status = Command::new(env!("CARGO_BIN_EXE_simlint"))
        .args(["--root"])
        .arg(real_root())
        .status()
        .expect("run simlint binary");
    assert_eq!(status.code(), Some(0), "gate must pass on the workspace");
}

/// Without `--root` the binary scans the workspace it was built from,
/// even when run from elsewhere with no cargo environment; a tree with
/// nothing in scope is a usage error, never a clean pass.
#[test]
fn the_gate_never_passes_on_an_empty_scan() {
    let empty = std::env::temp_dir().join(format!("simlint-empty-{}", std::process::id()));
    std::fs::create_dir_all(&empty).expect("an empty tree");
    let simlint = || Command::new(env!("CARGO_BIN_EXE_simlint"));
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
