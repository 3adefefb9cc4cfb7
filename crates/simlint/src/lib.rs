//! `simlint` — the unit-of-measure check of the NVM simulator's
//! sources.
//!
//! The paper's headline comparisons (CNL vs ION bandwidth, ~10.3x
//! end-to-end speedup) rest on a cycle-accurate simulator whose runs must
//! be *bit-identical* given the same inputs. The syntactic invariants
//! that keep them so — no panics, no bare `as` casts, exhaustive
//! matches, no `let _ =`, no library printing, no ad-hoc threads,
//! atomics or locks, and no source of a value that differs between two
//! runs (wall clock, hash order, OS entropy, environment reads,
//! addresses) — are clippy lints, set in each crate's `[lints]` table
//! and in `crates/clippy.toml` (docs/INVARIANTS.md). Per-event
//! allocations are counted at run time by `tests/alloc_budget.rs`.
//! simlint keeps the one check neither can express, `unit_mismatch`:
//! ns, bytes and lanes never meet in one sum, comparison or argument
//! ([`units`]). It is a pass over the parsed sources of the whole
//! workspace, and every finding fails the gate. Run via
//! `cargo run -p simlint`.

#![forbid(unsafe_code)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod ast;
pub mod lexer;
pub mod parser;
pub mod resolve;
pub mod units;

use std::path::{Path, PathBuf};

/// Crates whose output feeds results or traces: the scope of the unit
/// pass. `bench`, `simlint` and the root package's CLI are the harness
/// around them.
const SIM_CRATES: [&str; 11] = [
    "flashsim",
    "ssd",
    "interconnect",
    "fs",
    "ufs",
    "nvmtypes",
    "core",
    "trace",
    "ooc",
    "simobs",
    "simprof",
];

/// One `unit_mismatch` finding at a source location.
#[derive(Debug, Clone)]
pub struct Finding {
    /// 1-based line number.
    pub line: usize,
    /// 1-based column (best-effort; 0 when unknown).
    pub col: usize,
    /// Human-readable explanation.
    pub message: String,
}

/// A finding bound to the file it occurred in.
#[derive(Debug, Clone)]
pub struct Located {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// The underlying finding.
    pub finding: Finding,
}

/// Result of scanning the workspace.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Every finding, sorted by path then line.
    pub findings: Vec<Located>,
    /// Files scanned.
    pub files_scanned: usize,
}

/// Whether the unit pass reports findings in a workspace-relative
/// file path: the production sources of the [`SIM_CRATES`].
pub fn in_scope(path: &str) -> bool {
    source_crate(path).is_some_and(|krate| SIM_CRATES.contains(&krate))
}

/// Extracts the crate name for an in-scope production source path:
/// `crates/<name>/src/**.rs` or the root package's `src/**.rs` (as
/// `"oocnvm"`). Everything else — vendor shims, tests, benches,
/// fixtures, examples — is out of scope.
pub fn source_crate(path: &str) -> Option<&str> {
    if !path.ends_with(".rs") {
        return None;
    }
    if let Some(rest) = path.strip_prefix("crates/") {
        // The linter lints itself, but not its violation fixtures.
        let (krate, tail) = rest.split_once('/')?;
        return tail.starts_with("src/").then_some(krate);
    }
    if path.starts_with("src/") {
        return Some("oocnvm");
    }
    None
}

/// Walks the workspace and scans every in-scope file.
pub fn scan_workspace(root: &Path) -> std::io::Result<Report> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut file_asts = Vec::new();
    for rel in files {
        // Every file with a crate feeds the symbol index; the pass
        // reports only in scope.
        let Some(krate) = source_crate(&rel) else {
            continue;
        };
        let source = std::fs::read_to_string(root.join(&rel))?;
        file_asts.push(resolve::FileAst::parse(&rel, krate, &source));
    }
    let index = resolve::Index::build(&file_asts);
    let mut findings = units::run(&file_asts, &index, &in_scope);
    findings.sort_by(|a, b| (&a.path, a.finding.line).cmp(&(&b.path, b.finding.line)));
    Ok(Report {
        findings,
        files_scanned: file_asts.len(),
    })
}

/// Recursively collects workspace-relative `.rs` paths, skipping
/// directories that are never in scope.
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(name.as_ref(), "target" | "vendor" | ".git" | "fixtures") {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    Ok(())
}

/// The workspace this binary was built from: two levels above the
/// simlint crate's manifest, fixed at compile time so the default scan
/// does not depend on the directory it is run from.
pub fn workspace_root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .unwrap_or(manifest)
        .to_path_buf()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_classification() {
        assert_eq!(
            source_crate("crates/flashsim/src/engine.rs"),
            Some("flashsim")
        );
        assert_eq!(source_crate("crates/ssd/tests/ftl_props.rs"), None);
        assert_eq!(source_crate("crates/simlint/fixtures/bad.rs"), None);
        assert_eq!(source_crate("crates/simlint/src/lib.rs"), Some("simlint"));
        assert_eq!(source_crate("src/main.rs"), Some("oocnvm"));
        assert_eq!(source_crate("vendor/rand/src/lib.rs"), None);
        assert_eq!(source_crate("tests/extensions.rs"), None);
    }

    #[test]
    fn the_harness_is_out_of_scope() {
        assert!(in_scope("crates/flashsim/src/engine.rs"));
        assert!(in_scope("crates/ooc/src/lobpcg.rs"));
        for harness in [
            "crates/bench/src/bin/headline.rs",
            "src/main.rs",
            "vendor/rand/src/lib.rs",
        ] {
            assert!(!in_scope(harness), "{harness}");
        }
    }
}
