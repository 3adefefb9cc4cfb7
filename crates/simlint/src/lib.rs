//! `simlint` — the semantic half of the NVM simulator's source
//! invariants.
//!
//! The paper's headline comparisons (CNL vs ION bandwidth, ~10.3x
//! end-to-end speedup) rest on a cycle-accurate simulator whose runs must
//! be *bit-identical* given the same inputs. The syntactic invariants
//! that keep them so — no panics, no bare `as` casts, exhaustive
//! matches, no `let _ =`, no library printing, no ad-hoc threads or
//! atomics, and no source of a value that differs between two runs
//! (wall clock, hash order, OS entropy, environment reads, addresses)
//! — are clippy lints, set in each crate's `[lints]` table and in
//! `crates/clippy.toml` (docs/INVARIANTS.md). simlint keeps the three
//! checks clippy cannot express, each a pass over the parsed sources of
//! the whole workspace:
//!
//! * **`unit_mismatch`** — ns, bytes and lanes never meet in one sum,
//!   comparison or argument ([`units`]);
//! * **`lock_order`** — the workspace lock-acquisition graph has no
//!   cycle (docs/CONCURRENCY.md, [`concurrency`]);
//! * **`hotpath_alloc`** — no fresh allocation runs once per simulated
//!   event (docs/STATIC_ANALYSIS.md, [`hotpath`]).
//!
//! The first two carry no budget. Audited `hotpath_alloc` sites are
//! enumerated in `simlint.allow` and may only ratchet down (see
//! [`allow`]). Run via `cargo run -p simlint`.

#![forbid(unsafe_code)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod allow;
pub mod ast;
pub mod concurrency;
pub mod hotpath;
pub mod lexer;
pub mod parser;
pub mod resolve;
pub mod rules;
pub mod units;

use allow::Allowlist;
use rules::{Finding, Rule};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Crates whose output feeds results or traces: the scope of the unit
/// and hot-path passes. `bench`, `simlint` and the root package's
/// CLI are the harness around them.
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
    /// Per-`(rule, path)` counts.
    pub counts: BTreeMap<(Rule, String), usize>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Hot-path allocation-site inventory (both severities), from the
    /// interprocedural hotpath pass.
    pub hot_sites: Vec<hotpath::Site>,
    /// Number of hot-reachable functions in the call graph.
    pub hot_fns: usize,
    /// Declared hot roots ([`hotpath::HOT_ROOTS`]) that name no function
    /// of the scanned tree.
    pub unresolved_roots: Vec<String>,
}

impl Report {
    /// Total findings for one rule.
    pub fn total(&self, rule: Rule) -> usize {
        self.counts
            .iter()
            .filter(|((r, _), _)| *r == rule)
            .map(|(_, c)| c)
            .sum()
    }
}

/// Outcome of checking a [`Report`] against an [`Allowlist`].
#[derive(Debug, Default)]
pub struct Verdict {
    /// Findings exceeding their allowance, with the excess count.
    pub violations: Vec<String>,
    /// Allowlist entries exceeding reality (must ratchet down).
    pub stale: Vec<String>,
    /// Hot roots that name no function: the hot-path pass would
    /// silently cover less than it declares.
    pub unresolved_roots: Vec<String>,
}

impl Verdict {
    /// `true` when the workspace is clean.
    pub fn ok(&self) -> bool {
        self.violations.is_empty() && self.stale.is_empty() && self.unresolved_roots.is_empty()
    }
}

/// Whether `rule` reports findings in a workspace-relative file path.
/// Any crate can invert a lock order, and the lock graph is one
/// workspace-wide artifact; the other passes cover [`SIM_CRATES`].
pub fn in_scope(rule: Rule, path: &str) -> bool {
    source_crate(path).is_some_and(|krate| rule == Rule::LockOrder || SIM_CRATES.contains(&krate))
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
    let mut report = Report::default();
    let mut file_asts = Vec::new();
    for rel in files {
        // Exactly the paths with a crate have rules in scope.
        let Some(krate) = source_crate(&rel) else {
            continue;
        };
        let source = std::fs::read_to_string(root.join(&rel))?;
        file_asts.push(resolve::FileAst::parse(&rel, krate, &source));
    }
    report.files_scanned = file_asts.len();
    // Every pass is workspace-wide dataflow over the symbol index.
    let index = resolve::Index::build(&file_asts);
    let scope = |rule| move |p: &str| in_scope(rule, p);
    let hot = hotpath::run(&file_asts, &index, &scope(Rule::HotPathAlloc));
    report.hot_sites = hot.sites;
    report.hot_fns = hot.hot_fns;
    report.unresolved_roots = hot.unresolved_roots;
    for located in units::run(&file_asts, &index, &scope(Rule::UnitMismatch))
        .into_iter()
        .chain(concurrency::run(
            &file_asts,
            &index,
            &scope(Rule::LockOrder),
        ))
        .chain(hot.findings)
    {
        *report
            .counts
            .entry((located.finding.rule, located.path.clone()))
            .or_insert(0) += 1;
        report.findings.push(located);
    }
    report
        .findings
        .sort_by(|a, b| (&a.path, a.finding.line).cmp(&(&b.path, b.finding.line)));
    Ok(report)
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

/// Checks a report against the allowlist.
pub fn check(report: &Report, allow: &Allowlist) -> Verdict {
    let mut verdict = Verdict {
        unresolved_roots: report
            .unresolved_roots
            .iter()
            .map(|root| {
                format!(
                    "hot root `{root}` names no function in the scanned tree — update `hotpath::HOT_ROOTS` to the function's current path"
                )
            })
            .collect(),
        ..Verdict::default()
    };
    for (rule, path, count) in allow.iter() {
        // Stale: allowance exceeds reality (including files now clean).
        let actual = report
            .counts
            .get(&(rule, path.to_string()))
            .copied()
            .unwrap_or(0);
        if count > actual {
            verdict.stale.push(format!(
                "{path}: allowlist grants {count} `{}` but only {actual} remain — ratchet it down",
                rule.id()
            ));
        }
    }
    // Violations: reality exceeds allowance.
    for ((rule, path), &actual) in &report.counts {
        let allowed = allow.allowed(*rule, path);
        if actual > allowed {
            let detail: Vec<String> = report
                .findings
                .iter()
                .filter(|l| l.finding.rule == *rule && &l.path == path)
                .map(|l| format!("  {}:{}: {}", l.path, l.finding.line, l.finding.message))
                .collect();
            verdict.violations.push(format!(
                "{path}: {actual} `{}` finding(s), {allowed} allowed:\n{}",
                rule.id(),
                detail.join("\n")
            ));
        }
    }
    verdict
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
    fn rule_scoping_follows_crate_role() {
        for rule in Rule::ALL {
            assert!(in_scope(rule, "crates/flashsim/src/engine.rs"));
            assert!(in_scope(rule, "crates/ooc/src/lobpcg.rs"));
            assert!(!in_scope(rule, "vendor/rand/src/lib.rs"));
            // The harness is in the lock graph only.
            for harness in ["crates/bench/src/bin/headline.rs", "src/main.rs"] {
                assert_eq!(in_scope(rule, harness), rule == Rule::LockOrder);
            }
        }
    }

    #[test]
    fn an_unresolved_hot_root_fails_the_check() {
        let report = Report {
            unresolved_roots: vec![String::from("ssd::qos::SsdDevice::serv")],
            ..Report::default()
        };
        let v = check(&report, &Allowlist::default());
        assert!(!v.ok());
        assert_eq!(v.unresolved_roots.len(), 1, "{:?}", v.unresolved_roots);
        assert!(v.unresolved_roots[0].contains("`ssd::qos::SsdDevice::serv`"));
    }

    #[test]
    fn check_flags_violation_and_stale() {
        let mut report = Report::default();
        let path = || String::from("crates/ufs/src/fs.rs");
        report.counts.insert((Rule::HotPathAlloc, path()), 2);
        report.counts.insert((Rule::LockOrder, path()), 1);
        let allow = Allowlist::parse("hotpath_alloc crates/ufs/src/fs.rs 5\n").expect("parses");
        let v = check(&report, &allow);
        assert_eq!(v.stale.len(), 1, "over-granted hot-path entry");
        assert_eq!(
            v.violations.len(),
            1,
            "the lock_order finding has no allowance"
        );
        assert!(!v.ok());
    }
}
