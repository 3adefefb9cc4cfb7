//! `simlint` — workspace-specific static analysis for the NVM simulator.
//!
//! The paper's headline comparisons (CNL vs ION bandwidth, ~10.3x
//! end-to-end speedup) rest on a cycle-accurate simulator whose runs must
//! be *bit-identical* given the same inputs. This tool enforces the
//! source-level invariants that keep it that way:
//!
//! * **no-panic** — hot paths return typed errors instead of panicking;
//! * **determinism** — no `HashMap`/`HashSet` in simulator state, no
//!   wall-clock or OS entropy inside the simulators;
//! * **unit-safety** — nanosecond/byte/energy arithmetic uses checked
//!   conversions from `nvmtypes`, not bare `as` casts;
//! * **exhaustiveness** — `match`es over media/filesystem enums list
//!   every variant, so adding a PCM mode is a compile error, not a
//!   silent fall-through;
//! * **error visibility** — no `let _ =` wildcard discards in non-test
//!   code: a swallowed `Result` is how an injected fault disappears
//!   from the reliability report;
//! * **pool discipline** — no direct `thread::spawn`: parallelism goes
//!   through the vendored work-sharing pool so `RAYON_NUM_THREADS` and
//!   the determinism contract apply (docs/PARALLELISM.md);
//! * **concurrency safety** — no `Relaxed` atomics publishing or
//!   consuming cross-thread data, and no cycles in the workspace
//!   lock-acquisition graph (docs/CONCURRENCY.md).
//!
//! Existing violations are enumerated in `simlint.allow` and may only
//! ratchet down (see [`allow`]). Run via `cargo run -p simlint`; see
//! `docs/INVARIANTS.md` for the rule catalogue and how to extend it.

#![forbid(unsafe_code)]

pub mod allow;
pub mod ast;
pub mod astrules;
pub mod concurrency;
pub mod hotpath;
pub mod lexer;
pub mod parser;
pub mod resolve;
pub mod rules;
pub mod taint;
pub mod units;

use allow::Allowlist;
use rules::{Finding, Rule};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Crates whose `src/` must stay entirely panic-free: the simulator
/// pipeline itself, and the observability layer riding on it.
/// `no_panic` findings here are *not* allowlistable.
pub const STRICT_NO_PANIC_CRATES: [&str; 8] = [
    "flashsim",
    "ssd",
    "interconnect",
    "fs",
    "ufs",
    "nvmtypes",
    "simobs",
    "simprof",
];

/// Crates where a silently-discarded `Result` (`let _ = ..`) is *not*
/// allowlistable: fault injection and recovery live here, and a swallowed
/// error is exactly how a fault vanishes from the report.
pub const STRICT_LET_UNDERSCORE_CRATES: [&str; 7] = [
    "flashsim",
    "ssd",
    "interconnect",
    "ufs",
    "core",
    "simobs",
    "simprof",
];

/// Crates where library-code printing (`println!`/`eprintln!`) is *not*
/// allowlistable: the simulator pipeline and the tracer must stay
/// silent — console output is the binaries' job.
pub const STRICT_NO_PRINTLN_CRATES: [&str; 9] = [
    "flashsim",
    "ssd",
    "interconnect",
    "fs",
    "ufs",
    "ooc",
    "core",
    "simobs",
    "simprof",
];

/// Crates whose state must iterate deterministically.
const DETERMINISM_CRATES: [&str; 10] = [
    "flashsim",
    "ssd",
    "interconnect",
    "fs",
    "ufs",
    "nvmtypes",
    "core",
    "trace",
    "simobs",
    "simprof",
];

/// Crates forbidden from consulting wall clocks or OS entropy.
const SIMULATED_TIME_CRATES: [&str; 5] = ["flashsim", "ssd", "interconnect", "simobs", "simprof"];

/// Crates doing ns/bytes/energy arithmetic, where bare `as` casts are
/// tracked and burned down.
const UNIT_MATH_CRATES: [&str; 7] = [
    "flashsim",
    "ssd",
    "interconnect",
    "fs",
    "nvmtypes",
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
    /// Allowlist entries that are not allowlistable (strict scopes).
    pub forbidden: Vec<String>,
}

impl Verdict {
    /// `true` when the workspace is clean.
    pub fn ok(&self) -> bool {
        self.violations.is_empty() && self.stale.is_empty() && self.forbidden.is_empty()
    }
}

/// Whether a workspace-relative path is *library* code: anything under
/// `src/` that is not a binary entry point (`src/bin/**` or
/// `src/main.rs`). Binaries are where printing belongs.
pub fn is_lib_path(path: &str) -> bool {
    !path.contains("/src/bin/") && !path.starts_with("src/bin/") && !path.ends_with("src/main.rs")
}

/// Which rules apply to a workspace-relative file path.
pub fn rules_for(path: &str) -> Vec<Rule> {
    let Some(krate) = source_crate(path) else {
        return Vec::new();
    };
    let mut rules = vec![
        Rule::NoPanic,
        Rule::EnumWildcard,
        Rule::LetUnderscoreResult,
        Rule::ThreadSpawn,
    ];
    if is_lib_path(path) {
        rules.push(Rule::NoPrintlnInLib);
    }
    if DETERMINISM_CRATES.contains(&krate) {
        rules.push(Rule::NondeterministicCollection);
    }
    if SIMULATED_TIME_CRATES.contains(&krate) {
        rules.push(Rule::WallClock);
    }
    if UNIT_MATH_CRATES.contains(&krate) {
        rules.push(Rule::BareCast);
    }
    // Semantic passes (computed in `scan_workspace`, which has the
    // cross-crate index). Taint covers every crate whose output feeds
    // results or traces; `bench` is exempt — env knobs and wall-clock
    // stamps are sanctioned in the harness. Units cover everything
    // doing ns/bytes/lanes arithmetic, including the out-of-core
    // algorithms that consume simulator timings.
    if DETERMINISM_CRATES.contains(&krate) || krate == "ooc" {
        rules.push(Rule::NondetTaint);
    }
    if UNIT_MATH_CRATES.contains(&krate) || matches!(krate, "core" | "trace" | "ooc") {
        rules.push(Rule::UnitMismatch);
    }
    // The concurrency passes apply everywhere: any crate can misuse an
    // atomic or invert a lock order, and the lock graph is one
    // workspace-wide artifact.
    rules.push(Rule::AtomicOrdering);
    rules.push(Rule::LockOrder);
    // The hotpath pass reports on the crates hosting the simulator's
    // event loops and everything they call (same scope as taint: the
    // determinism crates plus the out-of-core algorithms).
    if DETERMINISM_CRATES.contains(&krate) || krate == "ooc" {
        rules.push(Rule::HotPathAlloc);
    }
    rules
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
        let (krate, tail) = rest.split_once('/')?;
        if krate == "simlint" {
            // The linter lints itself, but not its violation fixtures.
            return if tail.starts_with("src/") {
                Some("simlint")
            } else {
                None
            };
        }
        return if tail.starts_with("src/") {
            Some(krate)
        } else {
            None
        };
    }
    if path.starts_with("src/") {
        return Some("oocnvm");
    }
    None
}

/// Scans one file's source text under the per-file rules for its path
/// (see [`astrules`]). The semantic passes need the whole workspace and
/// run only in [`scan_workspace`].
pub fn scan_source(path: &str, source: &str) -> Vec<Located> {
    match source_crate(path) {
        Some(krate) => file_findings(&resolve::FileAst::parse(path, krate, source)),
        None => Vec::new(),
    }
}

/// Runs the per-file rules in scope for `file.path`, in line order.
fn file_findings(file: &resolve::FileAst) -> Vec<Located> {
    let mut out = Vec::new();
    for rule in rules_for(&file.path) {
        out.extend(
            astrules::check(rule, file)
                .into_iter()
                .map(|finding| Located {
                    path: file.path.clone(),
                    finding,
                }),
        );
    }
    out.sort_by_key(|l| l.finding.line);
    out
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
        report.files_scanned += 1;
        let file = resolve::FileAst::parse(&rel, krate, &source);
        for located in file_findings(&file) {
            *report
                .counts
                .entry((located.finding.rule, located.path.clone()))
                .or_insert(0) += 1;
            report.findings.push(located);
        }
        file_asts.push(file);
    }
    // Semantic passes: workspace-wide dataflow over the symbol index.
    let index = resolve::Index::build(&file_asts);
    let taint_scope = |p: &str| rules_for(p).contains(&Rule::NondetTaint);
    let unit_scope = |p: &str| rules_for(p).contains(&Rule::UnitMismatch);
    let atomic_scope = |p: &str| rules_for(p).contains(&Rule::AtomicOrdering);
    let lock_scope = |p: &str| rules_for(p).contains(&Rule::LockOrder);
    let hot_scope = |p: &str| rules_for(p).contains(&Rule::HotPathAlloc);
    let hot = hotpath::run(&file_asts, &index, &hot_scope);
    report.hot_sites = hot.sites;
    report.hot_fns = hot.hot_fns;
    for located in taint::run(&file_asts, &index, &taint_scope)
        .into_iter()
        .chain(units::run(&file_asts, &index, &unit_scope))
        .chain(concurrency::run(
            &file_asts,
            &index,
            &atomic_scope,
            &lock_scope,
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

/// Checks a report against the allowlist, applying strict-scope policy.
pub fn check(report: &Report, allow: &Allowlist) -> Verdict {
    let mut verdict = Verdict::default();
    // Forbidden allowlist entries: rules with a strict scope cannot be
    // excused inside it.
    for (rule, path, count) in allow.iter() {
        // The semantic passes are never allowlistable anywhere: a
        // nondeterministic result, a cross-unit sum, an unsynchronized
        // publication, or a lock-order cycle is a bug, not debt to be
        // tracked.
        if matches!(
            rule,
            Rule::NondetTaint | Rule::UnitMismatch | Rule::AtomicOrdering | Rule::LockOrder
        ) {
            verdict.forbidden.push(format!(
                "{path}: `{}` is never allowlistable ({count} entries)",
                rule.id()
            ));
        }
        let strict_scope: &[&str] = match rule {
            Rule::NoPanic => &STRICT_NO_PANIC_CRATES,
            Rule::LetUnderscoreResult => &STRICT_LET_UNDERSCORE_CRATES,
            Rule::NoPrintlnInLib => &STRICT_NO_PRINTLN_CRATES,
            _ => &[],
        };
        if let Some(krate) = source_crate(path) {
            if strict_scope.contains(&krate) {
                verdict.forbidden.push(format!(
                    "{path}: `{}` is not allowlistable in strict crate `{krate}` ({count} entries)",
                    rule.id()
                ));
            }
        }
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

/// Locates the workspace root from the simlint crate's own manifest dir.
pub fn workspace_root() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| String::from("."));
    let p = PathBuf::from(manifest);
    // crates/simlint -> workspace root.
    p.parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(p)
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
        let fs = rules_for("crates/flashsim/src/engine.rs");
        assert!(fs.contains(&Rule::WallClock) && fs.contains(&Rule::BareCast));
        let ooc = rules_for("crates/ooc/src/lobpcg.rs");
        assert!(ooc.contains(&Rule::NoPanic) && !ooc.contains(&Rule::WallClock));
        assert!(!ooc.contains(&Rule::BareCast));
        assert!(rules_for("vendor/rand/src/lib.rs").is_empty());
        // Printing: library code is covered, binary entry points are not.
        assert!(fs.contains(&Rule::NoPrintlnInLib));
        assert!(ooc.contains(&Rule::NoPrintlnInLib));
        let bin = rules_for("crates/bench/src/bin/headline.rs");
        assert!(bin.contains(&Rule::NoPanic) && !bin.contains(&Rule::NoPrintlnInLib));
        assert!(!rules_for("src/bin/obsreport.rs").contains(&Rule::NoPrintlnInLib));
        assert!(!rules_for("src/main.rs").contains(&Rule::NoPrintlnInLib));
        assert!(!rules_for("crates/simlint/src/main.rs").contains(&Rule::NoPrintlnInLib));
    }

    #[test]
    fn check_flags_violation_stale_and_forbidden() {
        let mut report = Report::default();
        report
            .counts
            .insert((Rule::BareCast, "crates/ssd/src/ftl.rs".into()), 2);
        let allow = Allowlist::parse(
            "bare_cast crates/ssd/src/ftl.rs 5\nno_panic crates/flashsim/src/engine.rs 1\n",
        )
        .expect("parses");
        let v = check(&report, &allow);
        assert_eq!(v.stale.len(), 2, "over-granted cast + clean no_panic file");
        assert_eq!(v.forbidden.len(), 1, "strict-crate no_panic entry");
        assert!(v.violations.is_empty());
        assert!(!v.ok());
    }
}
