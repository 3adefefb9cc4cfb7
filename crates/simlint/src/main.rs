//! CLI for `simlint`.
//!
//! ```text
//! cargo run -p simlint                 # gate: scan + check allowlist
//! cargo run -p simlint -- --list       # print every finding (allowed too)
//! cargo run -p simlint -- --json       # versioned findings export to stdout
//! cargo run -p simlint -- --baseline F # gate + diff against a committed baseline
//! cargo run -p simlint -- --write-baseline  # regenerate results/simlint.baseline.json
//! cargo run -p simlint -- --write-allow  # regenerate simlint.allow
//! cargo run -p simlint -- --root DIR   # scan a different tree
//! ```
//!
//! The JSON export (schema `oocnvm.simlint/4`; v2 added the
//! concurrency passes, v3 the interprocedural `hotpath` pass and its
//! per-crate allocation-site inventory, v4 dropped the rules that moved
//! to clippy) carries per-`(rule, path)` finding counts plus the
//! allowlist total and a `hotpath` section; the baseline diff fails on
//! any growth (new `(rule, path)` pairs, higher counts, a larger
//! allowlist, or more hot-path allocation sites per crate) and treats
//! shrinkage as an advisory to refresh the baseline. `--write-baseline`
//! writes only what the diff reads — the counts, the allowlist total
//! and the per-crate hot-path inventory — so unrelated edits (a moved
//! line, a new file) don't churn the committed file; any `--json`
//! export is a valid baseline too.
//!
//! `--json` changes only where output goes: the export owns stdout,
//! the summary and the diff go to stderr, and violations, stale
//! entries, unresolved hot roots and baseline regressions fail the exit
//! code exactly as in a plain run.
//!
//! Without `--root` the scan covers the workspace the binary was built
//! from, wherever it is run.
//!
//! Exit codes: 0 clean, 1 violations, stale entries or baseline
//! regressions, 2 usage or I/O errors, or a tree with no in-scope
//! source file.

use simlint::allow::Allowlist;
use simlint::hotpath::Severity;
use simlint::rules::Rule;
use simlint::Report;
use simobs::json::{self, Json};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// Schema tag for the findings export.
const SCHEMA: &str = "oocnvm.simlint/4";

/// Workspace-relative path of the committed baseline.
const BASELINE_PATH: &str = "results/simlint.baseline.json";

struct Options {
    root: PathBuf,
    write_allow: bool,
    list: bool,
    json: bool,
    baseline: Option<PathBuf>,
    write_baseline: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        root: simlint::workspace_root(),
        write_allow: false,
        list: false,
        json: false,
        baseline: None,
        write_baseline: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                let dir = args.next().ok_or("--root needs a directory")?;
                opts.root = PathBuf::from(dir);
            }
            "--write-allow" => opts.write_allow = true,
            "--list" => opts.list = true,
            "--json" => opts.json = true,
            "--baseline" => {
                let file = args.next().ok_or("--baseline needs a file")?;
                opts.baseline = Some(PathBuf::from(file));
            }
            "--write-baseline" => opts.write_baseline = true,
            "--help" | "-h" => {
                return Err(String::from(
                    "usage: simlint [--root DIR] [--list] [--json] [--baseline FILE] \
                     [--write-baseline] [--write-allow]",
                ))
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

/// Builds the versioned findings export document: the baseline fields
/// plus every finding, every hot-path site and the scan totals.
fn export(report: &Report, allow: &Allowlist) -> String {
    let findings = Json::Arr(
        report
            .findings
            .iter()
            .map(|l| {
                Json::obj()
                    .field("rule", Json::str(l.finding.rule.id()))
                    .field("path", Json::str(&l.path))
                    .field("line", Json::u64(l.finding.line as u64))
                    .field("col", Json::u64(l.finding.col as u64))
                    .field("message", Json::str(&l.finding.message))
            })
            .collect(),
    );
    let sites = Json::Arr(
        report
            .hot_sites
            .iter()
            .map(|s| {
                Json::obj()
                    .field("crate", Json::str(&s.krate))
                    .field("path", Json::str(&s.path))
                    .field("fn", Json::str(&s.fn_path))
                    .field("line", Json::u64(s.line as u64))
                    .field("col", Json::u64(s.col as u64))
                    .field("kind", Json::str(s.kind))
                    .field("severity", Json::str(s.severity.id()))
            })
            .collect(),
    );
    let roots = simlint::hotpath::HOT_ROOTS.iter().map(|r| Json::str(r));
    let hotpath = Json::obj()
        .field("roots", Json::Arr(roots.collect()))
        .field("hot_fns", Json::u64(report.hot_fns as u64))
        .field("crates", inventory_json(report))
        .field("sites", sites);
    let payload = Json::obj()
        .field("files_scanned", Json::u64(report.files_scanned as u64))
        .field("allow_total", Json::u64(allow_total(allow)))
        .field("counts", counts_json(report))
        .field("findings", findings)
        .field("hotpath", hotpath);
    json::report(SCHEMA, payload)
}

/// Builds the baseline document: exactly the fields [`diff_baseline`]
/// reads.
fn baseline(report: &Report, allow: &Allowlist) -> String {
    let payload = Json::obj()
        .field("allow_total", Json::u64(allow_total(allow)))
        .field("counts", counts_json(report))
        .field(
            "hotpath",
            Json::obj().field("crates", inventory_json(report)),
        );
    json::report(SCHEMA, payload)
}

/// Per-`(rule, path)` finding counts.
fn counts_json(report: &Report) -> Json {
    Json::Arr(
        report
            .counts
            .iter()
            .map(|((rule, path), count)| {
                Json::obj()
                    .field("rule", Json::str(rule.id()))
                    .field("path", Json::str(path))
                    .field("count", Json::u64(*count as u64))
            })
            .collect(),
    )
}

/// Hot-path allocation sites per crate: `(per_event, per_run)`, the
/// ratcheted quantity.
fn inventory(report: &Report) -> BTreeMap<String, (u64, u64)> {
    let mut per_crate: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for site in &report.hot_sites {
        let entry = per_crate.entry(site.krate.clone()).or_insert((0, 0));
        match site.severity {
            Severity::PerEvent => entry.0 += 1,
            Severity::PerRun => entry.1 += 1,
        }
    }
    per_crate
}

fn inventory_json(report: &Report) -> Json {
    Json::Arr(
        inventory(report)
            .iter()
            .map(|(krate, (per_event, per_run))| {
                Json::obj()
                    .field("crate", Json::str(krate))
                    .field("per_event", Json::u64(*per_event))
                    .field("per_run", Json::u64(*per_run))
            })
            .collect(),
    )
}

/// Total violations granted by the allowlist (the ratchet quantity).
fn allow_total(allow: &Allowlist) -> u64 {
    allow.iter().map(|(_, _, count)| count as u64).sum()
}

/// Result of diffing a scan against a committed baseline.
#[derive(Debug, Default)]
struct BaselineDiff {
    /// Growth: new `(rule, path)` pairs, higher counts, allowlist growth.
    regressions: Vec<String>,
    /// Shrinkage: the baseline can be ratcheted down.
    improvements: Vec<String>,
}

/// Parses a baseline export and compares: any growth is a regression.
fn diff_baseline(text: &str, report: &Report, allow: &Allowlist) -> Result<BaselineDiff, String> {
    let doc = json::parse(text).map_err(|e| format!("malformed baseline: {e}"))?;
    match doc.get("format") {
        Some(Json::Str(s)) if s == SCHEMA => {}
        other => return Err(format!("baseline schema is {other:?}, expected {SCHEMA:?}")),
    }
    let mut base: BTreeMap<(String, String), u64> = BTreeMap::new();
    if let Some(Json::Arr(items)) = doc.get("counts") {
        for item in items {
            let (Some(Json::Str(rule)), Some(Json::Str(path)), Some(Json::Num(count))) =
                (item.get("rule"), item.get("path"), item.get("count"))
            else {
                return Err("baseline count entry missing rule/path/count".to_string());
            };
            let count: u64 = count
                .parse()
                .map_err(|_| format!("non-integer count {count:?} in baseline"))?;
            base.insert((rule.clone(), path.clone()), count);
        }
    }
    let mut diff = BaselineDiff::default();
    let mut current: BTreeMap<(String, String), u64> = BTreeMap::new();
    for ((rule, path), count) in &report.counts {
        current.insert((rule.id().to_string(), path.clone()), *count as u64);
    }
    for (key, &count) in &current {
        let allowed = base.get(key).copied().unwrap_or(0);
        if count > allowed {
            let (rule, path) = key;
            diff.regressions.push(format!(
                "{path}: {count} `{rule}` finding(s), baseline has {allowed}"
            ));
        }
    }
    for (key, &allowed) in &base {
        let count = current.get(key).copied().unwrap_or(0);
        if count < allowed {
            let (rule, path) = key;
            diff.improvements.push(format!(
                "{path}: `{rule}` down to {count} from {allowed} — refresh with --write-baseline"
            ));
        }
    }
    let base_allow = match doc.get("allow_total") {
        Some(Json::Num(n)) => n
            .parse::<u64>()
            .map_err(|_| format!("non-integer allow_total {n:?} in baseline"))?,
        _ => return Err("baseline is missing allow_total".to_string()),
    };
    let now_allow = allow_total(allow);
    if now_allow > base_allow {
        diff.regressions.push(format!(
            "simlint.allow grants {now_allow} findings, baseline has {base_allow} — the allowlist only ratchets down"
        ));
    } else if now_allow < base_allow {
        diff.improvements.push(format!(
            "simlint.allow down to {now_allow} from {base_allow} — refresh with --write-baseline"
        ));
    }
    // Hot-path inventory ratchet.
    let mut base_inv: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    let Some(Json::Arr(items)) = doc.get("hotpath").and_then(|hp| hp.get("crates")) else {
        return Err("baseline is missing hotpath.crates".to_string());
    };
    for item in items {
        let (Some(Json::Str(krate)), Some(Json::Num(pe)), Some(Json::Num(pr))) = (
            item.get("crate"),
            item.get("per_event"),
            item.get("per_run"),
        ) else {
            return Err("baseline hotpath entry missing crate/per_event/per_run".into());
        };
        let pe: u64 = pe
            .parse()
            .map_err(|_| format!("non-integer per_event {pe:?} in baseline"))?;
        let pr: u64 = pr
            .parse()
            .map_err(|_| format!("non-integer per_run {pr:?} in baseline"))?;
        base_inv.insert(krate.clone(), (pe, pr));
    }
    let now_inv = inventory(report);
    let crates: std::collections::BTreeSet<&String> =
        base_inv.keys().chain(now_inv.keys()).collect();
    for krate in crates {
        let (base_pe, base_pr) = base_inv.get(krate).copied().unwrap_or((0, 0));
        let (now_pe, now_pr) = now_inv.get(krate).copied().unwrap_or((0, 0));
        if now_pe > base_pe || now_pr > base_pr {
            diff.regressions.push(format!(
                "crate `{krate}`: hot-path allocation inventory grew to \
                 {now_pe} per-event / {now_pr} per-run site(s), baseline has \
                 {base_pe} / {base_pr} — hoist the buffer (docs/STATIC_ANALYSIS.md)"
            ));
        } else if now_pe < base_pe || now_pr < base_pr {
            diff.improvements.push(format!(
                "crate `{krate}`: hot-path inventory down to {now_pe} per-event / \
                 {now_pr} per-run from {base_pe} / {base_pr} — refresh with --write-baseline"
            ));
        }
    }
    Ok(diff)
}

/// Reads and diffs a committed baseline; messages go to stderr when
/// `quiet_stdout` (the `--json` export owns stdout). Returns `true`
/// when regressions were found, `Err` with an exit code on I/O or
/// parse failure.
fn run_baseline_diff(
    baseline: &std::path::Path,
    report: &Report,
    allow: &Allowlist,
    quiet_stdout: bool,
) -> Result<bool, ExitCode> {
    let text = match std::fs::read_to_string(baseline) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("simlint: cannot read {}: {e}", baseline.display());
            return Err(ExitCode::from(2));
        }
    };
    let diff = match diff_baseline(&text, report, allow) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("simlint: {}: {e}", baseline.display());
            return Err(ExitCode::from(2));
        }
    };
    for r in &diff.regressions {
        eprintln!("simlint: baseline regression: {r}");
    }
    for i in &diff.improvements {
        say(quiet_stdout, &format!("simlint: baseline improvement: {i}"));
    }
    if diff.regressions.is_empty() {
        say(
            quiet_stdout,
            &format!("simlint: no regressions against {}", baseline.display()),
        );
    }
    Ok(!diff.regressions.is_empty())
}

/// Prints a status line to stdout, or to stderr when a `--json` export
/// owns stdout.
fn say(quiet_stdout: bool, msg: &str) {
    if quiet_stdout {
        eprintln!("{msg}");
    } else {
        println!("{msg}");
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    let report = match simlint::scan_workspace(&opts.root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("simlint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };

    if report.files_scanned == 0 {
        eprintln!(
            "simlint: no in-scope source file under {}",
            opts.root.display()
        );
        return ExitCode::from(2);
    }

    let allow_path = opts.root.join("simlint.allow");
    if opts.write_allow {
        let allow = Allowlist::from_counts(&report.counts);
        if let Err(e) = std::fs::write(&allow_path, allow.render()) {
            eprintln!("simlint: cannot write {}: {e}", allow_path.display());
            return ExitCode::from(2);
        }
        println!(
            "simlint: wrote {} from current findings",
            allow_path.display()
        );
        return ExitCode::SUCCESS;
    }

    let allow = match std::fs::read_to_string(&allow_path) {
        Ok(text) => match Allowlist::parse(&text) {
            Ok(a) => a,
            Err(e) => {
                eprintln!(
                    "simlint: {}:{}: {}",
                    allow_path.display(),
                    e.line,
                    e.message
                );
                return ExitCode::from(2);
            }
        },
        Err(_) => Allowlist::default(),
    };

    if opts.write_baseline {
        let path = opts.root.join(BASELINE_PATH);
        if let Err(e) = std::fs::write(&path, baseline(&report, &allow) + "\n") {
            eprintln!("simlint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("simlint: wrote {} from current findings", path.display());
        return ExitCode::SUCCESS;
    }

    if opts.json {
        println!("{}", export(&report, &allow));
    } else if opts.list {
        for l in &report.findings {
            println!(
                "{}:{}:{}: [{}] {}",
                l.path,
                l.finding.line,
                l.finding.col,
                l.finding.rule.id(),
                l.finding.message
            );
        }
    }

    let verdict = simlint::check(&report, &allow);
    say(
        opts.json,
        &format!(
            "simlint: scanned {} files; findings by rule:",
            report.files_scanned
        ),
    );
    for rule in Rule::ALL {
        say(
            opts.json,
            &format!(
                "  {:<28} {:>4} found / {:>4} allowed",
                rule.id(),
                report.total(rule),
                allow.total(rule)
            ),
        );
    }

    let mut failed = false;
    if let Some(baseline) = &opts.baseline {
        match run_baseline_diff(baseline, &report, &allow, opts.json) {
            Ok(regressed) => failed = regressed,
            Err(code) => return code,
        }
    }

    if verdict.ok() && !failed {
        say(
            opts.json,
            "simlint: clean (all findings within the burn-down allowlist)",
        );
        return ExitCode::SUCCESS;
    }
    for v in &verdict.violations {
        eprintln!("simlint: violation: {v}");
    }
    for s in &verdict.stale {
        eprintln!("simlint: stale allowlist entry: {s}");
    }
    for r in &verdict.unresolved_roots {
        eprintln!("simlint: unresolved hot root: {r}");
    }
    if !verdict.ok() {
        eprintln!(
            "simlint: FAILED — {} violation(s), {} stale, {} unresolved hot root(s)",
            verdict.violations.len(),
            verdict.stale.len(),
            verdict.unresolved_roots.len()
        );
    }
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-crate hot-path inventory ratchets: growth in either
    /// the per-event or per-run site count of any crate is a
    /// regression, shrinkage an improvement.
    #[test]
    fn hotpath_inventory_growth_is_a_regression() {
        let v4 = concat!(
            "{\"format\":\"oocnvm.simlint/4\",\"allow_total\":0,\"counts\":[],",
            "\"hotpath\":{\"crates\":[{\"crate\":\"ssd\",\"per_event\":0,\"per_run\":1}]}}"
        );
        let site = |severity| simlint::hotpath::Site {
            path: "crates/ssd/src/mapping.rs".into(),
            krate: "ssd".into(),
            fn_path: "ssd::mapping::StripeMap::decompose".into(),
            line: 136,
            col: 9,
            kind: "Vec::new",
            severity,
        };
        let mut report = Report::default();
        report.hot_sites.push(site(Severity::PerRun));
        let diff = diff_baseline(v4, &report, &Allowlist::default()).expect("v4 baseline parses");
        assert!(diff.regressions.is_empty(), "{:?}", diff.regressions);
        // A new per-event site in the same crate regresses the ratchet.
        report.hot_sites.push(site(Severity::PerEvent));
        let diff = diff_baseline(v4, &report, &Allowlist::default()).expect("v4 baseline parses");
        assert_eq!(diff.regressions.len(), 1, "{:?}", diff.regressions);
        assert!(diff.regressions[0].contains("hot-path allocation inventory grew"));
        // Dropping below the baseline is an improvement prompt.
        report.hot_sites.clear();
        let diff = diff_baseline(v4, &report, &Allowlist::default()).expect("v4 baseline parses");
        assert!(diff.regressions.is_empty(), "{:?}", diff.regressions);
        assert_eq!(diff.improvements.len(), 1, "{:?}", diff.improvements);
        assert!(diff.improvements[0].contains("down to 0 per-event / 0 per-run"));
    }

    /// Both the baseline and the full export are valid baselines for the
    /// scan they came from: diffed against that same scan they report
    /// nothing; one planted new finding, or one extra per-event hot
    /// site, is exactly one regression.
    #[test]
    fn baseline_and_export_round_trip_through_the_diff() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/ws");
        let report = simlint::scan_workspace(&root).expect("fixture corpus scans");
        let allow = Allowlist::from_counts(&report.counts);
        assert!(!report.counts.is_empty() && !report.hot_sites.is_empty());
        let written = baseline(&report, &allow);
        for line in [
            "\"findings\"",
            "\"line\"",
            "\"files_scanned\"",
            "\"hot_fns\"",
        ] {
            assert!(!written.contains(line), "{line} is not diffed: {written}");
        }
        for doc in [written, export(&report, &allow)] {
            let diff = diff_baseline(&doc, &report, &allow).expect("parses as a baseline");
            assert!(diff.regressions.is_empty(), "{:?}", diff.regressions);
            assert!(diff.improvements.is_empty(), "{:?}", diff.improvements);

            let mut planted = report.clone();
            *planted
                .counts
                .entry((Rule::UnitMismatch, "crates/ssd/src/device.rs".into()))
                .or_insert(0) += 1;
            let diff = diff_baseline(&doc, &planted, &allow).expect("parses as a baseline");
            assert_eq!(diff.regressions.len(), 1, "{:?}", diff.regressions);
            assert!(diff.regressions[0].contains("`unit_mismatch`"));

            let mut planted = report.clone();
            let mut extra = planted.hot_sites[0].clone();
            extra.severity = Severity::PerEvent;
            planted.hot_sites.push(extra);
            let diff = diff_baseline(&doc, &planted, &allow).expect("parses as a baseline");
            assert_eq!(diff.regressions.len(), 1, "{:?}", diff.regressions);
            assert!(diff.regressions[0].contains("hot-path allocation inventory grew"));
            assert!(diff.improvements.is_empty(), "{:?}", diff.improvements);
        }
    }

    /// Any other schema is rejected, naming the accepted tag.
    #[test]
    fn unknown_baseline_schemas_are_rejected() {
        for tag in ["oocnvm.simlint/3", "oocnvm.simlint/99"] {
            let doc = format!("{{\"format\":\"{tag}\",\"allow_total\":0,\"counts\":[]}}");
            let err = diff_baseline(&doc, &Report::default(), &Allowlist::default())
                .expect_err("only the current schema is read");
            assert!(err.contains("oocnvm.simlint/4"), "{err}");
        }
    }
}
