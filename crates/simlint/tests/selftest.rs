//! Self-tests for the `simlint` gate.
//!
//! Four layers:
//!
//! 1. **Fixture corpus** (`fixtures/ws/`): a miniature workspace whose
//!    files each trigger specific rules. The scanner must find exactly
//!    the planted violations — no more (negative cases: test code,
//!    comments, strings, word boundaries, out-of-scope crates).
//! 2. **Structure and dataflow**: the core fixture plants violations no
//!    substring scan of single lines can see (multiline tokens, aliased
//!    imports, cross-function dataflow, cross-crate unit contracts);
//!    the AST rules and the semantic passes must catch every one, at
//!    its pinned line.
//! 3. **Gate behaviour**: the `simlint` binary must exit nonzero on the
//!    fixture corpus and clean on the real workspace.
//! 4. **Ratchet**: `simlint.allow` may only burn down — totals are
//!    pinned strictly below the seed baselines, strict-crate `no_panic`
//!    entries are rejected outright, and the semantic passes carry no
//!    budget at all.

use simlint::allow::Allowlist;
use simlint::rules::Rule;
use simlint::{
    check, scan_source, scan_workspace, source_crate, STRICT_LET_UNDERSCORE_CRATES,
    STRICT_NO_PANIC_CRATES, STRICT_NO_PRINTLN_CRATES,
};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Seed-baseline `no_panic` count; the allowlist burned this down to
/// zero, and it must stay there.
const SEED_NO_PANIC: usize = 86;
/// Seed-baseline `bare_cast` count; the allowlist must stay strictly
/// below it.
const SEED_BARE_CAST: usize = 256;

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/ws")
}

fn real_root() -> PathBuf {
    simlint::workspace_root()
}

#[test]
fn fixture_corpus_triggers_every_rule_exactly() {
    let report = scan_workspace(&fixture_root()).expect("fixture scan");
    assert_eq!(report.files_scanned, 6, "fixture corpus shape changed");
    // Strict-crate panics and clocks (flashsim fixture).
    assert_eq!(
        report
            .counts
            .get(&(Rule::NoPanic, "crates/flashsim/src/lib.rs".into())),
        Some(&3),
        "unwrap + expect + panic! in non-test code; test-module unwrap exempt"
    );
    assert_eq!(
        report
            .counts
            .get(&(Rule::WallClock, "crates/flashsim/src/lib.rs".into())),
        Some(&2),
        "Instant::now + SystemTime"
    );
    // Determinism and unit-safety (ssd fixture).
    assert_eq!(
        report.counts.get(&(
            Rule::NondeterministicCollection,
            "crates/ssd/src/lib.rs".into()
        )),
        Some(&2),
        "HashMap + HashSet; LinkedHashMapLike must not fire"
    );
    assert_eq!(
        report
            .counts
            .get(&(Rule::BareCast, "crates/ssd/src/lib.rs".into())),
        Some(&2),
        "two real casts; comment/string casts must not fire"
    );
    // Strict-crate Result discard (flashsim fixture): the SystemTime
    // line fires wall_clock AND let_underscore_result; the test-module
    // discard is exempt.
    assert_eq!(
        report.counts.get(&(
            Rule::LetUnderscoreResult,
            "crates/flashsim/src/lib.rs".into()
        )),
        Some(&1)
    );
    // Library printing (flashsim fixture): the println and the eprintln,
    // each once — comment/string/test occurrences exempt, and the
    // `println!(` inside `eprintln!(` must not double-count.
    assert_eq!(
        report
            .counts
            .get(&(Rule::NoPrintlnInLib, "crates/flashsim/src/lib.rs".into())),
        Some(&2)
    );
    // The binary entry point prints freely: the rule is lib-only.
    assert_eq!(
        report
            .counts
            .get(&(Rule::NoPrintlnInLib, "src/main.rs".into())),
        None
    );
    // Permissive-crate panic (ooc fixture) — counted, but allowlistable.
    assert_eq!(
        report
            .counts
            .get(&(Rule::NoPanic, "crates/ooc/src/lib.rs".into())),
        Some(&1)
    );
    // Permissive-crate discard (ooc fixture): the bare `let _ =` only —
    // `_guard` and the typed `let _: u32` are deliberate, not counted.
    assert_eq!(
        report
            .counts
            .get(&(Rule::LetUnderscoreResult, "crates/ooc/src/lib.rs".into())),
        Some(&1)
    );
    // Pool discipline (ooc fixture): the direct spawn only — the scoped
    // `s.spawn` must not be counted.
    assert_eq!(
        report
            .counts
            .get(&(Rule::ThreadSpawn, "crates/ooc/src/lib.rs".into())),
        Some(&1)
    );
    // AST-only classics (core fixture): the multiline `.unwrap\n()` and
    // the `use`-aliased spawn (see
    // `core_fixture_is_caught_by_ast_rules_and_semantic_passes`).
    assert_eq!(
        report
            .counts
            .get(&(Rule::NoPanic, "crates/core/src/lib.rs".into())),
        Some(&1),
        "the unwrap split across lines"
    );
    assert_eq!(
        report
            .counts
            .get(&(Rule::ThreadSpawn, "crates/core/src/lib.rs".into())),
        Some(&1),
        "the aliased spawn call"
    );
    // Taint pass: wall clocks reaching pub returns in the flashsim and
    // ooc fixtures, plus the three planted flows in the core fixture
    // (SystemTime via a local, env::var across a private fn, and a
    // tainted Tracer::count argument).
    assert_eq!(
        report
            .counts
            .get(&(Rule::NondetTaint, "crates/flashsim/src/lib.rs".into())),
        Some(&1),
        "Instant::now returned from `pub fn wall_clock_read`"
    );
    assert_eq!(
        report
            .counts
            .get(&(Rule::NondetTaint, "crates/ooc/src/lib.rs".into())),
        Some(&1),
        "Instant::now returned from `pub fn unscoped_clock`"
    );
    assert_eq!(
        report
            .counts
            .get(&(Rule::NondetTaint, "crates/core/src/lib.rs".into())),
        Some(&3),
        "local flow + interprocedural flow + sink flow"
    );
    // Unit pass: all four planted mismatches in the core fixture —
    // addition, let binding, cross-crate call argument, struct field.
    assert_eq!(
        report
            .counts
            .get(&(Rule::UnitMismatch, "crates/core/src/lib.rs".into())),
        Some(&4)
    );
    // The negatives: dimension-changing arithmetic and the enum tag
    // named `Instant` produce nothing anywhere else.
    assert_eq!(report.total(Rule::NondetTaint), 5);
    assert_eq!(report.total(Rule::UnitMismatch), 4);
    // Concurrency passes (interconnect + ssd fixtures): the Relaxed
    // publish/consume pair; the alpha->beta edges (direct nesting and
    // the interprocedural one via `grab_beta`) and the ssd fixture's
    // beta->alpha edge that closes the cycle. The Release/Acquire
    // pair, the write-free counter, the dropped guard, and the
    // consistently-ordered gamma/delta pair all stay silent.
    assert_eq!(
        report.counts.get(&(
            Rule::AtomicOrdering,
            "crates/interconnect/src/lib.rs".into()
        )),
        Some(&2),
        "Relaxed publish + Relaxed consume"
    );
    assert_eq!(
        report
            .counts
            .get(&(Rule::LockOrder, "crates/interconnect/src/lib.rs".into())),
        Some(&2),
        "direct + interprocedural alpha->beta edges"
    );
    assert_eq!(
        report
            .counts
            .get(&(Rule::LockOrder, "crates/ssd/src/lib.rs".into())),
        Some(&1),
        "the beta->alpha edge closing the cross-file cycle"
    );
    assert_eq!(report.total(Rule::AtomicOrdering), 2);
    assert_eq!(report.total(Rule::LockOrder), 3);
    // Hotpath pass (ssd fixture): `serve` is a declared hot
    // root, so the `vec![]` in its loop is per-event; the hoisted
    // `scratch` reuse (`clear`/`push`) must NOT fire.
    assert_eq!(
        report
            .counts
            .get(&(Rule::HotPathAlloc, "crates/ssd/src/lib.rs".into())),
        Some(&1),
        "the vec![] in the hot loop, and nothing else"
    );
    assert_eq!(report.total(Rule::HotPathAlloc), 1);
    // Out-of-scope rules must not fire in ooc (cast + clock present there).
    assert_eq!(
        report
            .counts
            .get(&(Rule::BareCast, "crates/ooc/src/lib.rs".into())),
        None
    );
    assert_eq!(
        report
            .counts
            .get(&(Rule::WallClock, "crates/ooc/src/lib.rs".into())),
        None
    );
    // Exhaustiveness (root-package fixture): one match *on* and one
    // classification *into* a watched enum; the unwatched match exempt.
    assert_eq!(
        report
            .counts
            .get(&(Rule::EnumWildcard, "src/main.rs".into())),
        Some(&2)
    );
    // Totals: every rule fires somewhere in the corpus.
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
        20,
        "one violation per (rule, file)"
    );
    assert!(verdict.stale.is_empty() && verdict.forbidden.is_empty());

    // Binary level: the gate must exit nonzero on the corpus.
    let status = Command::new(env!("CARGO_BIN_EXE_simlint"))
        .args(["--root"])
        .arg(fixture_root())
        .status()
        .expect("run simlint binary");
    assert_eq!(status.code(), Some(1), "gate must fail on the fixtures");
}

#[test]
fn strict_crate_panics_cannot_be_allowlisted() {
    // Even a fully up-to-date allowlist cannot excuse no_panic findings
    // in the strict simulator crates.
    let report = scan_workspace(&fixture_root()).expect("fixture scan");
    let allow = Allowlist::from_counts(&report.counts);
    let verdict = check(&report, &allow);
    assert!(verdict.violations.is_empty(), "all counts covered");
    assert!(verdict.stale.is_empty());
    // Strict-crate entries (3, all flashsim) plus the semantic-pass
    // entries (nondet_taint in three files, unit_mismatch in one,
    // atomic_ordering in one, lock_order in two), which are never
    // allowlistable anywhere.
    assert_eq!(verdict.forbidden.len(), 10, "{:?}", verdict.forbidden);
    for f in verdict.forbidden.iter().filter(|f| {
        !f.contains("nondet_taint")
            && !f.contains("unit_mismatch")
            && !f.contains("atomic_ordering")
            && !f.contains("lock_order")
    }) {
        assert!(f.contains("crates/flashsim/src/lib.rs"), "{f}");
    }
    assert!(verdict.forbidden.iter().any(|f| f.contains("`no_panic`")));
    assert!(verdict
        .forbidden
        .iter()
        .any(|f| f.contains("`let_underscore_result`")));
    assert!(verdict
        .forbidden
        .iter()
        .any(|f| f.contains("`no_println_in_lib`")));
    assert_eq!(
        verdict
            .forbidden
            .iter()
            .filter(|f| f.contains("`nondet_taint` is never allowlistable"))
            .count(),
        3
    );
    assert_eq!(
        verdict
            .forbidden
            .iter()
            .filter(|f| f.contains("`unit_mismatch` is never allowlistable"))
            .count(),
        1
    );
    assert_eq!(
        verdict
            .forbidden
            .iter()
            .filter(|f| f.contains("`atomic_ordering` is never allowlistable"))
            .count(),
        1
    );
    assert_eq!(
        verdict
            .forbidden
            .iter()
            .filter(|f| f.contains("`lock_order` is never allowlistable"))
            .count(),
        2
    );
    assert!(!verdict.ok());
}

#[test]
fn allowlist_only_ratchets_down() {
    // Granting more than reality is a stale entry: the gate forces the
    // allowlist to track the actual count exactly, so it can only shrink.
    let report = scan_workspace(&fixture_root()).expect("fixture scan");
    let mut counts = report.counts.clone();
    if let Some(c) = counts.get_mut(&(Rule::NoPanic, "crates/ooc/src/lib.rs".into())) {
        *c += 1; // pretend a violation was fixed without ratcheting
    }
    let inflated = Allowlist::from_counts(&counts);
    let verdict = check(&report, &inflated);
    assert!(
        verdict
            .stale
            .iter()
            .any(|s| s.contains("crates/ooc/src/lib.rs")),
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
        "workspace gate broken:\nviolations: {:?}\nstale: {:?}\nforbidden: {:?}",
        verdict.violations,
        verdict.stale,
        verdict.forbidden
    );
}

#[test]
fn allowlist_totals_stay_below_seed_baselines() {
    let text =
        std::fs::read_to_string(real_root().join("simlint.allow")).expect("simlint.allow exists");
    let allow = Allowlist::parse(&text).expect("simlint.allow parses");
    let no_panic = allow.total(Rule::NoPanic);
    let bare_cast = allow.total(Rule::BareCast);
    assert!(
        no_panic < SEED_NO_PANIC,
        "no_panic allowance {no_panic} must stay strictly below the seed baseline {SEED_NO_PANIC}"
    );
    assert_eq!(
        no_panic, 0,
        "the no_panic debt was fully burned down (error-returning paths \
         in the bench binaries and ooc); it must not come back"
    );
    assert!(
        bare_cast < SEED_BARE_CAST,
        "bare_cast allowance {bare_cast} must stay strictly below the seed baseline {SEED_BARE_CAST}"
    );
    // Simulator-state determinism has no burn-down budget at all.
    assert_eq!(allow.total(Rule::NondeterministicCollection), 0);
    assert_eq!(allow.total(Rule::WallClock), 0);
    assert_eq!(allow.total(Rule::EnumWildcard), 0);
    // The workspace was scrubbed of `let _ =` when the rule landed, so
    // the discard rule starts — and stays — at zero budget.
    assert_eq!(allow.total(Rule::LetUnderscoreResult), 0);
    // Library printing was burned down when the rule landed (banners
    // render strings now): zero budget from day one.
    assert_eq!(allow.total(Rule::NoPrintlnInLib), 0);
    // Threads come only from the vendored pool's scoped workers, so
    // the budget is zero for good.
    assert_eq!(allow.total(Rule::ThreadSpawn), 0);
    // The semantic passes are never allowlistable, so they can never
    // carry a budget either.
    assert_eq!(allow.total(Rule::NondetTaint), 0);
    assert_eq!(allow.total(Rule::UnitMismatch), 0);
    assert_eq!(allow.total(Rule::AtomicOrdering), 0);
    assert_eq!(allow.total(Rule::LockOrder), 0);
    // Hot-path allocation debt: the v3 burn-down left 12 audited-benign
    // sites (API-intrinsic owned returns and metadata-small clones, each
    // carrying a "Hot-path audit" comment). The budget only shrinks.
    assert!(
        allow.total(Rule::HotPathAlloc) <= 12,
        "hotpath_alloc allowance {} must stay at or below the v3 burn-down \
         residue of 12",
        allow.total(Rule::HotPathAlloc)
    );
}

/// The core fixture plants violations that only structure or dataflow
/// reveal: the AST rules catch the two per-file ones at their exact
/// lines, and the semantic passes catch all seven dataflow ones. This
/// is the regression test for why simlint has an AST.
#[test]
fn core_fixture_is_caught_by_ast_rules_and_semantic_passes() {
    let path = "crates/core/src/lib.rs";
    let source = std::fs::read_to_string(fixture_root().join(path)).expect("core fixture");

    // Per-file rules: the `.unwrap` split across lines 22-23 and the
    // spawn called through its `use` alias on line 27.
    let per_file: Vec<(Rule, usize)> = scan_source(path, &source)
        .iter()
        .map(|l| (l.finding.rule, l.finding.line))
        .collect();
    assert_eq!(
        per_file,
        vec![(Rule::NoPanic, 22), (Rule::ThreadSpawn, 27)],
        "{per_file:?}"
    );

    // Semantic passes (workspace scan): the planted dataflow violations,
    // with messages naming the mechanism each one needed.
    let report = scan_workspace(&fixture_root()).expect("fixture scan");
    let core: Vec<_> = report.findings.iter().filter(|l| l.path == path).collect();
    let taint: Vec<_> = core
        .iter()
        .filter(|l| l.finding.rule == Rule::NondetTaint)
        .collect();
    let units: Vec<_> = core
        .iter()
        .filter(|l| l.finding.rule == Rule::UnitMismatch)
        .collect();
    assert_eq!(taint.len(), 3, "{taint:?}");
    // Local dataflow: SystemTime through `let t` into the pub return.
    assert!(taint
        .iter()
        .any(|l| l.finding.message.contains("`pub fn stamp_seed`")
            && l.finding.message.contains("SystemTime")));
    // Interprocedural: env::var inside the private `knob`, surfaced at
    // the pub caller via the workspace fixpoint.
    assert!(taint
        .iter()
        .any(|l| l.finding.message.contains("`pub fn worker_count`")
            && l.finding.message.contains("knob")));
    // Sink flow: a tainted argument reaching `Tracer::count`.
    assert!(taint
        .iter()
        .any(|l| l.finding.message.contains("Tracer::count")));
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

/// The interconnect fixture's two `atomic_ordering` findings, spelled
/// out byte for byte: the `Relaxed` publish in `publish_relaxed` and
/// the `Relaxed` consume in `consume_relaxed`.
#[test]
fn atomic_ordering_reports_exact_publish_and_consume_findings() {
    let report = scan_workspace(&fixture_root()).expect("fixture scan");
    let found: Vec<(usize, usize, &str)> = report
        .findings
        .iter()
        .filter(|l| l.finding.rule == Rule::AtomicOrdering)
        .map(|l| {
            assert_eq!(l.path, "crates/interconnect/src/lib.rs");
            (l.finding.line, l.finding.col, l.finding.message.as_str())
        })
        .collect();
    assert_eq!(
        found,
        vec![
            (
                21,
                5,
                "`ready.store(_, Ordering::Relaxed)` publishes the earlier write to \
                 `data.value` without a release edge; use `Ordering::Release` (and \
                 `Acquire` on the readers)"
            ),
            (
                25,
                8,
                "`ready.load(Ordering::Relaxed)` guards a read of `data.value` without \
                 an acquire edge; use `Ordering::Acquire` (and `Release` on the writer)"
            ),
        ]
    );
}

#[test]
fn no_strict_crate_no_panic_entries_in_allowlist() {
    let text =
        std::fs::read_to_string(real_root().join("simlint.allow")).expect("simlint.allow exists");
    let allow = Allowlist::parse(&text).expect("simlint.allow parses");
    for (rule, path, count) in allow.iter() {
        let strict: &[&str] = match rule {
            Rule::NoPanic => &STRICT_NO_PANIC_CRATES,
            Rule::LetUnderscoreResult => &STRICT_LET_UNDERSCORE_CRATES,
            Rule::NoPrintlnInLib => &STRICT_NO_PRINTLN_CRATES,
            _ => continue,
        };
        let krate = source_crate(path).expect("allowlist paths are in scope");
        assert!(
            !strict.contains(&krate),
            "{path}: {count} `{}` entries in strict crate `{krate}`",
            rule.id()
        );
    }
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
