//! The rule catalogue every pass shares: rule identifiers, the finding
//! record, and the watched-enum list. Rules are scoped by crate (see
//! [`crate::rules_for`]); the per-file rules are recognised in
//! [`crate::astrules`], the semantic ones in their own passes.

/// Rule identifiers — stable strings used in reports and `simlint.allow`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// `unwrap`/`expect`/`panic!`-family calls in non-test code.
    NoPanic,
    /// `HashMap`/`HashSet` in simulator-state crates (iteration order is
    /// nondeterministic; use `BTreeMap`/`BTreeSet` or sorted drains).
    NondeterministicCollection,
    /// Wall-clock or OS-entropy sources inside the simulators
    /// (simulated time only).
    WallClock,
    /// Bare `as` numeric casts in unit-arithmetic crates; use the
    /// checked conversion helpers in `nvmtypes`.
    BareCast,
    /// `_ =>` wildcard arm in a `match` over a watched enum; new
    /// variants must not silently fall through.
    EnumWildcard,
    /// `let _ = expr;` in non-test code: the idiom that silently
    /// swallows a `Result` (and with it the error). Handle or propagate
    /// instead; deliberate discards use `drop(..)` or a typed `let _: T`.
    LetUnderscoreResult,
    /// `println!`/`eprintln!` in library code (bins exempt): libraries
    /// return or render strings and let the binaries print, so output
    /// stays capturable, testable, and silent under `Tracer::off()`.
    NoPrintlnInLib,
    /// Direct `thread::spawn` outside the vendored pool: ad-hoc threads
    /// dodge `RAYON_NUM_THREADS` and the ordered-collect determinism
    /// contract (docs/PARALLELISM.md). Use `par_iter`/`join` instead.
    ThreadSpawn,
    /// Semantic taint pass: a nondeterministic value (wall clock, OS
    /// entropy, hash-order iteration, pointer address, env read) flows
    /// into a public return value or an observability sink. Never
    /// allowlistable.
    NondetTaint,
    /// Semantic unit pass: values carrying different units of measure
    /// (ns vs bytes vs lanes) meet in arithmetic, comparison, or a
    /// call-site argument. Never allowlistable.
    UnitMismatch,
    /// Concurrency pass: a `Relaxed` atomic store publishing prior
    /// writes, or a `Relaxed` load guarding reads of other state —
    /// cross-thread data with no happens-before edge
    /// (docs/CONCURRENCY.md). Never allowlistable.
    AtomicOrdering,
    /// Concurrency pass: a cycle in the workspace lock-acquisition
    /// graph (lock `b` taken while holding `a` somewhere, `a` while
    /// holding `b` elsewhere) — an AB-BA deadlock awaiting the right
    /// interleaving. Never allowlistable.
    LockOrder,
    /// Hotpath pass: a fresh allocation or copy (`Vec::new`, `vec![]`,
    /// `collect`, `clone`, `Box::new`, `format!`, ...) that executes
    /// once per simulated event — inside a loop of a hot-root-reachable
    /// function, or in a function called from a hot loop. Hoist the
    /// buffer into reusable per-run state (docs/STATIC_ANALYSIS.md).
    /// Allowlistable: this is performance debt, not a correctness bug.
    HotPathAlloc,
}

impl Rule {
    /// The identifier used in reports and the allowlist file.
    pub fn id(self) -> &'static str {
        match self {
            Rule::NoPanic => "no_panic",
            Rule::NondeterministicCollection => "nondeterministic_collection",
            Rule::WallClock => "wall_clock",
            Rule::BareCast => "bare_cast",
            Rule::EnumWildcard => "enum_wildcard",
            Rule::LetUnderscoreResult => "let_underscore_result",
            Rule::NoPrintlnInLib => "no_println_in_lib",
            Rule::ThreadSpawn => "thread_spawn",
            Rule::NondetTaint => "nondet_taint",
            Rule::UnitMismatch => "unit_mismatch",
            Rule::AtomicOrdering => "atomic_ordering",
            Rule::LockOrder => "lock_order",
            Rule::HotPathAlloc => "hotpath_alloc",
        }
    }

    /// Parses an identifier back into a rule.
    pub fn from_id(id: &str) -> Option<Rule> {
        Some(match id {
            "no_panic" => Rule::NoPanic,
            "nondeterministic_collection" => Rule::NondeterministicCollection,
            "wall_clock" => Rule::WallClock,
            "bare_cast" => Rule::BareCast,
            "enum_wildcard" => Rule::EnumWildcard,
            "let_underscore_result" => Rule::LetUnderscoreResult,
            "no_println_in_lib" => Rule::NoPrintlnInLib,
            "thread_spawn" => Rule::ThreadSpawn,
            "nondet_taint" => Rule::NondetTaint,
            "unit_mismatch" => Rule::UnitMismatch,
            "atomic_ordering" => Rule::AtomicOrdering,
            "lock_order" => Rule::LockOrder,
            "hotpath_alloc" => Rule::HotPathAlloc,
            _ => return None,
        })
    }

    /// Every rule, in report order.
    pub const ALL: [Rule; 13] = [
        Rule::NoPanic,
        Rule::NondeterministicCollection,
        Rule::WallClock,
        Rule::BareCast,
        Rule::EnumWildcard,
        Rule::LetUnderscoreResult,
        Rule::NoPrintlnInLib,
        Rule::ThreadSpawn,
        Rule::NondetTaint,
        Rule::UnitMismatch,
        Rule::AtomicOrdering,
        Rule::LockOrder,
        Rule::HotPathAlloc,
    ];
}

/// One rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column (best-effort; 0 when unknown).
    pub col: usize,
    /// Human-readable explanation.
    pub message: String,
}

/// Enums that must be matched exhaustively ([`Rule::EnumWildcard`]):
/// adding a PCM/media/filesystem variant must be a compile error at every
/// match, never a silent fall-through.
pub const WATCHED_ENUMS: [&str; 14] = [
    "Layer",
    "NvmKind",
    "PageClass",
    "IoOp",
    "OpKind",
    "FsKind",
    "FtlMode",
    "PalLevel",
    "PcieGen",
    "NvmBusSpeed",
    "Dim",
    "Location",
    "Controller",
    "TrendSeries",
];
