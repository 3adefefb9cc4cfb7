//! The rule catalogue every pass shares: rule identifiers and the
//! finding record. Rules are scoped by crate (see [`crate::in_scope`]);
//! each is computed by its own semantic pass over the whole workspace.
//! The syntactic invariants (no panics, no bare casts, exhaustive
//! matches, no `let _ =`, no library printing, no ad-hoc threads or
//! atomics, no source of run-to-run nondeterminism) are clippy lints
//! (docs/INVARIANTS.md).

/// Rule identifiers — stable strings used in reports and `simlint.allow`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Semantic unit pass: values carrying different units of measure
    /// (ns vs bytes vs lanes) meet in arithmetic, comparison, or a
    /// call-site argument. Never allowlistable.
    UnitMismatch,
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
    /// The only allowlistable rule: this is performance debt, not a
    /// correctness bug.
    HotPathAlloc,
}

impl Rule {
    /// The identifier used in reports and the allowlist file.
    pub fn id(self) -> &'static str {
        match self {
            Rule::UnitMismatch => "unit_mismatch",
            Rule::LockOrder => "lock_order",
            Rule::HotPathAlloc => "hotpath_alloc",
        }
    }

    /// Parses an identifier back into a rule.
    pub fn from_id(id: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.id() == id)
    }

    /// Every rule, in report order.
    pub const ALL: [Rule; 3] = [Rule::UnitMismatch, Rule::LockOrder, Rule::HotPathAlloc];
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
