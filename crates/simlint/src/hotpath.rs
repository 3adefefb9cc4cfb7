//! Hot-path allocation/copy analysis.
//!
//! ROADMAP item 4 wants the simulator core ~10x faster; the first step
//! is knowing where the event loop spends allocator time. This pass
//! builds a workspace call graph, computes reachability from the
//! declared *hot roots* (the engine service loop, the device request
//! path, the QoS shared loop, the experiment body the vendored pool's
//! chunk loop runs, and the UFS trace replay reached through `dyn
//! FileSystemModel`), and flags allocation/copy sites inside
//! hot-reachable functions:
//!
//! * **per-event** — the site executes once per simulated event: it
//!   sits inside a loop in a hot function, or its whole function is
//!   called from inside a hot loop (the loop context propagates along
//!   call edges). These become [`Rule::HotPathAlloc`] findings and
//!   ratchet via the committed baseline.
//! * **per-run** — the site is hot-reachable but executes once per
//!   run (setup/teardown). Inventory only: recorded in the JSON
//!   export's `hotpath` section, never a finding.
//!
//! The escape model is conservative by construction: only *fresh
//! allocation* expressions are sites (`Vec::new`, `vec![]`,
//! `with_capacity`, `Box::new`, `collect`, `clone`/`cloned`,
//! `to_vec`/`to_owned`/`to_string`, `format!`, `String::from`).
//! Amortised growth on a pre-existing buffer (`push`, `resize`,
//! `extend`, `reserve`, `clear` + reuse) is never a site, so the
//! canonical fix — hoist the buffer out of the loop (or into per-run
//! engine state) and reuse it — is clean. Error paths are cold:
//! closures passed to lazy error adaptors (`ok_or_else`, `map_err`,
//! `unwrap_or_else`, ...), arguments of `Err(..)` / `SomeError::ctor(..)`
//! calls (the message `format!` only runs when the request already
//! failed), and the bodies of functions returning an `*Error` type.

use crate::ast::{Block, Expr, ExprKind, Item, ItemKind, Stmt};
use crate::parser::Span;
use crate::resolve::{visit_fns_with_path, FileAst, Index};
use crate::rules::{Finding, Rule};
use crate::Located;
use std::collections::BTreeMap;

/// Canonical paths of the declared hot roots. A root is the entry of a
/// code region that runs once per *event stream*: everything it calls
/// from inside a loop runs once per event.
pub const HOT_ROOTS: [&str; 6] = [
    // The media service loop: every die-op goes through here.
    "flashsim::engine::MediaSim::execute",
    "flashsim::engine::MediaSim::execute_traced",
    // The device request loop (single-job and multi-tenant runs alike)
    // and the per-request servicing it drives.
    "ssd::qos::SsdDevice::serve",
    "ssd::device::EngineState::service_one",
    // The body the vendored pool's chunk loop executes per experiment
    // (`vendor/` itself is outside the scanned scope).
    "core::experiment::ExperimentSpec::run",
    // The UFS replay is dispatched through `dyn FileSystemModel`, which
    // the static call graph cannot see through; it is the dominant
    // trace transform, so it is declared hot explicitly.
    "ufs::replay::JournaledUfs::transform_with_stats",
];

/// How often a hot-reachable allocation site executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Once per simulated event (request, record, die-op): findings.
    PerEvent,
    /// Once per run (setup/teardown): inventory only.
    PerRun,
}

impl Severity {
    /// Stable identifier used in the JSON export.
    pub fn id(self) -> &'static str {
        match self {
            Severity::PerEvent => "per_event",
            Severity::PerRun => "per_run",
        }
    }
}

/// One allocation/copy site in a hot-reachable function.
#[derive(Debug, Clone)]
pub struct Site {
    /// Workspace-relative file path.
    pub path: String,
    /// Crate directory name.
    pub krate: String,
    /// Canonical path of the containing function.
    pub fn_path: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column (0 when unknown).
    pub col: usize,
    /// What allocates: `vec![]`, `clone`, `collect`, ...
    pub kind: &'static str,
    /// Execution frequency class.
    pub severity: Severity,
}

/// The pass output: ratcheted findings plus the full site inventory.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Per-event sites as findings (rule [`Rule::HotPathAlloc`]).
    pub findings: Vec<Located>,
    /// Every hot-reachable site, both severities, sorted by path/line.
    pub sites: Vec<Site>,
    /// Number of hot-reachable functions.
    pub hot_fns: usize,
    /// Roots that name no function of the scanned tree, in root order.
    /// A renamed root function would otherwise shrink the hot region
    /// without a word, so the gate fails on any (see [`crate::check`]).
    pub unresolved_roots: Vec<String>,
}

/// Runs the pass with the default [`HOT_ROOTS`]. `in_scope` filters
/// which files findings and inventory apply to; call-graph summaries
/// are computed workspace-wide so hotness crosses crate boundaries.
pub fn run(files: &[FileAst], index: &Index, in_scope: &dyn Fn(&str) -> bool) -> Analysis {
    run_with_roots(files, index, in_scope, &HOT_ROOTS)
}

/// [`run`] with explicit roots (fixtures/selftests).
pub fn run_with_roots(
    files: &[FileAst],
    index: &Index,
    in_scope: &dyn Fn(&str) -> bool,
    roots: &[&str],
) -> Analysis {
    // Pass 1: one summary per function — outgoing call edges (with
    // "call site is inside a loop") and allocation sites.
    let mut summaries: BTreeMap<String, FnSummary> = BTreeMap::new();
    for file in files {
        let ctx = Ctx::new(file, index);
        visit_fns_with_path(
            &file.ast.items,
            &file.module,
            file,
            &mut |fd, path, _, _, _| {
                if let Some(body) = &fd.body {
                    let mut summary = FnSummary::default();
                    let mut st = Walk {
                        in_loop: false,
                        cold: false,
                        locals: BTreeMap::new(),
                    };
                    ctx.walk_block(body, &mut st, path, &mut summary);
                    summaries.insert(path.clone(), summary);
                }
            },
        );
    }

    // Pass 2: reachability fixpoint. `hot[f] = true` means f is called
    // from inside a hot loop (its body runs per event); `false` means
    // hot-reachable but only once per run. Loop context only upgrades
    // (false -> true), so the iteration is monotone and terminates.
    let mut hot: BTreeMap<String, bool> = BTreeMap::new();
    let mut unresolved_roots = Vec::new();
    for root in roots {
        if summaries.contains_key(*root) {
            hot.insert((*root).to_string(), false);
        } else {
            unresolved_roots.push((*root).to_string());
        }
    }
    loop {
        let mut changed = false;
        let frontier: Vec<(String, bool)> = hot.iter().map(|(k, &v)| (k.clone(), v)).collect();
        for (fn_path, ctx_in_loop) in frontier {
            let Some(summary) = summaries.get(&fn_path) else {
                continue;
            };
            for (callee, call_in_loop) in &summary.calls {
                let callee_ctx = ctx_in_loop || *call_in_loop;
                match hot.get_mut(callee) {
                    Some(existing) => {
                        if callee_ctx && !*existing {
                            *existing = true;
                            changed = true;
                        }
                    }
                    None => {
                        if summaries.contains_key(callee) {
                            hot.insert(callee.clone(), callee_ctx);
                            changed = true;
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Pass 3: report. Per-event sites in in-scope files become
    // findings; everything hot-reachable lands in the inventory.
    let mut out = Analysis {
        hot_fns: hot.len(),
        unresolved_roots,
        ..Analysis::default()
    };
    for file in files {
        if !in_scope(&file.path) {
            continue;
        }
        visit_fns_with_path(
            &file.ast.items,
            &file.module,
            file,
            &mut |fd, path, _, _, _| {
                let Some(&ctx_in_loop) = hot.get(path) else {
                    return;
                };
                let Some(summary) = summaries.get(path) else {
                    return;
                };
                // Error constructors (`fn .. -> SimError`) only run when a
                // request already failed: cold by definition.
                if fd.ret.as_ref().is_some_and(|t| t.base.ends_with("Error")) {
                    return;
                }
                for site in &summary.sites {
                    if file.line_in_test(site.span.line) {
                        continue;
                    }
                    let severity = if site.in_loop || ctx_in_loop {
                        Severity::PerEvent
                    } else {
                        Severity::PerRun
                    };
                    out.sites.push(Site {
                        path: file.path.clone(),
                        krate: file.krate.clone(),
                        fn_path: path.clone(),
                        line: site.span.line,
                        col: site.span.col,
                        kind: site.kind,
                        severity,
                    });
                    if severity == Severity::PerEvent {
                        let how = if site.in_loop {
                            "inside a loop of the hot function"
                        } else {
                            "the whole function is called from a hot loop"
                        };
                        out.findings.push(Located {
                        path: file.path.clone(),
                        finding: Finding {
                            rule: Rule::HotPathAlloc,
                            line: site.span.line,
                            col: site.span.col,
                            message: format!(
                                "hot-path allocation: `{}` runs per event in `{path}` ({how}); hoist the buffer into reusable per-run state or pre-size it outside the loop (docs/STATIC_ANALYSIS.md)",
                                site.kind
                            ),
                        },
                    });
                    }
                }
            },
        );
    }
    out.sites
        .sort_by(|a, b| (&a.path, a.line, a.col).cmp(&(&b.path, b.line, b.col)));
    out.findings
        .sort_by(|a, b| (&a.path, a.finding.line).cmp(&(&b.path, b.finding.line)));
    out
}

/// Iterator adaptors that execute a closure argument once per element:
/// the closure body inherits loop context.
const PER_ELEMENT_METHODS: [&str; 14] = [
    "map",
    "for_each",
    "filter",
    "filter_map",
    "flat_map",
    "retain",
    "inspect",
    "scan",
    "take_while",
    "skip_while",
    "find_map",
    "position",
    "sort_by",
    "sort_by_key",
];

/// Adaptors whose closure is a lazily-evaluated error/default path:
/// allocation there is cold — no sites, no call edges.
const LAZY_COLD_METHODS: [&str; 8] = [
    "ok_or_else",
    "unwrap_or_else",
    "map_err",
    "or_else",
    "get_or_insert_with",
    "map_or_else",
    "unwrap_or_default",
    "err",
];

/// Ubiquitous std method names excluded from *bare-name* call-edge
/// resolution (a workspace fn of the same name must not receive edges
/// from every `Vec::len` call). Typed resolution (`self.x.m()`, locals
/// with known constructors) is exact and bypasses this list.
const STD_METHODS: [&str; 48] = [
    "len",
    "is_empty",
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "clone",
    "cloned",
    "copied",
    "collect",
    "to_vec",
    "to_owned",
    "to_string",
    "map",
    "filter",
    "sum",
    "min",
    "max",
    "count",
    "clear",
    "resize",
    "extend",
    "contains",
    "contains_key",
    "entry",
    "sort",
    "drain",
    "take",
    "last",
    "first",
    "any",
    "all",
    "find",
    "fold",
    "rev",
    "zip",
    "enumerate",
    "parse",
    "split",
    "join",
    "run",
    "new",
];

/// One function's call edges and allocation sites.
#[derive(Debug, Default)]
struct FnSummary {
    /// `(callee canonical path, call site is inside a loop)`.
    calls: Vec<(String, bool)>,
    /// Allocation/copy sites with their local loop attribution.
    sites: Vec<RawSite>,
}

#[derive(Debug)]
struct RawSite {
    span: Span,
    kind: &'static str,
    in_loop: bool,
}

/// Walker state threaded through one function body.
#[derive(Clone)]
struct Walk {
    /// Inside a `for`/`while`/`loop` body or a per-element closure.
    in_loop: bool,
    /// Inside a lazy error-path closure: suppress sites and edges.
    cold: bool,
    /// Local name -> canonical type prefix (`ufs::fs::Ufs`), learned
    /// from constructor-style initialisers.
    locals: BTreeMap<String, String>,
}

struct Ctx<'a> {
    file: &'a FileAst,
    index: &'a Index,
    /// Same-file struct fields: name -> declared type base.
    field_types: BTreeMap<String, String>,
}

impl<'a> Ctx<'a> {
    fn new(file: &'a FileAst, index: &'a Index) -> Ctx<'a> {
        let mut field_types = BTreeMap::new();
        collect_struct_fields(&file.ast.items, &mut field_types);
        Ctx {
            file,
            index,
            field_types,
        }
    }

    fn walk_block(&self, block: &Block, st: &mut Walk, fn_path: &str, out: &mut FnSummary) {
        for stmt in &block.stmts {
            match stmt {
                Stmt::Let { name, init, .. } => {
                    if let Some(init) = init {
                        self.walk_expr(init, st, fn_path, out);
                        if let (Some(n), Some(prefix)) = (name, self.constructed_type(init)) {
                            st.locals.insert(n.clone(), prefix);
                        }
                    }
                }
                Stmt::Expr { expr, .. } => self.walk_expr(expr, st, fn_path, out),
                Stmt::Item(_) => {}
            }
        }
    }

    fn walk_expr(&self, expr: &Expr, st: &mut Walk, fn_path: &str, out: &mut FnSummary) {
        if !st.cold {
            if let Some(kind) = self.alloc_kind(expr) {
                out.sites.push(RawSite {
                    span: expr.span,
                    kind,
                    in_loop: st.in_loop,
                });
            }
            if let Some(callee) = self.call_target(expr, st, fn_path) {
                out.calls.push((callee, st.in_loop));
            }
        }
        match &expr.kind {
            ExprKind::For { iter, body, .. } => {
                self.walk_expr(iter, st, fn_path, out);
                let mut inner = st.clone();
                inner.in_loop = true;
                self.walk_block(body, &mut inner, fn_path, out);
            }
            ExprKind::While { cond, body } => {
                self.walk_expr(cond, st, fn_path, out);
                let mut inner = st.clone();
                inner.in_loop = true;
                self.walk_block(body, &mut inner, fn_path, out);
            }
            ExprKind::Loop { body } => {
                let mut inner = st.clone();
                inner.in_loop = true;
                self.walk_block(body, &mut inner, fn_path, out);
            }
            ExprKind::MethodCall { recv, method, args } => {
                self.walk_expr(recv, st, fn_path, out);
                for arg in args {
                    if let ExprKind::Closure { body, .. } = &arg.kind {
                        let mut inner = st.clone();
                        if PER_ELEMENT_METHODS.contains(&method.as_str()) {
                            inner.in_loop = true;
                        } else if LAZY_COLD_METHODS.contains(&method.as_str()) {
                            inner.cold = true;
                        }
                        self.walk_expr(body, &mut inner, fn_path, out);
                    } else {
                        self.walk_expr(arg, st, fn_path, out);
                    }
                }
            }
            ExprKind::Call { callee, args } => {
                self.walk_expr(callee, st, fn_path, out);
                // Error construction is cold: the `format!` feeding
                // `Err(SimError::invalid_config(..))` only runs once the
                // request has already failed.
                let mut inner = st.clone();
                if let ExprKind::Path(segs) = &callee.kind {
                    if is_error_construction(segs) {
                        inner.cold = true;
                    }
                }
                for arg in args {
                    self.walk_expr(arg, &mut inner, fn_path, out);
                }
            }
            ExprKind::If { cond, then, els } => {
                self.walk_expr(cond, st, fn_path, out);
                self.walk_block(then, &mut st.clone(), fn_path, out);
                if let Some(e) = els {
                    self.walk_expr(e, st, fn_path, out);
                }
            }
            ExprKind::Match { scrutinee, arms } => {
                self.walk_expr(scrutinee, st, fn_path, out);
                for arm in arms {
                    if let Some(guard) = &arm.guard {
                        self.walk_expr(guard, st, fn_path, out);
                    }
                    self.walk_expr(&arm.body, &mut st.clone(), fn_path, out);
                }
            }
            ExprKind::Block(b) => self.walk_block(b, &mut st.clone(), fn_path, out),
            ExprKind::Closure { body, .. } => self.walk_expr(body, &mut st.clone(), fn_path, out),
            ExprKind::Binary { lhs, rhs, .. } | ExprKind::Assign { lhs, rhs, .. } => {
                self.walk_expr(lhs, st, fn_path, out);
                self.walk_expr(rhs, st, fn_path, out);
            }
            ExprKind::Unary { operand, .. } | ExprKind::Cast { operand, .. } => {
                self.walk_expr(operand, st, fn_path, out);
            }
            ExprKind::Try(e) | ExprKind::Field { base: e, .. } => {
                self.walk_expr(e, st, fn_path, out);
            }
            ExprKind::Return(Some(e)) | ExprKind::Break(Some(e)) => {
                self.walk_expr(e, st, fn_path, out);
            }
            ExprKind::Index { base, index } => {
                self.walk_expr(base, st, fn_path, out);
                self.walk_expr(index, st, fn_path, out);
            }
            ExprKind::Tuple(es) | ExprKind::Array(es) | ExprKind::Unknown(es) => {
                for e in es {
                    self.walk_expr(e, st, fn_path, out);
                }
            }
            ExprKind::StructLit { fields, .. } => {
                for (_, e) in fields {
                    self.walk_expr(e, st, fn_path, out);
                }
            }
            ExprKind::Macro { args, .. } => {
                for e in args {
                    self.walk_expr(e, st, fn_path, out);
                }
            }
            ExprKind::Range { lo, hi } => {
                if let Some(e) = lo {
                    self.walk_expr(e, st, fn_path, out);
                }
                if let Some(e) = hi {
                    self.walk_expr(e, st, fn_path, out);
                }
            }
            _ => {}
        }
    }

    /// Is this expression a fresh-allocation/copy site? Returns the
    /// site kind. Amortised growth (`push`, `resize`, `extend`, ...)
    /// is deliberately not a site: reuse of a hoisted buffer is clean.
    fn alloc_kind(&self, expr: &Expr) -> Option<&'static str> {
        match &expr.kind {
            ExprKind::Call { callee, .. } => {
                let ExprKind::Path(segs) = &callee.kind else {
                    return None;
                };
                let resolved = self.file.resolve(segs);
                let pair = |a: &str, b: &str| {
                    resolved.len() >= 2
                        && resolved[resolved.len() - 2] == a
                        && resolved[resolved.len() - 1] == b
                };
                if pair("Vec", "new") {
                    return Some("Vec::new");
                }
                if pair("Vec", "with_capacity") {
                    return Some("Vec::with_capacity");
                }
                if pair("Box", "new") {
                    return Some("Box::new");
                }
                if pair("String", "from") {
                    return Some("String::from");
                }
                if pair("String", "with_capacity") {
                    return Some("String::with_capacity");
                }
                None
            }
            ExprKind::Macro { path, .. } => match path.last().map(String::as_str) {
                Some("vec") => Some("vec![]"),
                Some("format") => Some("format!"),
                _ => None,
            },
            ExprKind::MethodCall { method, .. } => match method.as_str() {
                "clone" => Some("clone"),
                "cloned" => Some("cloned"),
                "to_vec" => Some("to_vec"),
                "to_owned" => Some("to_owned"),
                "to_string" => Some("to_string"),
                "collect" => Some("collect"),
                _ => None,
            },
            _ => None,
        }
    }

    /// Resolves the callee of a call expression to a canonical fn path
    /// in the workspace index, or `None` for std/unresolvable calls.
    fn call_target(&self, expr: &Expr, st: &Walk, fn_path: &str) -> Option<String> {
        match &expr.kind {
            ExprKind::Call { callee, .. } => {
                let ExprKind::Path(segs) = &callee.kind else {
                    return None;
                };
                let resolved = self.file.resolve(segs);
                self.index.lookup(&resolved).map(|sig| sig.path.clone())
            }
            ExprKind::MethodCall { recv, method, .. } => {
                self.method_target(recv, method, st, fn_path)
            }
            _ => None,
        }
    }

    /// Method-call resolution, most precise first: `self.m()` against
    /// the enclosing impl type; `local.m()` against the local's
    /// constructor-derived type; `self.field.m()` against the field's
    /// declared type (same-file structs); finally a workspace-unique
    /// bare name outside the std-method denylist.
    fn method_target(&self, recv: &Expr, method: &str, st: &Walk, fn_path: &str) -> Option<String> {
        match &recv.kind {
            ExprKind::Path(segs) => match segs.as_slice() {
                [one] if one == "self" => {
                    if let Some((prefix, _)) = fn_path.rsplit_once("::") {
                        let key = format!("{prefix}::{method}");
                        if self.index.fns.contains_key(&key) {
                            return Some(key);
                        }
                        // The impl type's methods may live in a sibling
                        // file; fall back to the type-name filter.
                        if let Some((_, ty)) = prefix.rsplit_once("::") {
                            if let Some(path) = self.unique_method_of(ty, method) {
                                return Some(path);
                            }
                        }
                    }
                    self.bare_target(method)
                }
                [one] => {
                    if let Some(prefix) = st.locals.get(one) {
                        let key = format!("{prefix}::{method}");
                        if self.index.fns.contains_key(&key) {
                            return Some(key);
                        }
                        if let Some((_, ty)) = prefix.rsplit_once("::") {
                            if let Some(path) = self.unique_method_of(ty, method) {
                                return Some(path);
                            }
                        }
                    }
                    self.bare_target(method)
                }
                _ => self.bare_target(method),
            },
            ExprKind::Field { base, name } => {
                if matches!(&base.kind, ExprKind::Path(s) if s.as_slice() == [String::from("self")])
                {
                    if let Some(ty) = self.field_types.get(name) {
                        if let Some(path) = self.unique_method_of(ty, method) {
                            return Some(path);
                        }
                    }
                }
                self.bare_target(method)
            }
            ExprKind::Unary { op, operand } if op == "&" || op == "*" => {
                self.method_target(operand, method, st, fn_path)
            }
            ExprKind::Try(inner) => self.method_target(inner, method, st, fn_path),
            _ => self.bare_target(method),
        }
    }

    /// The unique indexed fn named `method` on a type named `ty`.
    fn unique_method_of(&self, ty: &str, method: &str) -> Option<String> {
        let candidates = self.index.by_name.get(method)?;
        let want = format!("::{ty}::{method}");
        let mut hit = None;
        for path in candidates {
            if path.ends_with(&want) {
                if hit.is_some() {
                    return None;
                }
                hit = Some(path.clone());
            }
        }
        hit
    }

    /// Bare-name resolution: workspace-unique and not a std method.
    fn bare_target(&self, method: &str) -> Option<String> {
        if STD_METHODS.contains(&method) {
            return None;
        }
        self.index
            .lookup(&[method.to_string()])
            .map(|sig| sig.path.clone())
    }

    /// If `init` is a constructor-style call (`Ty::new(..)` and kin),
    /// the canonical type prefix of the constructed value.
    fn constructed_type(&self, init: &Expr) -> Option<String> {
        match &init.kind {
            ExprKind::Try(inner) => self.constructed_type(inner),
            ExprKind::Call { callee, .. } => {
                let ExprKind::Path(segs) = &callee.kind else {
                    return None;
                };
                let resolved = self.file.resolve(segs);
                let sig = self.index.lookup(&resolved)?;
                let (prefix, _) = sig.path.rsplit_once("::")?;
                let (_, last) = prefix.rsplit_once("::").unwrap_or(("", prefix));
                if last.chars().next().is_some_and(char::is_uppercase) {
                    Some(prefix.to_string())
                } else {
                    None
                }
            }
            ExprKind::StructLit { path, .. } => {
                let resolved = self.file.resolve(path);
                let last = resolved.last()?;
                if last.chars().next().is_some_and(char::is_uppercase) {
                    Some(resolved.join("::"))
                } else {
                    None
                }
            }
            _ => None,
        }
    }
}

/// `Err(..)` or any `SomeError::ctor(..)` path: the arguments are
/// error-message construction, executed only on the failure path.
fn is_error_construction(segs: &[String]) -> bool {
    segs.last().is_some_and(|s| s == "Err") || segs.iter().any(|s| s.ends_with("Error"))
}

fn collect_struct_fields(items: &[Item], out: &mut BTreeMap<String, String>) {
    for item in items {
        match &item.kind {
            ItemKind::Struct { fields, .. } => {
                for f in fields {
                    if !f.name.is_empty() && !f.ty.base.is_empty() {
                        out.insert(f.name.clone(), f.ty.base.clone());
                    }
                }
            }
            ItemKind::Mod { items, .. } => collect_struct_fields(items, out),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyse(files: &[(&str, &str, &str)], roots: &[&str]) -> Analysis {
        let parsed: Vec<FileAst> = files
            .iter()
            .map(|(path, krate, src)| FileAst::parse(path, krate, src))
            .collect();
        let index = Index::build(&parsed);
        run_with_roots(&parsed, &index, &|_| true, roots)
    }

    /// A root whose function was renamed (here, misspelt) resolves to
    /// nothing: it is reported, not dropped, and the spelled-right root
    /// beside it still drives the pass.
    #[test]
    fn a_root_naming_no_function_is_reported() {
        let src = include_str!("../fixtures/hotpath/per_event_loop.rs");
        let a = analyse(
            &[("crates/ssd/src/device.rs", "ssd", src)],
            &[
                "ssd::device::SsdDevice::run_observed",
                "ssd::device::SsdDevice::run_observd",
            ],
        );
        assert_eq!(a.unresolved_roots, ["ssd::device::SsdDevice::run_observd"]);
        assert_eq!(a.findings.len(), 2, "{:#?}", a.findings);
    }

    #[test]
    fn per_event_loop_fixture_detects_two_sites() {
        let src = include_str!("../fixtures/hotpath/per_event_loop.rs");
        let a = analyse(
            &[("crates/ssd/src/device.rs", "ssd", src)],
            &["ssd::device::SsdDevice::run_observed"],
        );
        assert_eq!(a.findings.len(), 2, "{:#?}", a.findings);
        assert!(a.findings[0].finding.message.contains("per event"));
        assert_eq!(
            a.sites
                .iter()
                .filter(|s| s.severity == Severity::PerEvent)
                .count(),
            2
        );
    }

    #[test]
    fn clone_in_hot_callee_inherits_loop_context() {
        let src = include_str!("../fixtures/hotpath/clone_large.rs");
        let a = analyse(
            &[("crates/ssd/src/device.rs", "ssd", src)],
            &["ssd::device::SsdDevice::run_observed"],
        );
        assert_eq!(a.findings.len(), 1, "{:#?}", a.findings);
        assert!(a.findings[0].finding.message.contains("clone"));
        assert!(a.findings[0]
            .finding
            .message
            .contains("called from a hot loop"));
    }

    #[test]
    fn hoisted_buffer_is_a_true_negative() {
        let src = include_str!("../fixtures/hotpath/hoisted_ok.rs");
        let a = analyse(
            &[("crates/ssd/src/device.rs", "ssd", src)],
            &["ssd::device::SsdDevice::run_observed"],
        );
        assert!(a.findings.is_empty(), "{:#?}", a.findings);
        // The hoisted allocation is still inventoried, as per-run.
        assert_eq!(a.sites.len(), 1);
        assert_eq!(a.sites[0].severity, Severity::PerRun);
        assert_eq!(a.sites[0].kind, "Vec::with_capacity");
    }

    #[test]
    fn non_hot_reachable_code_is_a_true_negative() {
        let src = include_str!("../fixtures/hotpath/cold_helper.rs");
        let a = analyse(
            &[("crates/ssd/src/report.rs", "ssd", src)],
            &["ssd::device::SsdDevice::run_observed"],
        );
        assert!(a.findings.is_empty(), "{:#?}", a.findings);
        assert!(a.sites.is_empty(), "{:#?}", a.sites);
    }

    #[test]
    fn hotness_crosses_crate_boundaries() {
        let engine = "pub struct MediaSim;\nimpl MediaSim {\n  pub fn execute(&mut self, n: u64) -> u64 {\n    let mut total = 0;\n    for _ in 0..n { total += crate::cell::sense(); }\n    total\n  }\n}\n";
        let cell = "pub fn sense() -> u64 {\n  let t = vec![0u8; 4];\n  t.len() as u64\n}\n";
        let a = analyse(
            &[
                ("crates/flashsim/src/engine.rs", "flashsim", engine),
                ("crates/flashsim/src/cell.rs", "flashsim", cell),
            ],
            &["flashsim::engine::MediaSim::execute"],
        );
        assert_eq!(a.findings.len(), 1, "{:#?}", a.findings);
        assert_eq!(a.findings[0].path, "crates/flashsim/src/cell.rs");
    }

    #[test]
    fn lazy_error_closures_are_cold() {
        let src = "pub struct SsdDevice;\nimpl SsdDevice {\n  pub fn run_observed(&self, xs: &[u64]) -> Result<u64, String> {\n    let mut total = 0;\n    for x in xs {\n      total += check(*x).ok_or_else(|| format!(\"bad {x}\"))?;\n    }\n    Ok(total)\n  }\n}\nfn check(x: u64) -> Option<u64> { Some(x) }\n";
        let a = analyse(
            &[("crates/ssd/src/device.rs", "ssd", src)],
            &["ssd::device::SsdDevice::run_observed"],
        );
        assert!(a.findings.is_empty(), "{:#?}", a.findings);
    }

    #[test]
    fn error_construction_is_cold() {
        let src = "pub struct SsdDevice;\nimpl SsdDevice {\n  pub fn run_observed(&self, xs: &[u64]) -> Result<u64, SimError> {\n    let mut total = 0;\n    for x in xs {\n      if *x > 100 {\n        return Err(SimError::invalid_config(format!(\"bad {x}\"), format!(\"ctx\")));\n      }\n      total += self.classify(*x);\n    }\n    Ok(total)\n  }\n  fn classify(&self, x: u64) -> u64 { x }\n}\nfn overlap(x: u64) -> SimError {\n  SimError::corruption(format!(\"extent {x} overlaps\"))\n}\n";
        let a = analyse(
            &[("crates/ssd/src/device.rs", "ssd", src)],
            &["ssd::device::SsdDevice::run_observed"],
        );
        assert!(a.findings.is_empty(), "{:#?}", a.findings);
    }

    #[test]
    fn per_element_closures_inherit_loop_context() {
        let src = "pub struct SsdDevice;\nimpl SsdDevice {\n  pub fn run_observed(&self, xs: &[u64]) -> u64 {\n    xs.iter().map(|x| x.to_string().len() as u64).sum()\n  }\n}\n";
        let a = analyse(
            &[("crates/ssd/src/device.rs", "ssd", src)],
            &["ssd::device::SsdDevice::run_observed"],
        );
        assert_eq!(a.findings.len(), 1, "{:#?}", a.findings);
        assert!(a.findings[0].finding.message.contains("to_string"));
    }

    #[test]
    fn local_constructor_types_resolve_method_edges() {
        let dev = "pub struct Engine;\nimpl Engine {\n  pub fn fresh() -> Engine { Engine }\n  pub fn step(&self) -> u64 { vec![1u8].len() as u64 }\n}\n";
        let root = "pub struct SsdDevice;\nimpl SsdDevice {\n  pub fn run_observed(&self, n: u64) -> u64 {\n    let e = crate::engine::Engine::fresh();\n    let mut total = 0;\n    for _ in 0..n { total += e.step(); }\n    total\n  }\n}\n";
        let a = analyse(
            &[
                ("crates/ssd/src/engine.rs", "ssd", dev),
                ("crates/ssd/src/device.rs", "ssd", root),
            ],
            &["ssd::device::SsdDevice::run_observed"],
        );
        assert_eq!(a.findings.len(), 1, "{:#?}", a.findings);
        assert!(a.findings[0].finding.message.contains("vec![]"));
        assert_eq!(a.findings[0].path, "crates/ssd/src/engine.rs");
    }
}
