//! Concurrency-safety passes: atomic publication ordering and the
//! workspace lock-acquisition order.
//!
//! Both passes keep unsynchronized concurrency patterns from landing
//! silently (docs/CONCURRENCY.md). They are never allowlistable — a
//! publication race or a lock-order cycle is a bug, not debt.
//!
//! ## `atomic_ordering`
//!
//! Flags `Ordering::Relaxed` atomic accesses that carry *data* between
//! threads, where `Relaxed` provides no happens-before edge:
//!
//! * **publish**: a `store(_, Relaxed)` preceded (in the same function)
//!   by a write to some other location — the classic unsynchronized
//!   flag/data publication; the store needs `Release`.
//! * **consume**: a `load(Relaxed)` guarding an `if`/`while` whose body
//!   reads some other location — the matching consumer side; the load
//!   needs `Acquire`.
//!
//! Pure counters and standalone flags (no foreign write before the
//! store, no foreign read behind the load) stay clean.
//!
//! ## `lock_order`
//!
//! Builds the workspace-wide lock-acquisition graph: an edge `a → b`
//! whenever lock `b` is acquired while `a` is held — directly, or
//! through a call chain (function summaries over the symbol index, to a
//! fixpoint). Any cycle in the graph is an AB-BA deadlock waiting for
//! the right interleaving; every edge on a cycle is reported at its
//! acquisition site.
//!
//! Locks are identified by *name* (field, local, or `Self` type for
//! `self.lock()` helpers), which is heuristic but deterministic:
//! distinct mutexes sharing a name can false-positive, and aliased
//! mutexes under different names can false-negative. Re-acquiring the
//! same name is not reported (self-edges are dropped): that is a
//! runtime single-thread deadlock, not a static order inversion.
//! `drop(guard)` releases the binding; guards bound by `let` live to
//! the end of their block.

use crate::ast::{self, Block, Expr, ExprKind, FnDef, Item, ItemKind, Stmt};
use crate::parser::Span;
use crate::resolve::{FileAst, Index};
use crate::rules::{Finding, Rule};
use crate::Located;
use std::collections::{BTreeMap, BTreeSet};

/// Methods that mutate their receiver: treated as data writes the
/// publish check can pair with a later `Relaxed` store.
const WRITE_METHODS: [&str; 6] = [
    "set",
    "push",
    "insert",
    "write",
    "extend",
    "copy_from_slice",
];

/// Methods that observe their receiver: treated as data reads the
/// consume check can pair with a guarding `Relaxed` load.
const READ_METHODS: [&str; 4] = ["get", "read", "with", "len"];

/// Runs both passes over the parsed workspace. `atomic_scope` /
/// `lock_scope` filter which files *findings* may land in; the lock
/// graph itself is built workspace-wide so cross-crate cycles are seen.
pub fn run(
    files: &[FileAst],
    index: &Index,
    atomic_scope: &dyn Fn(&str) -> bool,
    lock_scope: &dyn Fn(&str) -> bool,
) -> Vec<Located> {
    let mut out = atomic_ordering(files, atomic_scope);
    out.extend(lock_order(files, index, lock_scope));
    out
}

/// Walks non-test fns with their canonical path and enclosing
/// `impl` type (for naming `self` receivers).
fn visit_fns(
    items: &[Item],
    module: &[String],
    self_ty: Option<&str>,
    file: &FileAst,
    f: &mut impl FnMut(&FnDef, Option<&str>, String),
) {
    for item in items {
        if item.cfg_test || file.line_in_test(item.span.line) {
            continue;
        }
        match &item.kind {
            ItemKind::Fn(fd) => {
                let mut segs = module.to_vec();
                if let Some(ty) = self_ty {
                    if !ty.is_empty() {
                        segs.push(ty.to_string());
                    }
                }
                segs.push(fd.name.clone());
                f(fd, self_ty, segs.join("::"));
            }
            ItemKind::Mod { name, items } => {
                let mut sub = module.to_vec();
                sub.push(name.clone());
                visit_fns(items, &sub, None, file, f);
            }
            ItemKind::Impl { self_ty, items } => {
                visit_fns(items, module, Some(self_ty), file, f);
            }
            ItemKind::Trait { items, .. } => visit_fns(items, module, None, file, f),
            _ => {}
        }
    }
}

/// Best-effort name of the location an access expression designates:
/// a field access by its whole receiver path (`data.value`), the
/// local/static identifier, or (for a bare `self` receiver) the
/// enclosing `impl` type.
fn place_name(expr: &Expr, self_ty: Option<&str>) -> Option<String> {
    match &expr.kind {
        ExprKind::Path(segs) => match segs.last().map(String::as_str) {
            Some("self") => Some(self_ty.unwrap_or("self").to_string()),
            Some(last) => Some(last.to_string()),
            None => None,
        },
        ExprKind::Field { base, name } => Some(match place_name(base, self_ty) {
            Some(base) => format!("{base}.{name}"),
            None => name.clone(),
        }),
        ExprKind::MethodCall { method, .. } => Some(method.clone()),
        ExprKind::Unary { operand, .. } => place_name(operand, self_ty),
        ExprKind::Index { base, .. } => place_name(base, self_ty),
        ExprKind::Try(inner) => place_name(inner, self_ty),
        _ => None,
    }
}

/// The name `lock_order` identifies a lock by: a field lock by its
/// field alone, so `self.queue` and `pool.queue` are one lock (the
/// name heuristic of the module doc).
fn lock_name(expr: &Expr, self_ty: Option<&str>) -> Option<String> {
    let place = place_name(expr, self_ty)?;
    Some(match place.rsplit_once('.') {
        Some((_, field)) => field.to_string(),
        None => place,
    })
}

/// Is this expression literally `Ordering::Relaxed` (any path prefix)?
fn is_relaxed(expr: &Expr) -> bool {
    matches!(&expr.kind, ExprKind::Path(segs) if segs.last().map(String::as_str) == Some("Relaxed"))
}

// ---------------------------------------------------------------------
// atomic_ordering
// ---------------------------------------------------------------------

/// One ordered memory access the publish check cares about.
enum Access {
    /// A write to `place` (assignment or mutating method call).
    Write(String),
    /// `place.store(_, Ordering::Relaxed)`.
    RelaxedStore(String, Span),
}

fn atomic_ordering(files: &[FileAst], in_scope: &dyn Fn(&str) -> bool) -> Vec<Located> {
    let mut out = Vec::new();
    for file in files {
        if !in_scope(&file.path) {
            continue;
        }
        let mut findings: Vec<Finding> = Vec::new();
        visit_fns(
            &file.ast.items,
            &file.module,
            None,
            file,
            &mut |fd, self_ty, _| {
                let Some(body) = &fd.body else { return };
                check_publish(body, self_ty, &mut findings);
                ast::block_exprs(body, false, &mut |e| {
                    check_consume(e, self_ty, &mut findings);
                });
            },
        );
        findings.sort_by_key(|f| (f.line, f.col));
        let mut seen = BTreeSet::new();
        for finding in findings {
            if seen.insert((finding.line, finding.col, finding.message.clone())) {
                out.push(Located {
                    path: file.path.clone(),
                    finding,
                });
            }
        }
    }
    out
}

/// Publish side: a `Relaxed` store preceded by a write elsewhere.
fn check_publish(body: &Block, self_ty: Option<&str>, findings: &mut Vec<Finding>) {
    let mut accesses = Vec::new();
    ast::block_exprs(body, false, &mut |e| {
        collect_accesses(e, self_ty, &mut accesses)
    });
    let mut written: Vec<String> = Vec::new();
    for access in accesses {
        match access {
            Access::Write(place) => written.push(place),
            Access::RelaxedStore(place, span) => {
                if let Some(prior) = written.iter().find(|w| **w != place) {
                    findings.push(Finding {
                        rule: Rule::AtomicOrdering,
                        line: span.line,
                        col: span.col,
                        message: format!(
                            "`{place}.store(_, Ordering::Relaxed)` publishes the earlier \
                             write to `{prior}` without a release edge; use \
                             `Ordering::Release` (and `Acquire` on the readers)"
                        ),
                    });
                }
            }
        }
    }
}

fn collect_accesses(expr: &Expr, self_ty: Option<&str>, out: &mut Vec<Access>) {
    match &expr.kind {
        ExprKind::MethodCall { recv, method, args } => {
            collect_accesses(recv, self_ty, out);
            for arg in args {
                collect_accesses(arg, self_ty, out);
            }
            let Some(place) = place_name(recv, self_ty) else {
                return;
            };
            if method == "store" && args.len() == 2 && is_relaxed(&args[1]) {
                out.push(Access::RelaxedStore(place, expr.span));
            } else if WRITE_METHODS.contains(&method.as_str()) {
                out.push(Access::Write(place));
            }
        }
        ExprKind::Assign { lhs, rhs, .. } => {
            collect_accesses(rhs, self_ty, out);
            if let Some(place) = place_name(lhs, self_ty) {
                out.push(Access::Write(place));
            }
        }
        _ => {
            ast::expr_children(expr, false, &mut |child| {
                collect_accesses(child, self_ty, out);
            });
        }
    }
}

/// Consume side: a `Relaxed` load guarding a branch that reads other
/// state.
fn check_consume(expr: &Expr, self_ty: Option<&str>, findings: &mut Vec<Finding>) {
    if let ExprKind::If { cond, then, .. } | ExprKind::While { cond, body: then } = &expr.kind {
        let mut loads = Vec::new();
        relaxed_loads(cond, self_ty, &mut loads);
        for (flag, span) in loads {
            if let Some(read) = foreign_read(then, &flag, self_ty) {
                findings.push(Finding {
                    rule: Rule::AtomicOrdering,
                    line: span.line,
                    col: span.col,
                    message: format!(
                        "`{flag}.load(Ordering::Relaxed)` guards a read of `{read}` \
                         without an acquire edge; use `Ordering::Acquire` (and \
                         `Release` on the writer)"
                    ),
                });
            }
        }
    }
    ast::expr_children(expr, false, &mut |child| {
        check_consume(child, self_ty, findings);
    });
}

/// Collects `place.load(Ordering::Relaxed)` occurrences in `expr`.
fn relaxed_loads(expr: &Expr, self_ty: Option<&str>, out: &mut Vec<(String, Span)>) {
    if let ExprKind::MethodCall { recv, method, args } = &expr.kind {
        if method == "load" && args.len() == 1 && is_relaxed(&args[0]) {
            if let Some(place) = place_name(recv, self_ty) {
                out.push((place, expr.span));
            }
        }
    }
    ast::expr_children(expr, false, &mut |child| relaxed_loads(child, self_ty, out));
}

/// Finds a read of some place other than `flag` inside `block`: a field
/// access or an observing method call.
fn foreign_read(block: &Block, flag: &str, self_ty: Option<&str>) -> Option<String> {
    let mut found = None;
    let mut visit = |expr: &Expr| {
        let place = match &expr.kind {
            ExprKind::Field { .. } => place_name(expr, self_ty),
            ExprKind::MethodCall { recv, method, .. }
                if READ_METHODS.contains(&method.as_str()) =>
            {
                place_name(recv, self_ty)
            }
            _ => None,
        };
        if let Some(place) = place {
            if place != flag && found.is_none() {
                found = Some(place);
            }
        }
    };
    walk_block(block, &mut visit);
    found
}

/// Applies `f` to `expr` and every descendant expression. Unlike
/// [`ast::visit_expr`], the walk does not enter nested `fn` items: code
/// in them runs only when called, not where it is written.
fn walk_exprs(expr: &Expr, f: &mut impl FnMut(&Expr)) {
    f(expr);
    ast::expr_children(expr, false, &mut |child| walk_exprs(child, f));
}

/// Applies `f` to every expression of `block`'s statements, nested
/// `fn` items excluded (see [`walk_exprs`]).
fn walk_block(block: &Block, f: &mut impl FnMut(&Expr)) {
    ast::block_exprs(block, false, &mut |e| walk_exprs(e, f));
}

// ---------------------------------------------------------------------
// lock_order
// ---------------------------------------------------------------------

/// One `a → b` acquisition-order edge with its recorded sites.
type EdgeMap = BTreeMap<(String, String), BTreeSet<(String, usize, usize)>>;

fn lock_order(files: &[FileAst], index: &Index, in_scope: &dyn Fn(&str) -> bool) -> Vec<Located> {
    // Fixpoint over "locks this fn may acquire" summaries, so an edge is
    // also drawn when the inner acquisition happens inside a callee.
    let mut summaries: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for _ in 0..8 {
        let mut changed = false;
        for file in files {
            visit_fns(
                &file.ast.items,
                &file.module,
                None,
                file,
                &mut |fd, self_ty, path| {
                    let Some(body) = &fd.body else { return };
                    let mut acquired = BTreeSet::new();
                    collect_lock_summary(body, self_ty, file, index, &summaries, &mut acquired);
                    let entry = summaries.entry(path).or_default();
                    if !acquired.is_subset(entry) {
                        entry.extend(acquired);
                        changed = true;
                    }
                },
            );
        }
        if !changed {
            break;
        }
    }
    // Edge collection: workspace-wide, so cross-crate inversions meet.
    let mut edges = EdgeMap::new();
    for file in files {
        visit_fns(
            &file.ast.items,
            &file.module,
            None,
            file,
            &mut |fd, self_ty, _| {
                let Some(body) = &fd.body else { return };
                let mut walker = LockWalker {
                    file,
                    index,
                    summaries: &summaries,
                    self_ty,
                    held: Vec::new(),
                    edges: &mut edges,
                };
                walker.block(body);
            },
        );
    }
    // Cycle check: report every edge that sits on a cycle, at each of
    // its recorded in-scope sites.
    let graph: BTreeMap<&str, BTreeSet<&str>> = edges.keys().fold(
        BTreeMap::new(),
        |mut g: BTreeMap<&str, BTreeSet<&str>>, (a, b)| {
            g.entry(a).or_default().insert(b);
            g
        },
    );
    let mut out = Vec::new();
    for ((a, b), sites) in &edges {
        let Some(path_back) = reach(&graph, b, a) else {
            continue;
        };
        let cycle: Vec<&str> = std::iter::once(a.as_str())
            .chain(path_back.iter().copied())
            .collect();
        for (file, line, col) in sites {
            if !in_scope(file) {
                continue;
            }
            out.push(Located {
                path: file.clone(),
                finding: Finding {
                    rule: Rule::LockOrder,
                    line: *line,
                    col: *col,
                    message: format!(
                        "lock `{b}` is acquired while `{a}` is held, closing the \
                         acquisition-order cycle {}; two threads entering it from \
                         opposite ends deadlock",
                        cycle.join(" -> ")
                    ),
                },
            });
        }
    }
    out
}

/// BFS from `from` to `to`; returns the full node path `[from, .., to]`
/// if reachable.
fn reach<'a>(
    graph: &BTreeMap<&'a str, BTreeSet<&'a str>>,
    from: &'a str,
    to: &str,
) -> Option<Vec<&'a str>> {
    let mut prev: BTreeMap<&str, &str> = BTreeMap::new();
    let mut queue = std::collections::VecDeque::from([from]);
    let mut seen = BTreeSet::from([from]);
    while let Some(node) = queue.pop_front() {
        if node == to {
            let mut path = vec![node];
            let mut cur = node;
            while let Some(&p) = prev.get(cur) {
                path.push(p);
                cur = p;
            }
            path.reverse(); // now `[from, .., to]`
            return Some(path);
        }
        for &next in graph.get(node).into_iter().flatten() {
            if seen.insert(next) {
                prev.insert(next, node);
                queue.push_back(next);
            }
        }
    }
    None
}

/// Direct + transitive lock names a function body may acquire.
fn collect_lock_summary(
    block: &Block,
    self_ty: Option<&str>,
    file: &FileAst,
    index: &Index,
    summaries: &BTreeMap<String, BTreeSet<String>>,
    out: &mut BTreeSet<String>,
) {
    let mut visit = |expr: &Expr| match &expr.kind {
        ExprKind::MethodCall { recv, method, .. } if method == "lock" => {
            if let Some(name) = lock_name(recv, self_ty) {
                out.insert(name);
            }
        }
        _ => {
            if let Some(path) = callee_path(expr, file, index) {
                if let Some(locks) = summaries.get(&path) {
                    out.extend(locks.iter().cloned());
                }
            }
        }
    };
    walk_block(block, &mut visit);
}

/// Resolves a call expression to its canonical target path, if the
/// symbol index knows it unambiguously.
fn callee_path(expr: &Expr, file: &FileAst, index: &Index) -> Option<String> {
    let resolved = match &expr.kind {
        ExprKind::Call { callee, .. } => match &callee.kind {
            ExprKind::Path(segs) => file.resolve(segs),
            _ => return None,
        },
        // Method targets resolve by bare name only when unique
        // workspace-wide; ambiguity keeps the pass quiet.
        ExprKind::MethodCall { method, .. } if method != "lock" => vec![method.clone()],
        _ => return None,
    };
    index.lookup(&resolved).map(|sig| sig.path.clone())
}

/// Sees through std's poison adapters: `m.lock().unwrap_or_else(..)`,
/// `.unwrap()` and `.expect(..)` bind the same guard as `m.lock()`.
fn guard_init(init: &Expr) -> &Expr {
    match &init.kind {
        ExprKind::MethodCall { recv, method, .. }
            if matches!(method.as_str(), "unwrap_or_else" | "unwrap" | "expect") =>
        {
            guard_init(recv)
        }
        _ => init,
    }
}

/// Statement walker tracking which locks are held, drawing an edge for
/// every acquisition (direct or via callee summary) under a held lock.
struct LockWalker<'a> {
    file: &'a FileAst,
    index: &'a Index,
    summaries: &'a BTreeMap<String, BTreeSet<String>>,
    self_ty: Option<&'a str>,
    /// Held locks as `(guard binding, lock name)`.
    held: Vec<(Option<String>, String)>,
    edges: &'a mut EdgeMap,
}

impl LockWalker<'_> {
    fn block(&mut self, block: &Block) {
        let depth = self.held.len();
        for stmt in &block.stmts {
            match stmt {
                Stmt::Let {
                    name,
                    init: Some(init),
                    ..
                } => {
                    if let ExprKind::MethodCall { recv, method, args } = &guard_init(init).kind {
                        if method == "lock" && args.is_empty() {
                            // `let guard = place.lock();` — held until the
                            // end of this block or an explicit `drop`.
                            if let Some(lock) = lock_name(recv, self.self_ty) {
                                self.acquire(&lock, init.span);
                                self.held.push((name.clone(), lock));
                                continue;
                            }
                        }
                    }
                    self.expr(init);
                }
                Stmt::Expr { expr, .. } => {
                    if let Some(guard) = dropped_guard(expr) {
                        if let Some(pos) = self
                            .held
                            .iter()
                            .rposition(|(g, _)| g.as_deref() == Some(guard))
                        {
                            self.held.remove(pos);
                            continue;
                        }
                    }
                    self.expr(expr);
                }
                Stmt::Let { init: None, .. } | Stmt::Item(_) => {}
            }
        }
        self.held.truncate(depth);
    }

    fn expr(&mut self, expr: &Expr) {
        match &expr.kind {
            ExprKind::MethodCall { recv, method, args } if method == "lock" => {
                self.expr(recv);
                for arg in args {
                    self.expr(arg);
                }
                // Temporary guard: dropped at the end of the statement,
                // but its acquisition still orders against held locks.
                if let Some(lock) = lock_name(recv, self.self_ty) {
                    self.acquire(&lock, expr.span);
                }
            }
            ExprKind::If { cond, then, els } => {
                self.expr(cond);
                self.block(then);
                if let Some(e) = els {
                    self.expr(e);
                }
            }
            ExprKind::While { cond, body } => {
                self.expr(cond);
                self.block(body);
            }
            ExprKind::For { iter, body, .. } => {
                self.expr(iter);
                self.block(body);
            }
            ExprKind::Loop { body } => self.block(body),
            ExprKind::Block(b) => self.block(b),
            _ => {
                ast::expr_children(expr, false, &mut |child| self.expr(child));
                if let Some(path) = callee_path(expr, self.file, self.index) {
                    if let Some(locks) = self.summaries.get(&path) {
                        for lock in locks.clone() {
                            self.acquire(&lock, expr.span);
                        }
                    }
                }
            }
        }
    }

    /// Records `held → lock` edges (same-name re-acquisition excluded).
    fn acquire(&mut self, lock: &str, span: Span) {
        for (_, held) in &self.held {
            if held != lock {
                self.edges
                    .entry((held.clone(), lock.to_string()))
                    .or_default()
                    .insert((self.file.path.clone(), span.line, span.col));
            }
        }
    }
}

/// Matches `drop(guard)` and returns the guard name.
fn dropped_guard(expr: &Expr) -> Option<&str> {
    let ExprKind::Call { callee, args } = &expr.kind else {
        return None;
    };
    let ExprKind::Path(segs) = &callee.kind else {
        return None;
    };
    if segs.last().map(String::as_str) != Some("drop") || args.len() != 1 {
        return None;
    }
    match &args[0].kind {
        ExprKind::Path(arg) if arg.len() == 1 => arg.first().map(String::as_str),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolve::{FileAst, Index};

    fn scan(src: &str) -> Vec<Located> {
        let file = FileAst::parse("crates/ssd/src/lib.rs", "ssd", src);
        let files = [file];
        let index = Index::build(&files);
        run(&files, &index, &|_| true, &|_| true)
    }

    #[test]
    fn relaxed_publish_and_consume_fire_and_strong_orders_do_not() {
        let found = scan(
            "pub fn publish(d: &mut Slot, ready: &AtomicBool) {\n\
             d.value = 7;\n\
             ready.store(true, Ordering::Relaxed);\n\
             }\n\
             pub fn consume(ready: &AtomicBool, d: &Slot) -> u64 {\n\
             if ready.load(Ordering::Relaxed) { d.value } else { 0 }\n\
             }\n\
             pub fn fine(d: &mut Slot, ready: &AtomicBool) {\n\
             d.value = 7;\n\
             ready.store(true, Ordering::Release);\n\
             if ready.load(Ordering::Acquire) { let _v = d.value; }\n\
             }\n\
             pub fn counter(hits: &AtomicUsize) {\n\
             hits.store(0, Ordering::Relaxed);\n\
             if hits.load(Ordering::Relaxed) { return; }\n\
             }\n",
        );
        let atomic: Vec<_> = found
            .iter()
            .filter(|l| l.finding.rule == Rule::AtomicOrdering)
            .collect();
        assert_eq!(atomic.len(), 2, "{atomic:?}");
        assert!(atomic[0].finding.message.contains("publishes"));
        assert!(atomic[1].finding.message.contains("guards a read"));
    }

    /// Places are named by their whole receiver path: a write to
    /// `b.ready` is a foreign write for a store to `a.ready`, and a read
    /// of `b.ready` is a foreign read behind a load of `a.ready`.
    #[test]
    fn same_field_of_two_receivers_is_two_places() {
        let found = scan(
            "pub fn publish(a: &Flags, b: &mut Slot) {\n\
             b.ready = true;\n\
             a.ready.store(true, Ordering::Relaxed);\n\
             }\n\
             pub fn consume(a: &Flags, b: &Slot) -> bool {\n\
             if a.ready.load(Ordering::Relaxed) { b.ready } else { false }\n\
             }\n\
             pub fn same(a: &mut Flags) {\n\
             a.ready = AtomicBool::new(false);\n\
             a.ready.store(true, Ordering::Relaxed);\n\
             if a.ready.load(Ordering::Relaxed) { let _r = a.ready; }\n\
             }\n",
        );
        let atomic: Vec<(usize, usize, &str)> = found
            .iter()
            .filter(|l| l.finding.rule == Rule::AtomicOrdering)
            .map(|l| (l.finding.line, l.finding.col, l.finding.message.as_str()))
            .collect();
        assert_eq!(
            atomic,
            [
                (
                    3,
                    1,
                    "`a.ready.store(_, Ordering::Relaxed)` publishes the earlier write to \
                     `b.ready` without a release edge; use `Ordering::Release` (and \
                     `Acquire` on the readers)"
                ),
                (
                    6,
                    4,
                    "`a.ready.load(Ordering::Relaxed)` guards a read of `b.ready` without \
                     an acquire edge; use `Ordering::Acquire` (and `Release` on the writer)"
                ),
            ]
        );
    }

    /// A nested `fn` item runs only when called: the concurrency walks
    /// skip its body, while `ast::visit_exprs` (the taint and
    /// wildcard walks) enters it. Each nested fn would otherwise close a
    /// `Relaxed` publish or consume, at a block's top level and inside
    /// a nested block alike.
    #[test]
    fn nested_fn_bodies_are_skipped_here_and_entered_by_visit_exprs() {
        let src = "pub fn publish(d: &mut Slot, ready: &AtomicBool) {\n\
             fn fill(d: &mut Slot) { d.value = 7; }\n\
             fn poll(r: &AtomicBool, d: &Slot) -> u64 { if r.load(Ordering::Relaxed) { d.value } else { 0 } }\n\
             loop {\n\
             fn refill(d: &mut Slot) { d.value = 8; }\n\
             fn repoll(r: &AtomicBool, d: &Slot) -> u64 { if r.load(Ordering::Relaxed) { d.value } else { 0 } }\n\
             break;\n\
             }\n\
             ready.store(true, Ordering::Relaxed);\n\
             }\n\
             pub fn consume(ready: &AtomicBool) {\n\
             if ready.load(Ordering::Relaxed) {\n\
             fn peek(d: &Slot) -> u64 { d.value }\n\
             loop { fn poke(d: &Slot) -> u64 { d.value } break; }\n\
             }\n\
             }\n";
        let found = scan(src);
        assert!(found.is_empty(), "{found:?}");
        let file = FileAst::parse("crates/ssd/src/lib.rs", "ssd", src);
        let mut seen = Vec::new();
        ast::visit_fns(&file.ast.items, false, &mut |fd, _, _, _| {
            if let Some(body) = &fd.body {
                ast::visit_exprs(body, &mut |e| match &e.kind {
                    ExprKind::Assign { .. } => seen.push("=".to_string()),
                    ExprKind::MethodCall { method, .. } => seen.push(method.clone()),
                    ExprKind::Field { name, .. } => seen.push(name.clone()),
                    _ => {}
                });
            }
        });
        assert_eq!(
            seen,
            [
                "=", "value", "load", "value", "=", "value", "load", "value", "store", "load",
                "value", "value"
            ]
        );
    }

    #[test]
    fn aba_cycle_is_reported_and_drop_releases() {
        let found = scan(
            "pub fn fwd(a: &Mutex<u32>, b: &Mutex<u32>) {\n\
             let ga = a.lock();\n\
             let gb = b.lock();\n\
             drop(gb);\n\
             drop(ga);\n\
             }\n\
             pub fn bwd(a: &Mutex<u32>, b: &Mutex<u32>) {\n\
             let gb = b.lock();\n\
             let ga = a.lock();\n\
             drop(ga);\n\
             drop(gb);\n\
             }\n\
             pub fn released(a: &Mutex<u32>, c: &Mutex<u32>) {\n\
             let ga = a.lock();\n\
             drop(ga);\n\
             let gc = c.lock();\n\
             drop(gc);\n\
             }\n",
        );
        let locks: Vec<_> = found
            .iter()
            .filter(|l| l.finding.rule == Rule::LockOrder)
            .collect();
        assert_eq!(locks.len(), 2, "one per edge on the cycle: {locks:?}");
        assert!(locks[0].finding.message.contains("cycle"));
        // `c` never participates in a cycle (drop released `a` first).
        assert!(locks.iter().all(|l| !l.finding.message.contains("`c`")));
    }

    #[test]
    fn std_poison_adapters_still_hold_the_guard() {
        let found = scan(
            "pub fn fwd(a: &Mutex<u32>, b: &Mutex<u32>) {\n\
             let ga = a.lock().unwrap_or_else(PoisonError::into_inner);\n\
             let gb = b.lock().unwrap();\n\
             drop(gb);\n\
             drop(ga);\n\
             }\n\
             pub fn bwd(a: &Mutex<u32>, b: &Mutex<u32>) {\n\
             let gb = b.lock().unwrap_or_else(PoisonError::into_inner);\n\
             let ga = a.lock().unwrap_or_else(PoisonError::into_inner);\n\
             drop(ga);\n\
             drop(gb);\n\
             }\n",
        );
        let locks: Vec<_> = found
            .iter()
            .filter(|l| l.finding.rule == Rule::LockOrder)
            .collect();
        assert_eq!(locks.len(), 2, "one per edge on the cycle: {locks:?}");
    }

    #[test]
    fn interprocedural_edges_via_summaries() {
        let found = scan(
            "fn helper(b: &Mutex<u32>) { let gb = b.lock(); drop(gb); }\n\
             pub fn outer(a: &Mutex<u32>, b: &Mutex<u32>) {\n\
             let ga = a.lock();\n\
             helper(b);\n\
             drop(ga);\n\
             }\n\
             pub fn inverse(a: &Mutex<u32>, b: &Mutex<u32>) {\n\
             let gb = b.lock();\n\
             let ga = a.lock();\n\
             drop(ga);\n\
             drop(gb);\n\
             }\n",
        );
        let locks: Vec<_> = found
            .iter()
            .filter(|l| l.finding.rule == Rule::LockOrder)
            .collect();
        assert_eq!(locks.len(), 2, "call-site edge + direct edge: {locks:?}");
    }
}
