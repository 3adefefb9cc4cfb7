//! The lock-order pass: the workspace lock-acquisition graph has no
//! cycle (docs/CONCURRENCY.md). A lock-order cycle is a bug, not debt,
//! so the pass is never allowlistable. Atomics need no pass: clippy's
//! `disallowed_types` bans them from every `crates/*` package
//! (`crates/clippy.toml`).
//!
//! The pass builds the workspace-wide lock-acquisition graph: an edge
//! `a → b` whenever lock `b` is acquired while `a` is held — directly,
//! or through a call chain (function summaries over the symbol index,
//! to a fixpoint). Any cycle in the graph is an AB-BA deadlock waiting
//! for the right interleaving; every edge on a cycle is reported at its
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

use crate::ast::{self, Block, Expr, ExprKind, Stmt};
use crate::parser::Span;
use crate::resolve::{visit_fns_with_path, FileAst, Index};
use crate::rules::{Finding, Rule};
use crate::Located;
use std::collections::{BTreeMap, BTreeSet};

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

/// One `a → b` acquisition-order edge with its recorded sites.
type EdgeMap = BTreeMap<(String, String), BTreeSet<(String, usize, usize)>>;

/// Runs the pass over the parsed workspace. `in_scope` filters which
/// files *findings* may land in; the lock graph itself is built
/// workspace-wide so cross-crate cycles are seen.
pub fn run(files: &[FileAst], index: &Index, in_scope: &dyn Fn(&str) -> bool) -> Vec<Located> {
    // Fixpoint over "locks this fn may acquire" summaries, so an edge is
    // also drawn when the inner acquisition happens inside a callee.
    let mut summaries: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for _ in 0..8 {
        let mut changed = false;
        for file in files {
            visit_fns_with_path(
                &file.ast.items,
                &file.module,
                file,
                &mut |fd, path, _, _, self_ty| {
                    let Some(body) = &fd.body else { return };
                    let mut acquired = BTreeSet::new();
                    collect_lock_summary(body, self_ty, file, index, &summaries, &mut acquired);
                    let entry = summaries.entry(path.clone()).or_default();
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
        visit_fns_with_path(
            &file.ast.items,
            &file.module,
            file,
            &mut |fd, _, _, _, self_ty| {
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
    ast::visit_exprs(block, &mut visit);
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
                ast::expr_children(expr, &mut |child| self.expr(child));
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

    fn scan(src: &str) -> Vec<Located> {
        let file = FileAst::parse("crates/ssd/src/lib.rs", "ssd", src);
        let files = [file];
        let index = Index::build(&files);
        run(&files, &index, &|_| true)
    }

    /// A nested `fn` item runs only when called, so the lock walks skip
    /// its body. Each nested fn would otherwise take `b` under `a` and
    /// close the cycle `inverse` opens, at a block's top level and
    /// inside a nested block alike.
    #[test]
    fn nested_fn_bodies_are_skipped() {
        let src = "pub fn outer(a: &Mutex<u32>) {\n\
             let ga = a.lock();\n\
             fn take(b: &Mutex<u32>) { let gb = b.lock(); drop(gb); }\n\
             loop {\n\
             fn retake(b: &Mutex<u32>) { let gb = b.lock(); drop(gb); }\n\
             break;\n\
             }\n\
             drop(ga);\n\
             }\n\
             pub fn inverse(a: &Mutex<u32>, b: &Mutex<u32>) {\n\
             let gb = b.lock();\n\
             drop(gb);\n\
             let ga = a.lock();\n\
             drop(ga);\n\
             }\n";
        let found = scan(src);
        assert!(found.is_empty(), "{found:?}");
        // Both nested fns are in the AST: the walks skip them rather
        // than never seeing them.
        let file = FileAst::parse("crates/ssd/src/lib.rs", "ssd", src);
        let Some(ast::ItemKind::Fn(ast::FnDef {
            body: Some(body), ..
        })) = file.ast.items.first().map(|i| &i.kind)
        else {
            unreachable!("`outer` parses as a fn with a body")
        };
        let Some(Stmt::Expr { expr, .. }) = body.stmts.get(2) else {
            unreachable!("the third statement of `outer` is its loop")
        };
        let ExprKind::Loop { body: inner } = &expr.kind else {
            unreachable!("loop expected, got {:?}", expr.kind)
        };
        let nested_fns = |block: &Block| {
            block
                .stmts
                .iter()
                .filter(|s| {
                    matches!(
                        s,
                        Stmt::Item(ast::Item {
                            kind: ast::ItemKind::Fn(_),
                            ..
                        })
                    )
                })
                .count()
        };
        assert_eq!((nested_fns(body), nested_fns(inner)), (1, 1));
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
