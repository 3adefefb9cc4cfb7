//! Nondeterminism taint analysis.
//!
//! Sources (anything whose value differs between two runs of the same
//! input): wall clocks (`Instant::now`, `SystemTime`), OS entropy
//! (`thread_rng`, `from_entropy`, `RandomState`), default-hasher
//! map/set iteration (order is seeded per-process), pointer-to-integer
//! casts (ASLR), and environment reads (`std::env::var`; the one
//! sanctioned `RAYON_NUM_THREADS` site lives in `vendor/`, outside the
//! scanned scope, and the vendored pool's ordered-collect contract
//! keeps results thread-count-invariant).
//!
//! The pass tracks dataflow from those sources through local bindings
//! and call returns (a workspace-wide fixpoint over function
//! summaries), and reports when a tainted value:
//! * is returned from a `pub` function (it can feed results), or
//! * is passed to an observability sink (`Tracer`'s entry points on a
//!   binding declared as a `Tracer`, `Event` construction,
//!   `json_report`).
//!
//! Precision notes: `simobs::EventKind::Instant` is a simulated-time
//! event tag, not `std::time::Instant` — sources key on the resolved
//! path *shape* (`Instant::now`, `env::var`, ...), not bare names.

use crate::ast::{Block, Expr, ExprKind, FnDef, Item, ItemKind, Stmt};
use crate::parser::Span;
use crate::resolve::{visit_fns_with_path, FileAst, Index};
use crate::rules::{Finding, Rule};
use crate::Located;
use std::collections::{BTreeMap, BTreeSet};

/// Hash-collection type names whose default iteration order is
/// nondeterministic.
const HASH_TYPES: [&str; 2] = ["HashMap", "HashSet"];

/// `simobs::Tracer`'s recording entry points: each is a sink when called
/// on a binding whose declared type is `Tracer`.
const TRACER_METHODS: [&str; 6] = [
    "span",
    "instant",
    "count",
    "gauge",
    "observe_ns",
    "observe_hdr_ns",
];

/// Methods that observe a hash collection in iteration order.
const HASH_ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Runs the pass over all parsed files. `in_scope` filters which files
/// the *findings* apply to; summaries are still computed workspace-wide
/// so taint crossing crate boundaries is seen.
pub fn run(files: &[FileAst], index: &Index, in_scope: &dyn Fn(&str) -> bool) -> Vec<Located> {
    // Fixpoint over "returns tainted" summaries.
    let mut summaries: BTreeSet<String> = BTreeSet::new();
    for _ in 0..8 {
        let mut changed = false;
        for file in files {
            let ctx = Ctx {
                file,
                index,
                summaries: &summaries,
                findings: Vec::new(),
                collect: false,
            };
            let mut tainted_fns = Vec::new();
            visit_fns_with_path(
                &file.ast.items,
                &file.module,
                file,
                &mut |fd, path, _, _| {
                    if fd.body.is_some() && ctx.fn_returns_tainted(fd) {
                        tainted_fns.push(path.clone());
                    }
                },
            );
            for path in tainted_fns {
                if summaries.insert(path) {
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    // Reporting pass.
    let mut out = Vec::new();
    for file in files {
        if !in_scope(&file.path) {
            continue;
        }
        let mut ctx = Ctx {
            file,
            index,
            summaries: &summaries,
            findings: Vec::new(),
            collect: true,
        };
        visit_fns_with_path(
            &file.ast.items,
            &file.module,
            file,
            &mut |fd, _, is_pub, span| {
                ctx.check_fn(fd, is_pub, span);
            },
        );
        let mut seen = BTreeSet::new();
        for finding in ctx.findings {
            if seen.insert((finding.line, finding.message.clone())) {
                out.push(Located {
                    path: file.path.clone(),
                    finding,
                });
            }
        }
    }
    out
}

struct Ctx<'a> {
    file: &'a FileAst,
    index: &'a Index,
    summaries: &'a BTreeSet<String>,
    findings: Vec<Finding>,
    collect: bool,
}

/// Per-function dataflow state.
#[derive(Default)]
struct Env {
    /// Tainted local names → source description.
    tainted: BTreeMap<String, String>,
    /// Locals known to be hash collections (for iteration-order taint).
    hash_locals: BTreeSet<String>,
    /// Parameters and locals declared as (or built as) a `Tracer`.
    tracers: BTreeSet<String>,
}

impl<'a> Ctx<'a> {
    /// Does this fn's return value carry taint? (Summary computation.)
    fn fn_returns_tainted(&self, fd: &FnDef) -> bool {
        let Some(body) = &fd.body else {
            return false;
        };
        let env = self.flow_block(body, Env::default());
        self.block_return_taint(body, &env).is_some()
    }

    /// Reporting: emit findings for one fn.
    fn check_fn(&mut self, fd: &FnDef, is_pub: bool, span: Span) {
        let Some(body) = &fd.body else {
            return;
        };
        let tracers = fd
            .params
            .iter()
            .filter(|p| self.is_ty(&p.ty.base, &["Tracer"]));
        let env = Env {
            tracers: tracers.map(|p| p.name.clone()).collect(),
            ..Env::default()
        };
        let env = self.flow_block(body, env);
        self.scan_sinks_block(body, &env);
        if is_pub {
            if let Some(source) = self.block_return_taint(body, &env) {
                self.findings.push(Finding {
                    rule: Rule::NondetTaint,
                    line: span.line,
                    col: span.col,
                    message: format!(
                        "nondeterministic value ({source}) flows into the return of `pub fn {}`; results must be bit-identical across runs — derive the value from simulated state or a seeded stream",
                        fd.name
                    ),
                });
            }
        }
    }

    /// Propagates taint through a block's statements (two passes so a
    /// later assignment feeding an earlier loop body is still seen).
    fn flow_block(&self, block: &Block, mut env: Env) -> Env {
        for _ in 0..2 {
            for stmt in &block.stmts {
                self.flow_stmt(stmt, &mut env);
            }
        }
        env
    }

    fn flow_stmt(&self, stmt: &Stmt, env: &mut Env) {
        match stmt {
            Stmt::Let { name, ty, init, .. } => {
                let is = |names: &[&str]| {
                    ty.as_ref().is_some_and(|t| self.is_ty(&t.base, names))
                        || init.as_ref().is_some_and(|e| self.inits(e, names))
                };
                if let (true, Some(n)) = (is(&HASH_TYPES), name.as_ref()) {
                    env.hash_locals.insert(n.clone());
                }
                if let (true, Some(n)) = (is(&["Tracer"]), name.as_ref()) {
                    env.tracers.insert(n.clone());
                }
                if let (Some(n), Some(e)) = (name.as_ref(), init.as_ref()) {
                    if let Some(src) = self.expr_taint(e, env) {
                        env.tainted.insert(n.clone(), src);
                    }
                }
                // Nested control flow inside the initialiser.
                if let Some(e) = init {
                    self.flow_nested(e, env);
                }
            }
            Stmt::Expr { expr, .. } => {
                if let ExprKind::Assign { lhs, rhs, .. } = &expr.kind {
                    if let ExprKind::Path(segs) = &lhs.kind {
                        if let [name] = segs.as_slice() {
                            if let Some(src) = self.expr_taint(rhs, env) {
                                env.tainted.insert(name.clone(), src);
                            }
                        }
                    }
                }
                self.flow_nested(expr, env);
            }
            Stmt::Item(_) => {}
        }
    }

    /// Recurses into nested blocks (if/match/loops/closures) so their
    /// `let`s and assignments update the env too.
    fn flow_nested(&self, expr: &Expr, env: &mut Env) {
        match &expr.kind {
            ExprKind::If { cond, then, els } => {
                self.flow_nested(cond, env);
                for stmt in &then.stmts {
                    self.flow_stmt(stmt, env);
                }
                if let Some(e) = els {
                    self.flow_nested(e, env);
                }
            }
            ExprKind::Match { scrutinee, arms } => {
                self.flow_nested(scrutinee, env);
                for arm in arms {
                    self.flow_nested(&arm.body, env);
                }
            }
            ExprKind::While { cond, body } => {
                self.flow_nested(cond, env);
                for stmt in &body.stmts {
                    self.flow_stmt(stmt, env);
                }
            }
            ExprKind::For { iter, body, .. } => {
                self.flow_nested(iter, env);
                for stmt in &body.stmts {
                    self.flow_stmt(stmt, env);
                }
            }
            ExprKind::Loop { body } | ExprKind::Block(body) => {
                for stmt in &body.stmts {
                    self.flow_stmt(stmt, env);
                }
            }
            ExprKind::Closure { body, .. } => self.flow_nested(body, env),
            ExprKind::Call { callee, args } => {
                self.flow_nested(callee, env);
                for a in args {
                    self.flow_nested(a, env);
                }
            }
            ExprKind::MethodCall { recv, args, .. } => {
                self.flow_nested(recv, env);
                for a in args {
                    self.flow_nested(a, env);
                }
            }
            ExprKind::Binary { lhs, rhs, .. } | ExprKind::Assign { lhs, rhs, .. } => {
                self.flow_nested(lhs, env);
                self.flow_nested(rhs, env);
            }
            ExprKind::Unary { operand, .. } | ExprKind::Cast { operand, .. } => {
                self.flow_nested(operand, env);
            }
            ExprKind::Try(e) => self.flow_nested(e, env),
            ExprKind::Return(Some(e)) | ExprKind::Break(Some(e)) => self.flow_nested(e, env),
            _ => {}
        }
    }

    /// The taint source reaching a fn's return value, if any.
    fn block_return_taint(&self, block: &Block, env: &Env) -> Option<String> {
        let mut found = None;
        // Explicit `return expr` anywhere.
        crate::ast::visit_exprs(block, &mut |e| {
            if found.is_some() {
                return;
            }
            if let ExprKind::Return(Some(v)) = &e.kind {
                found = self.expr_taint(v, env);
            }
        });
        if found.is_some() {
            return found;
        }
        // Trailing expression.
        match block.stmts.last() {
            Some(Stmt::Expr {
                expr,
                has_semi: false,
            }) => self.tail_taint(expr, env),
            _ => None,
        }
    }

    /// Taint of a value-producing tail expression (descends into
    /// if/match/block tails).
    fn tail_taint(&self, expr: &Expr, env: &Env) -> Option<String> {
        match &expr.kind {
            ExprKind::If { then, els, .. } => {
                if let Some(t) = self.block_tail_taint(then, env) {
                    return Some(t);
                }
                els.as_ref().and_then(|e| self.tail_taint(e, env))
            }
            ExprKind::Match { arms, .. } => {
                arms.iter().find_map(|arm| self.tail_taint(&arm.body, env))
            }
            ExprKind::Block(b) => self.block_tail_taint(b, env),
            _ => self.expr_taint(expr, env),
        }
    }

    fn block_tail_taint(&self, block: &Block, env: &Env) -> Option<String> {
        match block.stmts.last() {
            Some(Stmt::Expr {
                expr,
                has_semi: false,
            }) => self.tail_taint(expr, env),
            _ => None,
        }
    }

    /// Is the expression tainted? Returns the source description.
    fn expr_taint(&self, expr: &Expr, env: &Env) -> Option<String> {
        // Direct source at this node?
        if let Some(src) = self.node_source(expr, env) {
            return Some(src);
        }
        match &expr.kind {
            ExprKind::Path(segs) => match segs.as_slice() {
                [name] => env.tainted.get(name).cloned(),
                _ => None,
            },
            ExprKind::Lit(_) => None,
            ExprKind::Call { callee, args } => {
                // Calls into fns summarised as returning taint.
                if let ExprKind::Path(segs) = &callee.kind {
                    let resolved = self.file.resolve(segs);
                    if self.summaries.contains(&resolved.join("::")) {
                        return Some(format!(
                            "return of `{}`, which itself returns a nondeterministic value",
                            segs.join("::")
                        ));
                    }
                    if let Some(sig) = self.index.lookup(&resolved) {
                        if self.summaries.contains(&sig.path) {
                            return Some(format!(
                                "return of `{}`, which itself returns a nondeterministic value",
                                segs.join("::")
                            ));
                        }
                    }
                }
                args.iter().find_map(|a| self.expr_taint(a, env))
            }
            ExprKind::MethodCall { recv, args, .. } => self
                .expr_taint(recv, env)
                .or_else(|| args.iter().find_map(|a| self.expr_taint(a, env))),
            ExprKind::Field { base, .. } => self.expr_taint(base, env),
            ExprKind::Binary { lhs, rhs, .. } => self
                .expr_taint(lhs, env)
                .or_else(|| self.expr_taint(rhs, env)),
            ExprKind::Unary { operand, .. } | ExprKind::Cast { operand, .. } => {
                self.expr_taint(operand, env)
            }
            ExprKind::Macro { args, .. } => args.iter().find_map(|a| self.expr_taint(a, env)),
            ExprKind::Match { scrutinee, arms } => self
                .expr_taint(scrutinee, env)
                .or_else(|| arms.iter().find_map(|a| self.expr_taint(&a.body, env))),
            ExprKind::If { cond, then, els } => self
                .expr_taint(cond, env)
                .or_else(|| self.block_tail_taint(then, env))
                .or_else(|| els.as_ref().and_then(|e| self.expr_taint(e, env))),
            ExprKind::Block(b) => self.block_tail_taint(b, env),
            ExprKind::Closure { body, .. } => self.expr_taint(body, env),
            ExprKind::Try(e) => self.expr_taint(e, env),
            ExprKind::Index { base, index } => self
                .expr_taint(base, env)
                .or_else(|| self.expr_taint(index, env)),
            ExprKind::Tuple(es) | ExprKind::Array(es) | ExprKind::Unknown(es) => {
                es.iter().find_map(|e| self.expr_taint(e, env))
            }
            ExprKind::StructLit { fields, .. } => {
                fields.iter().find_map(|(_, e)| self.expr_taint(e, env))
            }
            ExprKind::Range { lo, hi } => lo
                .as_ref()
                .and_then(|e| self.expr_taint(e, env))
                .or_else(|| hi.as_ref().and_then(|e| self.expr_taint(e, env))),
            _ => None,
        }
    }

    /// Is this node *itself* a nondeterminism source?
    fn node_source(&self, expr: &Expr, env: &Env) -> Option<String> {
        match &expr.kind {
            ExprKind::Path(segs) => self.path_source(segs),
            ExprKind::Call { callee, .. } => match &callee.kind {
                ExprKind::Path(segs) => self.path_source(segs),
                _ => None,
            },
            ExprKind::MethodCall { recv, method, .. } => {
                // Entropy constructors by method name.
                if method == "from_entropy" || method == "thread_rng" {
                    return Some("OS entropy".to_string());
                }
                // Hash-order iteration on a known hash collection.
                if HASH_ITER_METHODS.contains(&method.as_str()) && self.recv_is_hash(recv, env) {
                    return Some("hash-order iteration".to_string());
                }
                None
            }
            ExprKind::Cast { operand, ty } => {
                // Pointer-to-integer cast: the address space is
                // randomised per-process.
                let int_target = matches!(
                    ty.base.as_str(),
                    "usize" | "u64" | "u128" | "i64" | "i128" | "isize"
                );
                if int_target && expr_mentions_ptr(operand) {
                    return Some("pointer address".to_string());
                }
                None
            }
            ExprKind::For { iter, .. } => {
                // `for x in &map` over a hash collection.
                if self.recv_is_hash(iter, env) {
                    return Some("hash-order iteration".to_string());
                }
                None
            }
            _ => None,
        }
    }

    /// Sources recognisable from a (resolved) path shape.
    fn path_source(&self, segs: &[String]) -> Option<String> {
        let resolved = self.file.resolve(segs);
        let ends_with = |pair: [&str; 2]| {
            resolved.len() >= 2
                && resolved[resolved.len() - 2] == pair[0]
                && resolved[resolved.len() - 1] == pair[1]
        };
        if ends_with(["Instant", "now"]) {
            return Some("wall clock (`Instant::now`)".to_string());
        }
        if resolved.iter().any(|s| s == "SystemTime") {
            return Some("wall clock (`SystemTime`)".to_string());
        }
        if resolved.iter().any(|s| s == "RandomState") {
            return Some("OS entropy (`RandomState`)".to_string());
        }
        if resolved
            .last()
            .is_some_and(|s| s == "thread_rng" || s == "from_entropy")
        {
            return Some("OS entropy".to_string());
        }
        if ends_with(["env", "var"]) || ends_with(["env", "var_os"]) || ends_with(["env", "vars"]) {
            return Some("environment read (`env::var`)".to_string());
        }
        None
    }

    /// Is the receiver expression a known hash collection?
    fn recv_is_hash(&self, recv: &Expr, env: &Env) -> bool {
        match &recv.kind {
            ExprKind::Path(segs) => {
                matches!(segs.as_slice(), [name] if env.hash_locals.contains(name))
            }
            ExprKind::Field { name, .. } => self.struct_field_is_hash(name),
            ExprKind::Unary { op, operand } if op == "&" => self.recv_is_hash(operand, env),
            ExprKind::MethodCall { recv, method, .. }
                if method == "as_ref" || method == "as_mut" =>
            {
                self.recv_is_hash(recv, env)
            }
            _ => false,
        }
    }

    /// Does any struct in this file declare a field of this name with a
    /// hash-collection type? (Same-file approximation of field types.)
    fn struct_field_is_hash(&self, field: &str) -> bool {
        let mut hit = false;
        visit_structs(&self.file.ast.items, &mut |fields| {
            for f in fields {
                if f.name == field && self.is_ty(&f.ty.base, &HASH_TYPES) {
                    hit = true;
                }
            }
        });
        hit
    }

    /// Is this type name (possibly a `use`-alias) one of `names`?
    fn is_ty(&self, base: &str, names: &[&str]) -> bool {
        if names.contains(&base) {
            return true;
        }
        self.file
            .uses
            .get(base)
            .and_then(|path| path.last())
            .is_some_and(|last| names.contains(&last.as_str()))
    }

    /// Does the init expression construct one of the types `names`
    /// (a `Type::ctor` path)?
    fn inits(&self, expr: &Expr, names: &[&str]) -> bool {
        let mut hit = false;
        crate::ast::visit_expr(expr, &mut |e| {
            if let ExprKind::Path(segs) = &e.kind {
                if segs.len() >= 2 && self.is_ty(&segs[segs.len() - 2], names) {
                    hit = true;
                }
            }
        });
        hit
    }

    // -- Sink detection ------------------------------------------------

    fn scan_sinks_block(&mut self, block: &Block, env: &Env) {
        let mut hits: Vec<(Span, String, String)> = Vec::new();
        crate::ast::visit_exprs(block, &mut |e| {
            if let Some((sink, src)) = self.sink_hit(e, env) {
                hits.push((e.span, sink, src));
            }
        });
        for (span, sink, src) in hits {
            if self.file.line_in_test(span.line) {
                continue;
            }
            if self.collect {
                self.findings.push(Finding {
                    rule: Rule::NondetTaint,
                    line: span.line,
                    col: span.col,
                    message: format!(
                        "nondeterministic value ({src}) flows into {sink}; traces and reports must replay bit-identically — record simulated time / seeded values instead"
                    ),
                });
            }
        }
    }

    /// If `e` is a call into an observability sink with a tainted
    /// argument, returns (sink description, source description).
    fn sink_hit(&self, e: &Expr, env: &Env) -> Option<(String, String)> {
        match &e.kind {
            ExprKind::Call { callee, args } => {
                let ExprKind::Path(segs) = &callee.kind else {
                    return None;
                };
                let resolved = self.file.resolve(segs);
                let sink = sink_name(&resolved)?;
                let src = args.iter().find_map(|a| self.expr_taint(a, env))?;
                Some((sink, src))
            }
            ExprKind::MethodCall { recv, method, args } => {
                let ExprKind::Path(segs) = &recv.kind else {
                    return None;
                };
                let recv_is_tracer = matches!(segs.as_slice(), [n] if env.tracers.contains(n));
                if !(recv_is_tracer && TRACER_METHODS.contains(&method.as_str())) {
                    return None;
                }
                let src = args.iter().find_map(|a| self.expr_taint(a, env))?;
                Some((format!("`Tracer::{method}`"), src))
            }
            _ => None,
        }
    }
}

/// Sink description for a resolved callee path, if it is one.
fn sink_name(resolved: &[String]) -> Option<String> {
    if resolved.last().is_some_and(|s| s == "json_report") {
        return Some("a `--json` report (`json_report`)".to_string());
    }
    if resolved.len() >= 2
        && resolved[resolved.len() - 2] == "json"
        && resolved[resolved.len() - 1] == "report"
    {
        return Some("a `--json` report (`json::report`)".to_string());
    }
    if resolved.iter().any(|s| s == "Tracer") {
        return Some("a `Tracer` call".to_string());
    }
    if resolved.len() >= 2 && resolved[resolved.len() - 2] == "Event" {
        return Some("an `Event` constructor".to_string());
    }
    None
}

/// Does the expression mention `as_ptr`-style pointer producers?
fn expr_mentions_ptr(expr: &Expr) -> bool {
    let mut hit = false;
    crate::ast::visit_expr(expr, &mut |e| match &e.kind {
        ExprKind::MethodCall { method, .. } if method == "as_ptr" || method == "as_mut_ptr" => {
            hit = true;
        }
        ExprKind::Cast { ty, .. } if ty.text.starts_with('*') => hit = true,
        _ => {}
    });
    hit
}

fn visit_structs(items: &[Item], f: &mut impl FnMut(&[crate::ast::Param])) {
    for item in items {
        match &item.kind {
            ItemKind::Struct { fields, .. } => f(fields),
            ItemKind::Mod { items, .. } => visit_structs(items, f),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str) -> Vec<Located> {
        let file = FileAst::parse("crates/fs/src/x.rs", "fs", src);
        let files = vec![file];
        let index = Index::build(&files);
        run(&files, &index, &|_| true)
    }

    #[test]
    fn wall_clock_into_pub_return_is_flagged() {
        let hits = scan(
            "use std::time::Instant;\npub fn elapsed_ns() -> u64 {\n  let t = Instant::now();\n  t.elapsed().as_nanos() as u64\n}\n",
        );
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].finding.message.contains("wall clock"));
        assert_eq!(hits[0].finding.line, 2);
    }

    #[test]
    fn env_read_through_locals_is_tracked() {
        let hits = scan(
            "pub fn knob() -> usize {\n  let raw = std::env::var(\"X\");\n  let n = raw.map(|v| v.len()).unwrap_or(0);\n  n\n}\n",
        );
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].finding.message.contains("environment read"));
    }

    #[test]
    fn event_kind_instant_is_not_a_source() {
        let hits = scan(
            "pub enum EventKind { Instant, Span }\npub fn classify() -> EventKind { EventKind::Instant }\n",
        );
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn hash_iteration_into_return_is_flagged() {
        let hits = scan(
            "use std::collections::HashMap;\npub fn first_key(m: &HashMap<u32, u32>) -> Option<u32> {\n  let map = HashMap::new();\n  let k = map.keys().next().copied();\n  k\n}\n",
        );
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].finding.message.contains("hash-order"));
    }

    #[test]
    fn interprocedural_taint_crosses_fns() {
        let hits = scan(
            "fn stamp() -> u64 {\n  std::time::SystemTime::now().elapsed().map(|d| d.as_nanos() as u64).unwrap_or(0)\n}\npub fn result_ns() -> u64 {\n  stamp()\n}\n",
        );
        // Both the private fn's caller (pub) gets flagged; the private
        // one is not pub so only one finding.
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].finding.message.contains("stamp"));
    }

    #[test]
    fn sink_flow_is_flagged_without_pub_return() {
        let hits = scan(
            "fn log(obs: &mut Tracer) {\n  let t = std::time::SystemTime::now();\n  obs.span(t);\n}\n",
        );
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].finding.message.contains("Tracer"));
    }

    #[test]
    fn tracer_entry_points_on_a_declared_tracer_are_sinks() {
        let hits = scan(
            "use simobs::{Metric, Tracer};\nfn wall_ns() -> u64 {\n  std::time::SystemTime::now().elapsed().map(|d| d.as_nanos() as u64).unwrap_or(0)\n}\nfn record(obs: &mut Tracer, tally: &mut Tally) {\n  let mut traced = Tracer::ring(8);\n  obs.count(Metric::SsdRequests, wall_ns());\n  traced.gauge(Metric::RunMakespanNs, wall_ns());\n  tally.count(Metric::SsdRequests, wall_ns());\n}\n",
        );
        let lines: Vec<usize> = hits.iter().map(|l| l.finding.line).collect();
        assert_eq!(lines, vec![7, 8], "only the `Tracer` receivers: {hits:?}");
        assert!(hits[0].finding.message.contains("`Tracer::count`"));
    }

    #[test]
    fn clean_simulated_time_passes() {
        let hits =
            scan("pub fn advance(now_ns: u64, step_ns: u64) -> u64 {\n  now_ns + step_ns\n}\n");
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn btree_iteration_is_fine() {
        let hits = scan(
            "use std::collections::BTreeMap;\npub fn first(m: &BTreeMap<u32, u32>) -> Option<u32> {\n  let map: BTreeMap<u32, u32> = BTreeMap::new();\n  map.keys().next().copied()\n}\n",
        );
        assert!(hits.is_empty(), "{hits:?}");
    }
}
