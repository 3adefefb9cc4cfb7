//! Unit-of-measure checking.
//!
//! The simulator mixes three quantities everywhere: simulated time in
//! nanoseconds, sizes in bytes, and interconnect widths in lanes. All
//! three are bare `u64`s at the type level, so nothing stops
//! `latency_ns + len_bytes` from compiling. This pass seeds unit tags
//! from the `nvmtypes` vocabulary (`Nanos`, `KIB`/`MIB`/`GIB`,
//! `US`/`MS`/`SEC`) and the workspace naming convention (`_ns`,
//! `_bytes`, `_lanes` suffixes), propagates them through locals and
//! call sites via the symbol index, and reports:
//!
//! * additive/comparison arithmetic across different units,
//! * `let` bindings whose annotation disagrees with the initialiser,
//! * call arguments whose unit disagrees with the parameter.
//!
//! Multiplication and division legitimately change dimension
//! (bytes/ns is a bandwidth), so `*` and `/` results are untagged.

use crate::ast::{Block, Expr, ExprKind, FnDef, Item, ItemKind, Param, Stmt, TyInfo};
use crate::resolve::{FileAst, Index};
use crate::{Finding, Located};
use std::collections::BTreeMap;
use std::fmt;

/// A physical unit tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Simulated time in nanoseconds.
    Ns,
    /// A size or offset in bytes.
    Bytes,
    /// An interconnect width in lanes.
    Lanes,
}

impl fmt::Display for Unit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Unit::Ns => "ns",
            Unit::Bytes => "bytes",
            Unit::Lanes => "lanes",
        })
    }
}

/// Unit implied by an identifier's trailing `_`-segment. Split on `_`
/// deliberately: `lanes.ends_with("ns")` is true, suffix matching on
/// raw strings would mislabel it.
fn ident_unit(name: &str) -> Option<Unit> {
    match name.rsplit('_').next()? {
        "ns" | "nanos" => Some(Unit::Ns),
        "bytes" => Some(Unit::Bytes),
        "lanes" => Some(Unit::Lanes),
        _ => None,
    }
}

/// Unit implied by a declared type.
fn ty_unit(ty: &TyInfo) -> Option<Unit> {
    match ty.base.as_str() {
        "Nanos" => Some(Unit::Ns),
        _ => None,
    }
}

/// Unit of a well-known scale constant.
fn const_unit(name: &str) -> Option<Unit> {
    match name {
        "KIB" | "MIB" | "GIB" => Some(Unit::Bytes),
        "US" | "MS" | "SEC" => Some(Unit::Ns),
        _ => ident_unit(name),
    }
}

/// Unit of a parameter: declared type first, then naming convention.
fn param_unit(p: &Param) -> Option<Unit> {
    ty_unit(&p.ty).or_else(|| ident_unit(&p.name))
}

/// Operators whose operands must share a unit.
const ADDITIVE_OPS: [&str; 9] = ["+", "-", "%", "<", "<=", ">", ">=", "==", "!="];

/// Runs the pass. `in_scope` filters which files findings apply to.
pub fn run(files: &[FileAst], index: &Index, in_scope: &dyn Fn(&str) -> bool) -> Vec<Located> {
    let consts = collect_consts(files);
    let mut out = Vec::new();
    for file in files {
        if !in_scope(&file.path) {
            continue;
        }
        let mut ctx = Ctx {
            index,
            consts: &consts,
            findings: Vec::new(),
        };
        visit_fns(&file.ast.items, file, &mut ctx);
        for finding in ctx.findings {
            if file.line_in_test(finding.line) {
                continue;
            }
            out.push(Located {
                path: file.path.clone(),
                finding,
            });
        }
    }
    out
}

/// Workspace-wide `const` unit seeds (by bare name; names that appear
/// with conflicting units are dropped).
fn collect_consts(files: &[FileAst]) -> BTreeMap<String, Unit> {
    let mut seen: BTreeMap<String, Option<Unit>> = BTreeMap::new();
    for file in files {
        walk_consts(&file.ast.items, &mut |name, ty| {
            let unit = ty_unit(ty).or_else(|| const_unit(name));
            match seen.get(name) {
                None => {
                    seen.insert(name.to_string(), unit);
                }
                Some(prev) if *prev != unit => {
                    seen.insert(name.to_string(), None);
                }
                Some(_) => {}
            }
        });
    }
    seen.into_iter()
        .filter_map(|(k, v)| v.map(|u| (k, u)))
        .collect()
}

fn walk_consts(items: &[Item], f: &mut impl FnMut(&str, &TyInfo)) {
    for item in items {
        match &item.kind {
            ItemKind::Const { name, ty } => f(name, ty),
            ItemKind::Mod { items, .. }
            | ItemKind::Impl { items, .. }
            | ItemKind::Trait { items, .. } => walk_consts(items, f),
            _ => {}
        }
    }
}

fn visit_fns(items: &[Item], file: &FileAst, ctx: &mut Ctx) {
    for item in items {
        if item.cfg_test || file.line_in_test(item.span.line) {
            continue;
        }
        match &item.kind {
            ItemKind::Fn(fd) => ctx.check_fn(fd, file),
            ItemKind::Mod { items, .. }
            | ItemKind::Impl { items, .. }
            | ItemKind::Trait { items, .. } => visit_fns(items, file, ctx),
            _ => {}
        }
    }
}

struct Ctx<'a> {
    index: &'a Index,
    consts: &'a BTreeMap<String, Unit>,
    findings: Vec<Finding>,
}

/// Local name → unit environment for one function.
type Env = BTreeMap<String, Unit>;

impl Ctx<'_> {
    fn check_fn(&mut self, fd: &FnDef, file: &FileAst) {
        let Some(body) = &fd.body else {
            return;
        };
        let mut env = Env::new();
        for p in &fd.params {
            if let (false, Some(u)) = (p.name.is_empty(), param_unit(p)) {
                env.insert(p.name.clone(), u);
            }
        }
        self.check_block(body, &mut env, file);
    }

    fn check_block(&mut self, block: &Block, env: &mut Env, file: &FileAst) {
        for stmt in &block.stmts {
            match stmt {
                Stmt::Let {
                    name,
                    ty,
                    init,
                    span,
                } => {
                    let ann = ty
                        .as_ref()
                        .and_then(ty_unit)
                        .or_else(|| name.as_deref().and_then(ident_unit));
                    let init_unit = init.as_ref().and_then(|e| {
                        self.check_expr(e, env, file);
                        self.expr_unit(e, env, file)
                    });
                    if let (Some(a), Some(b)) = (ann, init_unit) {
                        if a != b {
                            self.findings.push(Finding {
                                line: span.line,
                                col: span.col,
                                message: format!(
                                    "unit mismatch: `{}` is declared in {a} but initialised with a value in {b}",
                                    name.as_deref().unwrap_or("_"),
                                ),
                            });
                        }
                    }
                    if let (Some(n), Some(u)) = (name.as_ref(), ann.or(init_unit)) {
                        env.insert(n.clone(), u);
                    }
                }
                Stmt::Expr { expr, .. } => self.check_expr(expr, env, file),
                Stmt::Item(_) => {}
            }
        }
    }

    /// Recursively checks one expression for unit violations.
    fn check_expr(&mut self, expr: &Expr, env: &mut Env, file: &FileAst) {
        match &expr.kind {
            ExprKind::Binary { op, lhs, rhs } => {
                self.check_expr(lhs, env, file);
                self.check_expr(rhs, env, file);
                if ADDITIVE_OPS.contains(&op.as_str()) {
                    let (a, b) = (
                        self.expr_unit(lhs, env, file),
                        self.expr_unit(rhs, env, file),
                    );
                    if let (Some(a), Some(b)) = (a, b) {
                        if a != b {
                            self.findings.push(Finding {
                                line: expr.span.line,
                                col: expr.span.col,
                                message: format!(
                                    "unit mismatch: `{op}` combines a value in {a} with a value in {b}"
                                ),
                            });
                        }
                    }
                }
            }
            ExprKind::Assign { op, lhs, rhs } => {
                self.check_expr(lhs, env, file);
                self.check_expr(rhs, env, file);
                // `x_ns += y_bytes` and `x_ns = y_bytes` are mismatches;
                // `*=`/`/=` rescale, so only additive compounds checked.
                let additive = matches!(op.as_str(), "=" | "+=" | "-=" | "%=");
                if additive {
                    let (a, b) = (
                        self.expr_unit(lhs, env, file),
                        self.expr_unit(rhs, env, file),
                    );
                    if let (Some(a), Some(b)) = (a, b) {
                        if a != b {
                            self.findings.push(Finding {
                                line: expr.span.line,
                                col: expr.span.col,
                                message: format!(
                                    "unit mismatch: assignment stores a value in {b} into a place in {a}"
                                ),
                            });
                        }
                    }
                }
            }
            ExprKind::Call { callee, args } => {
                for a in args {
                    self.check_expr(a, env, file);
                }
                self.check_call_args(callee, None, args, env, file);
            }
            ExprKind::MethodCall { recv, method, args } => {
                self.check_expr(recv, env, file);
                for a in args {
                    self.check_expr(a, env, file);
                }
                self.check_method_args(recv, method, args, env, file);
            }
            ExprKind::Unary { operand, .. } | ExprKind::Cast { operand, .. } => {
                self.check_expr(operand, env, file)
            }
            ExprKind::Try(e) => self.check_expr(e, env, file),
            ExprKind::Field { base, .. } => self.check_expr(base, env, file),
            ExprKind::Macro { args, .. } => {
                for a in args {
                    self.check_expr(a, env, file);
                }
            }
            ExprKind::Match { scrutinee, arms } => {
                self.check_expr(scrutinee, env, file);
                for arm in arms {
                    if let Some(g) = &arm.guard {
                        self.check_expr(g, env, file);
                    }
                    self.check_expr(&arm.body, env, file);
                }
            }
            ExprKind::If { cond, then, els } => {
                self.check_expr(cond, env, file);
                self.check_block(then, &mut env.clone(), file);
                if let Some(e) = els {
                    self.check_expr(e, env, file);
                }
            }
            ExprKind::While { cond, body } => {
                self.check_expr(cond, env, file);
                self.check_block(body, &mut env.clone(), file);
            }
            ExprKind::For { pat, iter, body } => {
                self.check_expr(iter, env, file);
                let mut inner = env.clone();
                // `for t_ns in spans` binds a fresh name: seed it from
                // its own suffix.
                if let Some(p) = pat {
                    if let Some(u) = ident_unit(p) {
                        inner.insert(p.clone(), u);
                    }
                }
                self.check_block(body, &mut inner, file);
            }
            ExprKind::Loop { body } | ExprKind::Block(body) => {
                self.check_block(body, &mut env.clone(), file);
            }
            ExprKind::Closure { body, .. } => self.check_expr(body, env, file),
            ExprKind::Index { base, index } => {
                self.check_expr(base, env, file);
                self.check_expr(index, env, file);
            }
            ExprKind::Tuple(es) | ExprKind::Array(es) | ExprKind::Unknown(es) => {
                for e in es {
                    self.check_expr(e, env, file);
                }
            }
            ExprKind::StructLit { fields, .. } => {
                // Struct-literal fields carry their own convention:
                // `Foo { latency_ns: len_bytes }` is a mismatch.
                for (name, e) in fields {
                    self.check_expr(e, env, file);
                    if let (Some(want), Some(got)) =
                        (ident_unit(name), self.expr_unit(e, env, file))
                    {
                        if want != got {
                            self.findings.push(Finding {
                                line: e.span.line,
                                col: e.span.col,
                                message: format!(
                                    "unit mismatch: field `{name}` expects {want} but is initialised with a value in {got}"
                                ),
                            });
                        }
                    }
                }
            }
            ExprKind::Return(Some(e)) | ExprKind::Break(Some(e)) => {
                self.check_expr(e, env, file);
            }
            ExprKind::Range { lo, hi } => {
                if let Some(e) = lo {
                    self.check_expr(e, env, file);
                }
                if let Some(e) = hi {
                    self.check_expr(e, env, file);
                }
            }
            _ => {}
        }
    }

    /// Checks call arguments against the callee's parameter units.
    fn check_call_args(
        &mut self,
        callee: &Expr,
        self_ty_hint: Option<&str>,
        args: &[Expr],
        env: &Env,
        file: &FileAst,
    ) {
        let ExprKind::Path(segs) = &callee.kind else {
            return;
        };
        let mut resolved = file.resolve(segs);
        if let Some(ty) = self_ty_hint {
            resolved.insert(resolved.len().saturating_sub(1), ty.to_string());
        }
        let Some(sig) = self.index.lookup(&resolved) else {
            return;
        };
        // Skip any leading `self` receiver in the signature.
        let params: Vec<&Param> = sig.params.iter().filter(|p| p.name != "self").collect();
        if params.len() != args.len() {
            return; // arity mismatch: wrong overload/shadow, stay quiet
        }
        for (p, a) in params.iter().zip(args) {
            if let (Some(want), Some(got)) = (param_unit(p), self.expr_unit(a, env, file)) {
                if want != got {
                    self.findings.push(Finding {
                        line: a.span.line,
                        col: a.span.col,
                        message: format!(
                            "unit mismatch: argument `{}` of `{}` expects {want} but the caller passes a value in {got}",
                            p.name, sig.name
                        ),
                    });
                }
            }
        }
    }

    /// Checks method-call arguments when the method resolves uniquely.
    fn check_method_args(
        &mut self,
        recv: &Expr,
        method: &str,
        args: &[Expr],
        env: &Env,
        file: &FileAst,
    ) {
        // min/max keep the receiver's unit contract: both sides must
        // agree, same as `+`.
        if matches!(method, "min" | "max") && args.len() == 1 {
            if let (Some(a), Some(b)) = (
                self.expr_unit(recv, env, file),
                self.expr_unit(&args[0], env, file),
            ) {
                if a != b {
                    self.findings.push(Finding {
                        line: args[0].span.line,
                        col: args[0].span.col,
                        message: format!(
                            "unit mismatch: `{method}` compares a value in {a} with a value in {b}"
                        ),
                    });
                }
            }
            return;
        }
        // A uniquely-named workspace method: check its parameter units.
        let resolved = [method.to_string()];
        if let Some(sig) = self.index.lookup(&resolved) {
            let params: Vec<&Param> = sig.params.iter().filter(|p| p.name != "self").collect();
            if params.len() != args.len() {
                return;
            }
            for (p, a) in params.iter().zip(args) {
                if let (Some(want), Some(got)) = (param_unit(p), self.expr_unit(a, env, file)) {
                    if want != got {
                        self.findings.push(Finding {
                            line: a.span.line,
                            col: a.span.col,
                            message: format!(
                                "unit mismatch: argument `{}` of `{}` expects {want} but the caller passes a value in {got}",
                                p.name, sig.name
                            ),
                        });
                    }
                }
            }
        }
    }

    /// Infers the unit of an expression, if known.
    fn expr_unit(&self, expr: &Expr, env: &Env, file: &FileAst) -> Option<Unit> {
        match &expr.kind {
            ExprKind::Path(segs) => match segs.as_slice() {
                [name] => env
                    .get(name)
                    .copied()
                    .or_else(|| self.consts.get(name).copied())
                    .or_else(|| const_unit(name)),
                [.., last] => self.consts.get(last).copied().or_else(|| const_unit(last)),
                [] => None,
            },
            ExprKind::Lit(_) => None,
            ExprKind::Binary { op, lhs, rhs } => match op.as_str() {
                // Same-unit additive result keeps the unit; `*`/`/`
                // change dimension; comparisons yield bool.
                "+" | "-" | "%" => {
                    let (a, b) = (
                        self.expr_unit(lhs, env, file),
                        self.expr_unit(rhs, env, file),
                    );
                    match (a, b) {
                        (Some(a), Some(b)) if a == b => Some(a),
                        (Some(a), None) => Some(a),
                        (None, Some(b)) => Some(b),
                        _ => None,
                    }
                }
                _ => None,
            },
            ExprKind::Cast { operand, .. } => self.expr_unit(operand, env, file),
            ExprKind::Unary { operand, .. } => self.expr_unit(operand, env, file),
            ExprKind::Field { name, .. } => ident_unit(name),
            ExprKind::MethodCall { recv, method, .. } => match method.as_str() {
                // Unit-preserving combinators.
                "min" | "max" | "saturating_add" | "saturating_sub" | "wrapping_add"
                | "wrapping_sub" | "clamp" | "clone" | "copied" | "abs" => {
                    self.expr_unit(recv, env, file)
                }
                _ => ident_unit(method),
            },
            ExprKind::Call { callee, .. } => {
                let ExprKind::Path(segs) = &callee.kind else {
                    return None;
                };
                let resolved = file.resolve(segs);
                if let Some(sig) = self.index.lookup(&resolved) {
                    if let Some(u) = sig.ret.as_ref().and_then(ty_unit) {
                        return Some(u);
                    }
                    return ident_unit(&sig.name);
                }
                segs.last().and_then(|n| ident_unit(n))
            }
            ExprKind::Try(e) => self.expr_unit(e, env, file),
            ExprKind::Block(b) => match b.stmts.last() {
                Some(Stmt::Expr {
                    expr,
                    has_semi: false,
                }) => self.expr_unit(expr, env, file),
                _ => None,
            },
            ExprKind::Tuple(es) => match es.as_slice() {
                [only] => self.expr_unit(only, env, file),
                _ => None,
            },
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str) -> Vec<Located> {
        scan2(src, None)
    }

    fn scan2(src: &str, extra: Option<(&str, &str)>) -> Vec<Located> {
        let mut files = vec![FileAst::parse("crates/ssd/src/x.rs", "ssd", src)];
        if let Some((path, other)) = extra {
            let krate = path.split('/').nth(1).unwrap_or("fs").to_string();
            files.push(FileAst::parse(path, &krate, other));
        }
        let index = Index::build(&files);
        run(&files, &index, &|p| p == "crates/ssd/src/x.rs")
    }

    #[test]
    fn cross_unit_addition_is_flagged() {
        let hits = scan("pub fn f(t_ns: u64, len_bytes: u64) -> u64 { t_ns + len_bytes }\n");
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].finding.message.contains("`+` combines"));
        assert!(hits[0].finding.message.contains("ns"));
        assert!(hits[0].finding.message.contains("bytes"));
    }

    #[test]
    fn same_unit_addition_passes() {
        let hits = scan("pub fn f(a_ns: u64, b_ns: u64) -> u64 { a_ns + b_ns }\n");
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn multiplication_changes_dimension_quietly() {
        let hits =
            scan("pub fn bw(len_bytes: u64, t_ns: u64) -> u64 { len_bytes * 1_000 / t_ns }\n");
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn lanes_suffix_is_not_ns() {
        // `lanes`.ends_with("ns") — the split-on-underscore rule must
        // not fall into that trap.
        let hits = scan("pub fn f(width_lanes: u64, t_ns: u64) -> bool { width_lanes == t_ns }\n");
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].finding.message.contains("lanes"));
    }

    #[test]
    fn propagation_through_locals() {
        let hits = scan(
            "pub fn f(t_ns: u64, len_bytes: u64) -> u64 {\n  let budget = t_ns;\n  let used = len_bytes;\n  budget - used\n}\n",
        );
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].finding.message.contains("`-` combines"));
    }

    #[test]
    fn let_annotation_conflict_is_flagged() {
        let hits = scan("pub fn f(len_bytes: u64) {\n  let deadline_ns = len_bytes;\n}\n");
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0]
            .finding
            .message
            .contains("`deadline_ns` is declared in ns"));
    }

    #[test]
    fn nanos_type_seeds_ns() {
        let hits = scan("pub fn f(t: Nanos, len_bytes: u64) -> bool { t < len_bytes }\n");
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].finding.message.contains("`<` combines"));
    }

    #[test]
    fn scale_consts_are_seeded() {
        let hits = scan(
            "pub fn f(t_ns: u64) -> bool { t_ns > GIB }\npub fn g(t_ns: u64) -> bool { t_ns > MS }\n",
        );
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].finding.message.contains("bytes"));
    }

    #[test]
    fn call_argument_units_cross_crates() {
        let hits = scan2(
            "use oocfs::plan;\npub fn f(len_bytes: u64) -> u64 { plan::admit(len_bytes) }\n",
            Some((
                "crates/fs/src/plan.rs",
                "pub fn admit(deadline_ns: u64) -> u64 { deadline_ns }\n",
            )),
        );
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0]
            .finding
            .message
            .contains("argument `deadline_ns` of `admit` expects ns"));
    }

    #[test]
    fn struct_field_units_checked() {
        let hits = scan("pub fn f(len_bytes: u64) -> Op {\n  Op { latency_ns: len_bytes }\n}\n");
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].finding.message.contains("field `latency_ns`"));
    }

    #[test]
    fn min_max_cross_units_flagged() {
        let hits = scan("pub fn f(t_ns: u64, len_bytes: u64) -> u64 { t_ns.min(len_bytes) }\n");
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].finding.message.contains("`min` compares"));
    }

    #[test]
    fn test_code_is_exempt() {
        let hits = scan(
            "#[cfg(test)]\nmod tests {\n  pub fn f(t_ns: u64, len_bytes: u64) -> u64 { t_ns + len_bytes }\n}\n",
        );
        assert!(hits.is_empty(), "{hits:?}");
    }
}
