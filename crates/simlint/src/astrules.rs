//! The eight per-file rules, matched over a file's token trees and AST.
//!
//! Matching is structural, so the classes of miss a substring scan has
//! cannot occur:
//!
//! * tokens split across lines (`.unwrap\n()`, `x as\n    u64`) are
//!   seen as one construct;
//! * identifier boundaries are exact (`LinkedHashMap` is not a
//!   `HashMap`; `SystemTimeline` is not `SystemTime`; `eprintln!` is
//!   not also a `println!`);
//! * `use std::thread::spawn; spawn(..)` and aliased imports are
//!   resolved through the file's `use` entries;
//! * `match` arms come from the parser, not a brace-depth heuristic;
//! * comments and string contents were blanked by the lexer, and
//!   `#[cfg(test)]` code is exempt from every rule.

use crate::ast::{self, Expr, ExprKind, ItemKind, UseEntry};
use crate::parser::{Span, Tree};
use crate::resolve::FileAst;
use crate::rules::{Finding, Rule, WATCHED_ENUMS};

/// Panicking macro names for [`Rule::NoPanic`].
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Numeric cast targets for [`Rule::BareCast`]. `u8` stays exempt: it
/// is the byte type, not a unit.
const CAST_TARGETS: [&str; 9] = [
    "u16", "u32", "u64", "u128", "usize", "i64", "i128", "f32", "f64",
];

/// Runs one per-file rule over a parsed file. The semantic rules need
/// the cross-file index and run in [`crate::scan_workspace`]; here they
/// yield nothing.
pub fn check(rule: Rule, file: &FileAst) -> Vec<Finding> {
    match rule {
        Rule::NoPanic => no_panic(file),
        Rule::NondeterministicCollection => nondeterministic_collection(file),
        Rule::WallClock => wall_clock(file),
        Rule::BareCast => bare_cast(file),
        Rule::EnumWildcard => enum_wildcard(file),
        Rule::LetUnderscoreResult => let_underscore_result(file),
        Rule::NoPrintlnInLib => no_println_in_lib(file),
        Rule::ThreadSpawn => thread_spawn(file),
        Rule::NondetTaint
        | Rule::UnitMismatch
        | Rule::AtomicOrdering
        | Rule::LockOrder
        | Rule::HotPathAlloc => Vec::new(),
    }
}

fn push(findings: &mut Vec<Finding>, file: &FileAst, rule: Rule, span: Span, message: String) {
    if !file.line_in_test(span.line) {
        findings.push(Finding {
            rule,
            line: span.line,
            col: span.col,
            message,
        });
    }
}

/// `.unwrap()`, `.expect(..)` and the panicking macros.
fn no_panic(file: &FileAst) -> Vec<Finding> {
    let mut findings = Vec::new();
    crate::parser::walk_sibling_slices(&file.trees, &mut |slice| {
        for (i, t) in slice.iter().enumerate() {
            if t.is_punct(".") {
                let (Some(name), Some(g)) = (
                    slice.get(i + 1).and_then(Tree::ident),
                    slice.get(i + 2).and_then(|t| t.group_of('(')),
                ) else {
                    continue;
                };
                let hit = match name {
                    "unwrap" => g.children.is_empty(),
                    "expect" => true,
                    _ => false,
                };
                if hit {
                    let shown = if name == "unwrap" {
                        "unwrap()"
                    } else {
                        "expect"
                    };
                    push(
                        &mut findings,
                        file,
                        Rule::NoPanic,
                        t.span(),
                        format!(
                            "`{shown}` can panic; return a typed error or use a non-panicking accessor"
                        ),
                    );
                }
            } else if let Some(name) = t.ident() {
                if PANIC_MACROS.contains(&name)
                    && slice.get(i + 1).is_some_and(|n| n.is_punct("!"))
                    && slice.get(i + 2).is_some_and(|n| n.group().is_some())
                {
                    push(
                        &mut findings,
                        file,
                        Rule::NoPanic,
                        t.span(),
                        format!(
                            "`{name}!` can panic; return a typed error or use a non-panicking accessor"
                        ),
                    );
                }
            }
        }
    });
    findings
}

/// Wall-clock and OS-entropy constructs.
fn wall_clock(file: &FileAst) -> Vec<Finding> {
    let mut findings = Vec::new();
    crate::parser::walk_sibling_slices(&file.trees, &mut |slice| {
        for (i, t) in slice.iter().enumerate() {
            let Some(name) = t.ident() else { continue };
            let token = match name {
                "SystemTime" => Some("SystemTime"),
                "thread_rng" => Some("thread_rng"),
                "from_entropy" => Some("from_entropy"),
                "Instant"
                    if slice.get(i + 1).is_some_and(|n| n.is_punct("::"))
                        && slice.get(i + 2).and_then(Tree::ident) == Some("now") =>
                {
                    Some("Instant::now")
                }
                _ => None,
            };
            if let Some(tok) = token {
                push(
                    &mut findings,
                    file,
                    Rule::WallClock,
                    t.span(),
                    format!(
                        "`{tok}` breaks reproducibility; simulators must use simulated time and seeded RNGs"
                    ),
                );
            }
        }
    });
    findings
}

/// `HashMap`/`HashSet` mentions in simulator-state crates.
fn nondeterministic_collection(file: &FileAst) -> Vec<Finding> {
    let mut findings = Vec::new();
    crate::parser::walk_sibling_slices(&file.trees, &mut |slice| {
        for t in slice {
            let Some(name) = t.ident() else { continue };
            if name == "HashMap" || name == "HashSet" {
                push(
                    &mut findings,
                    file,
                    Rule::NondeterministicCollection,
                    t.span(),
                    format!(
                        "`{name}` iteration order is nondeterministic; use `BTree{}` or a sorted drain",
                        &name[4..]
                    ),
                );
            }
        }
    });
    findings
}

/// Bare `as <numeric>` casts — including ones split across lines.
fn bare_cast(file: &FileAst) -> Vec<Finding> {
    let mut findings = Vec::new();
    crate::parser::walk_sibling_slices(&file.trees, &mut |slice| {
        for (i, t) in slice.iter().enumerate() {
            if t.ident() != Some("as") {
                continue;
            }
            // `use x as y;` aliases are not casts: the previous token
            // of a cast is a value/group, never the `use` path context.
            if in_use_statement(slice, i) {
                continue;
            }
            let Some(target) = slice.get(i + 1).and_then(Tree::ident) else {
                continue;
            };
            if CAST_TARGETS.contains(&target) {
                push(
                    &mut findings,
                    file,
                    Rule::BareCast,
                    t.span(),
                    format!(
                        "bare `as {target}` cast in unit arithmetic; use `u64::from`/`f64::from` for lossless widening or the audited helpers in `nvmtypes::convert` (`usize_from`, `u64_from_usize`, `approx_f64`, `trunc_u64`, `try_u32`)"
                    ),
                );
            }
        }
    });
    findings
}

/// Is the `as` at `slice[i]` part of a `use ... as alias` statement?
fn in_use_statement(slice: &[Tree], i: usize) -> bool {
    slice[..i]
        .iter()
        .rev()
        .take_while(|t| !t.is_punct(";"))
        .any(|t| t.ident() == Some("use"))
}

/// Direct `thread::spawn(..)` calls, plus calls through a `use`-import
/// of `spawn` (possibly aliased).
fn thread_spawn(file: &FileAst) -> Vec<Finding> {
    // Names bound to `std::thread::spawn` by imports in this file.
    let mut spawn_aliases: Vec<String> = Vec::new();
    collect_use_entries(&file.ast.items, &mut |entry| {
        let p = &entry.path;
        if p.len() >= 2 && p[p.len() - 2] == "thread" && p[p.len() - 1] == "spawn" {
            spawn_aliases.push(entry.alias.clone());
        }
    });
    let message = || {
        "direct `thread::spawn` bypasses the vendored work-sharing pool; use \
         `rayon::par_iter`/`join` so `RAYON_NUM_THREADS` and the ordered-collect \
         determinism contract apply (docs/PARALLELISM.md)"
            .to_string()
    };
    let mut findings = Vec::new();
    crate::parser::walk_sibling_slices(&file.trees, &mut |slice| {
        for (i, t) in slice.iter().enumerate() {
            let Some(name) = t.ident() else { continue };
            if name == "thread"
                && slice.get(i + 1).is_some_and(|n| n.is_punct("::"))
                && slice.get(i + 2).and_then(Tree::ident) == Some("spawn")
                && slice.get(i + 3).is_some_and(|n| n.group_of('(').is_some())
            {
                push(&mut findings, file, Rule::ThreadSpawn, t.span(), message());
            } else if spawn_aliases.iter().any(|a| a == name)
                && slice.get(i + 1).is_some_and(|n| n.group_of('(').is_some())
            {
                // A bare `spawn(..)` call through the import. Method
                // calls (`scope.spawn(..)`) and path-qualified calls
                // were handled (or exempted) above.
                let preceded = i > 0 && (slice[i - 1].is_punct(".") || slice[i - 1].is_punct("::"));
                if !preceded {
                    push(&mut findings, file, Rule::ThreadSpawn, t.span(), message());
                }
            }
        }
    });
    findings
}

fn collect_use_entries(items: &[ast::Item], f: &mut impl FnMut(&UseEntry)) {
    for item in items {
        match &item.kind {
            ItemKind::Use(entries) => entries.iter().for_each(&mut *f),
            ItemKind::Mod { items, .. } => collect_use_entries(items, f),
            _ => {}
        }
    }
}

/// `println!`/`eprintln!` in library code.
fn no_println_in_lib(file: &FileAst) -> Vec<Finding> {
    let mut findings = Vec::new();
    crate::parser::walk_sibling_slices(&file.trees, &mut |slice| {
        for (i, t) in slice.iter().enumerate() {
            let Some(name) = t.ident() else { continue };
            if (name == "println" || name == "eprintln")
                && slice.get(i + 1).is_some_and(|n| n.is_punct("!"))
                && slice.get(i + 2).is_some_and(|n| n.group_of('(').is_some())
            {
                push(
                    &mut findings,
                    file,
                    Rule::NoPrintlnInLib,
                    t.span(),
                    format!(
                        "`{name}!` in library code; return or render a `String` and let the binary print it"
                    ),
                );
            }
        }
    });
    findings
}

/// `let _ = expr;` wildcard discards.
fn let_underscore_result(file: &FileAst) -> Vec<Finding> {
    let mut findings = Vec::new();
    crate::parser::walk_sibling_slices(&file.trees, &mut |slice| {
        for (i, t) in slice.iter().enumerate() {
            if t.ident() == Some("let")
                && slice.get(i + 1).and_then(Tree::ident) == Some("_")
                && slice.get(i + 2).is_some_and(|n| n.is_punct("="))
            {
                push(
                    &mut findings,
                    file,
                    Rule::LetUnderscoreResult,
                    t.span(),
                    "`let _ = ..` silently discards the value — and any `Err` in it; \
                     handle or propagate the `Result`, or make a deliberate discard \
                     explicit with `drop(..)`"
                        .to_string(),
                );
            }
        }
    });
    findings
}

/// Wildcard `_ =>` arms in `match`es over (or into) watched enums.
fn enum_wildcard(file: &FileAst) -> Vec<Finding> {
    let mut findings = Vec::new();
    ast::visit_fns(&file.ast.items, false, &mut |fd, _, _, _| {
        let Some(body) = &fd.body else { return };
        ast::visit_exprs(body, &mut |e| {
            let ExprKind::Match { arms, .. } = &e.kind else {
                return;
            };
            if !match_is_watched(e) {
                return;
            }
            for arm in arms {
                if arm.is_wild {
                    push(
                        &mut findings,
                        file,
                        Rule::EnumWildcard,
                        arm.span,
                        "wildcard `_ =>` arm on a watched enum; list every variant so new media kinds cannot silently fall through".to_string(),
                    );
                }
            }
        });
    });
    findings
}

/// A match is watched when any path in its subtree (scrutinee, arm
/// patterns, guards, or bodies — nested matches included) names
/// `WatchedEnum::Variant`.
fn match_is_watched(match_expr: &Expr) -> bool {
    let mut watched = false;
    ast::visit_expr(match_expr, &mut |e| match &e.kind {
        ExprKind::Path(segs) => watched |= path_is_watched(segs),
        ExprKind::StructLit { path, .. } | ExprKind::Macro { path, .. } => {
            watched |= path_is_watched(path);
        }
        ExprKind::Match { arms, .. } => {
            for arm in arms {
                watched |= arm.pat_paths.iter().any(|p| path_is_watched(p));
            }
        }
        _ => {}
    });
    watched
}

/// Does `segs` contain `WatchedEnum::<something>`?
fn path_is_watched(segs: &[String]) -> bool {
    segs.windows(2)
        .any(|w| WATCHED_ENUMS.contains(&w[0].as_str()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-file rules, in report order.
    const PER_FILE: [Rule; 8] = [
        Rule::NoPanic,
        Rule::NondeterministicCollection,
        Rule::WallClock,
        Rule::BareCast,
        Rule::EnumWildcard,
        Rule::LetUnderscoreResult,
        Rule::NoPrintlnInLib,
        Rule::ThreadSpawn,
    ];

    fn parse(src: &str) -> FileAst {
        FileAst::parse("crates/ssd/src/lib.rs", "ssd", src)
    }

    fn hits(rule: Rule, src: &str) -> Vec<(usize, usize, String)> {
        check(rule, &parse(src))
            .into_iter()
            .map(|f| (f.line, f.col, f.message))
            .collect()
    }

    // The report's messages, spelled out byte for byte.
    fn panics(tok: &str) -> String {
        format!("`{tok}` can panic; return a typed error or use a non-panicking accessor")
    }
    fn unordered(ty: &str, sorted: &str) -> String {
        format!("`{ty}` iteration order is nondeterministic; use `{sorted}` or a sorted drain")
    }
    fn clock(tok: &str) -> String {
        format!(
            "`{tok}` breaks reproducibility; simulators must use simulated time and seeded RNGs"
        )
    }
    fn printing(mac: &str) -> String {
        format!("`{mac}` in library code; return or render a `String` and let the binary print it")
    }
    const CAST_U64: &str = "bare `as u64` cast in unit arithmetic; use `u64::from`/`f64::from` for lossless widening or the audited helpers in `nvmtypes::convert` (`usize_from`, `u64_from_usize`, `approx_f64`, `trunc_u64`, `try_u32`)";
    const WILDCARD: &str = "wildcard `_ =>` arm on a watched enum; list every variant so new media kinds cannot silently fall through";
    const DISCARD: &str = "`let _ = ..` silently discards the value — and any `Err` in it; handle or propagate the `Result`, or make a deliberate discard explicit with `drop(..)`";
    const SPAWN: &str = "direct `thread::spawn` bypasses the vendored work-sharing pool; use `rayon::par_iter`/`join` so `RAYON_NUM_THREADS` and the ordered-collect determinism contract apply (docs/PARALLELISM.md)";

    /// Every per-file construct with its near-misses, one rule per line:
    /// `BTreeMap`, `as MyType`, `as u8`, `let _guard`, `let _: u32` and
    /// `scope.spawn` must stay silent, and `eprintln!` counts once.
    const ALL: &str = "fn f(k: NvmKind) -> u32 {\n\
        x.unwrap(); y.expect(\"m\"); panic!(\"n\");\n\
        let m: HashMap<u32, BTreeMap<u32, u32>> = HashSet::new();\n\
        let t = Instant::now(); let s = SystemTime::now();\n\
        let a = x as u64; let b = y as MyType; let c = z as u8;\n\
        let _ = tx.send(1); let _guard = lock(); let _: u32 = g();\n\
        println!(\"x\"); eprintln!(\"y\");\n\
        std::thread::spawn(|| {}); scope.spawn(|| {});\n\
        match k { NvmKind::Slc => 1, _ => 0 }\n\
        }\n";

    #[test]
    fn per_file_rules_report_exact_findings() {
        let gated = format!("#[cfg(test)]\nmod t {{\n{ALL}}}\n");
        let commented: String = ALL.lines().map(|l| format!("// {l}\n")).collect();
        let quoted = format!("const S: &str = \"{}\";\n", ALL.replace('"', "\\\""));
        let raw = format!("const S: &str = r#\"{ALL}\"#;\n");
        let mut table: Vec<(&str, Rule, Vec<(usize, usize, String)>)> = vec![
            (
                ALL,
                Rule::NoPanic,
                vec![
                    (2, 2, panics("unwrap()")),
                    (2, 14, panics("expect")),
                    (2, 27, panics("panic!")),
                ],
            ),
            (
                ALL,
                Rule::NondeterministicCollection,
                vec![
                    (3, 8, unordered("HashMap", "BTreeMap")),
                    (3, 43, unordered("HashSet", "BTreeSet")),
                ],
            ),
            (
                ALL,
                Rule::WallClock,
                vec![(4, 9, clock("Instant::now")), (4, 33, clock("SystemTime"))],
            ),
            (ALL, Rule::BareCast, vec![(5, 11, CAST_U64.to_string())]),
            (
                ALL,
                Rule::LetUnderscoreResult,
                vec![(6, 1, DISCARD.to_string())],
            ),
            (
                ALL,
                Rule::NoPrintlnInLib,
                vec![(7, 1, printing("println!")), (7, 15, printing("eprintln!"))],
            ),
            (ALL, Rule::ThreadSpawn, vec![(8, 6, SPAWN.to_string())]),
            (ALL, Rule::EnumWildcard, vec![(9, 30, WILDCARD.to_string())]),
            (
                "fn f() { let m = LinkedHashMap::new(); let t = SystemTimeline::new(); }\n",
                Rule::NondeterministicCollection,
                vec![],
            ),
            (
                "fn f() { let m = LinkedHashMap::new(); let t = SystemTimeline::new(); }\n",
                Rule::WallClock,
                vec![],
            ),
            (
                "use foo::bar as u64_helper;\nfn f() {}\n",
                Rule::BareCast,
                vec![],
            ),
            (
                "fn f() { outlet _ = 1; }\n",
                Rule::LetUnderscoreResult,
                vec![],
            ),
            (
                "fn f() {\n todo!();\n unreachable!(\"x\");\n unimplemented!();\n}\n",
                Rule::NoPanic,
                vec![
                    (2, 2, panics("todo!")),
                    (3, 2, panics("unreachable!")),
                    (4, 2, panics("unimplemented!")),
                ],
            ),
        ];
        // Test code, comments and string contents are exempt from every
        // rule.
        for src in [&gated, &commented, &quoted, &raw] {
            table.extend(PER_FILE.map(|rule| (src.as_str(), rule, vec![])));
        }
        for (src, rule, want) in table {
            assert_eq!(hits(rule, src), want, "{} on:\n{src}", rule.id());
        }
    }

    #[test]
    fn semantic_rules_have_no_per_file_findings() {
        for rule in Rule::ALL {
            if !PER_FILE.contains(&rule) {
                assert!(hits(rule, ALL).is_empty(), "{}", rule.id());
            }
        }
    }

    #[test]
    fn multiline_unwrap_is_caught() {
        let src = "fn f() {\n  x\n    .unwrap\n    ();\n}\n";
        assert_eq!(hits(Rule::NoPanic, src), vec![(3, 5, panics("unwrap()"))]);
    }

    #[test]
    fn multiline_cast_is_caught() {
        let src = "fn f(x: u32) -> u64 {\n  x as\n    u64\n}\n";
        assert_eq!(
            hits(Rule::BareCast, src),
            vec![(2, 5, CAST_U64.to_string())]
        );
    }

    #[test]
    fn imported_spawn_is_caught() {
        let src = "use std::thread::spawn;\nfn f() { spawn(|| {}); }\n";
        assert_eq!(
            hits(Rule::ThreadSpawn, src),
            vec![(2, 10, SPAWN.to_string())]
        );
    }

    #[test]
    fn aliased_spawn_import_is_caught() {
        let src = "use std::thread::spawn as go;\nfn f() { go(|| {}); }\n";
        assert_eq!(
            hits(Rule::ThreadSpawn, src),
            vec![(2, 10, SPAWN.to_string())]
        );
    }

    #[test]
    fn scoped_spawn_and_use_alias_do_not_fire() {
        let src = "use std::thread::spawn as go;\nfn f(scope: &S) { scope.go(|| {}); }\n";
        assert!(hits(Rule::ThreadSpawn, src).is_empty());
    }

    #[test]
    fn enum_wildcard_hits_the_wildcard_arm_line() {
        for (src, want) in [
            (
                "fn f(k: NvmKind) -> u32 {\n match k {\n  NvmKind::Slc => 1,\n  _ => 0,\n }\n}\n",
                vec![4],
            ),
            (
                "fn f(n: u8) -> u32 {\n match n {\n  0 => 1,\n  _ => 0,\n }\n}\n",
                vec![],
            ),
            (
                "fn f(k: IoOp) -> u32 {\n match k {\n  IoOp::Read => 1,\n  IoOp::Write => 2,\n }\n}\n",
                vec![],
            ),
            (
                "fn f(i: u32) -> PageClass {\n match i % 3 {\n  0 => PageClass::Lsb,\n  1 => PageClass::Csb,\n  _ => PageClass::Msb,\n }\n}\n",
                vec![5],
            ),
            (
                "fn f(k: IoOp) -> u32 {\n match (k, 1) {\n  (IoOp::Read, _) => 1,\n  (IoOp::Write, _) => 2,\n }\n}\n",
                vec![],
            ),
            (
                "fn f(k: OpKind, n: u8) -> u32 {\n match (k, n) {\n  (OpKind::Read, x) if x > 3 => { 1 }\n  (OpKind::Write, _) => 2,\n  _ => 3,\n }\n}\n",
                vec![5],
            ),
        ] {
            let found = hits(Rule::EnumWildcard, src);
            let lines: Vec<usize> = found.iter().map(|h| h.0).collect();
            assert_eq!(lines, want, "{src}\n{found:?}");
            assert!(found.iter().all(|h| h.2 == WILDCARD));
        }
    }
}
