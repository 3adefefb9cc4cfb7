//! A lightweight Rust AST parsed from token trees.
//!
//! This is not a full Rust parser: it recognises the item structure
//! (functions, impls, traits, use trees, mods, consts), function signatures,
//! and a practical expression grammar (calls, method chains, casts,
//! binary operators, `match` arms, closures, blocks). Anything it does
//! not understand degrades to [`ExprKind::Unknown`] carrying harvested
//! sub-expressions, so downstream passes stay *conservative*: they may
//! lose precision on exotic syntax, never soundness on the constructs
//! the rules care about.

use crate::parser::{Group, Span, Tok, Tree};

/// A parsed source file: its top-level items.
#[derive(Debug, Default)]
pub struct File {
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

/// One item, with visibility and test-gating noted.
#[derive(Debug)]
pub struct Item {
    /// What the item is.
    pub kind: ItemKind,
    /// Where it starts (the keyword token).
    pub span: Span,
    /// Carried a `#[cfg(test)]` attribute.
    pub cfg_test: bool,
}

/// Item kinds the analyses consume; everything else is `Other`.
#[derive(Debug)]
pub enum ItemKind {
    /// `fn` definition or trait-method signature.
    Fn(FnDef),
    /// `use` declaration, flattened to `(path, binding-name)` pairs.
    Use(Vec<UseEntry>),
    /// Inline module with its items (`mod m;` has no items).
    Mod {
        /// Module name.
        name: String,
        /// Items inside an inline `mod m { .. }` body.
        items: Vec<Item>,
    },
    /// `impl` block (inherent or trait).
    Impl {
        /// The `Self` type's base name (`Foo` for `impl<T> Foo<T>`).
        self_ty: String,
        /// Associated items.
        items: Vec<Item>,
    },
    /// `trait` with its associated items.
    Trait {
        /// Trait name.
        name: String,
        /// Associated items (method signatures/defaults).
        items: Vec<Item>,
    },
    /// `const`/`static` with its declared type.
    Const {
        /// Constant name.
        name: String,
        /// Declared type.
        ty: TyInfo,
    },
    /// Anything else (`struct`, `enum`, `type`, `extern`, macros, ...).
    Other,
}

/// One flattened `use` binding: `use a::b::{c as d};` yields
/// `path = [a, b, c]`, `alias = d`.
#[derive(Debug, Clone)]
pub struct UseEntry {
    /// Full path segments.
    pub path: Vec<String>,
    /// The name this binding introduces in scope.
    pub alias: String,
}

/// A function definition or signature.
#[derive(Debug)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// Parameters in order (`self` appears as a param named `self`).
    pub params: Vec<Param>,
    /// Return type, if not `()`.
    pub ret: Option<TyInfo>,
    /// Body, absent for trait-method signatures.
    pub body: Option<Block>,
}

/// A named, typed slot: fn parameter or struct field.
#[derive(Debug, Clone)]
pub struct Param {
    /// Binding/field name (empty when the pattern is complex).
    pub name: String,
    /// Declared type.
    pub ty: TyInfo,
}

/// A type reference reduced to what the passes need.
#[derive(Debug, Clone, Default)]
pub struct TyInfo {
    /// Base path ident after stripping `&`/`mut`/`dyn`/`impl` and
    /// taking the last segment: `&'a nvmtypes::Nanos` → `Nanos`,
    /// `Vec<Nanos>` → `Vec`. Empty for tuple/slice/fn types.
    pub base: String,
}

/// A `{ .. }` block of statements.
#[derive(Debug, Default)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
}

/// One statement.
#[derive(Debug)]
pub enum Stmt {
    /// `let` binding.
    Let {
        /// Bound name for simple patterns (`let x`, `let mut x`);
        /// `None` for destructuring patterns.
        name: Option<String>,
        /// Declared type annotation.
        ty: Option<TyInfo>,
        /// Initialiser.
        init: Option<Expr>,
        /// Span of the `let` keyword.
        span: Span,
    },
    /// Expression statement.
    Expr {
        /// The expression.
        expr: Expr,
        /// Terminated by `;` (a trailing expression is the fn result).
        has_semi: bool,
    },
    /// Nested item (fn-in-fn, use-in-fn, ...).
    Item(Item),
}

/// A spanned expression.
#[derive(Debug)]
pub struct Expr {
    /// The expression's shape.
    pub kind: ExprKind,
    /// Where it starts.
    pub span: Span,
}

/// Expression shapes, reduced to what the passes consume.
#[derive(Debug)]
pub enum ExprKind {
    /// `a`, `a::b::c` (turbofish args dropped).
    Path(Vec<String>),
    /// Literal (number text, or blanked string/char).
    Lit(String),
    /// `callee(args)`.
    Call {
        /// Called expression (usually a `Path`).
        callee: Box<Expr>,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// `recv.method(args)`.
    MethodCall {
        /// Receiver.
        recv: Box<Expr>,
        /// Method name.
        method: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// `base.field` / `base.0`.
    Field {
        /// Base expression.
        base: Box<Expr>,
        /// Field name or tuple index.
        name: String,
    },
    /// `lhs op rhs`.
    Binary {
        /// Operator text (`+`, `==`, `<<`, ...).
        op: String,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// `op operand` (`-`, `!`, `*`, `&`).
    Unary {
        /// Operator text.
        op: String,
        /// Operand.
        operand: Box<Expr>,
    },
    /// `operand as Ty` (the target type is skipped).
    Cast {
        /// Value being cast.
        operand: Box<Expr>,
    },
    /// `path!(args)` (args parsed best-effort).
    Macro {
        /// Macro path.
        path: Vec<String>,
        /// Comma-split argument expressions.
        args: Vec<Expr>,
    },
    /// `match scrutinee { arms }`.
    Match {
        /// Scrutinee.
        scrutinee: Box<Expr>,
        /// Arms in order.
        arms: Vec<Arm>,
    },
    /// `if cond { then } else ..` (covers `if let`: `cond` is the
    /// scrutinee).
    If {
        /// Condition or `if let` scrutinee.
        cond: Box<Expr>,
        /// Then-block.
        then: Block,
        /// Else branch (block or nested `if`).
        els: Option<Box<Expr>>,
    },
    /// `while`/`while let` loop.
    While {
        /// Condition or scrutinee.
        cond: Box<Expr>,
        /// Loop body.
        body: Block,
    },
    /// `for pat in iter { body }`.
    For {
        /// Bound name for simple patterns.
        pat: Option<String>,
        /// Iterated expression.
        iter: Box<Expr>,
        /// Loop body.
        body: Block,
    },
    /// `loop { body }`.
    Loop {
        /// Loop body.
        body: Block,
    },
    /// Block expression (incl. `unsafe`/labelled blocks).
    Block(Block),
    /// Closure (its parameters are skipped).
    Closure {
        /// Body expression.
        body: Box<Expr>,
    },
    /// `expr?`.
    Try(Box<Expr>),
    /// `base[index]`.
    Index {
        /// Indexed expression.
        base: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
    },
    /// `(a, b, ..)` — a 1-tuple of parse is just the inner expr.
    Tuple(Vec<Expr>),
    /// `[a, b, ..]` / `[x; n]`.
    Array(Vec<Expr>),
    /// `Path { field: expr, .. }`.
    StructLit {
        /// Struct path.
        path: Vec<String>,
        /// Field initialisers (shorthand `x` yields `(x, Path[x])`).
        fields: Vec<(String, Expr)>,
    },
    /// `lhs = rhs` and compound forms.
    Assign {
        /// `=`, `+=`, `<<=`, ...
        op: String,
        /// Assignee.
        lhs: Box<Expr>,
        /// Value.
        rhs: Box<Expr>,
    },
    /// `return expr?`.
    Return(Option<Box<Expr>>),
    /// `break expr?` / `continue`.
    Break(Option<Box<Expr>>),
    /// `lo..hi` (either side optional).
    Range {
        /// Lower bound.
        lo: Option<Box<Expr>>,
        /// Upper bound.
        hi: Option<Box<Expr>>,
    },
    /// Unparsed construct with harvested path/ident sub-expressions,
    /// so dataflow passes stay conservative.
    Unknown(Vec<Expr>),
}

/// One `match` arm.
#[derive(Debug)]
pub struct Arm {
    /// Guard expression (`pat if guard =>`).
    pub guard: Option<Expr>,
    /// Arm body.
    pub body: Expr,
}

/// Parses a file's token trees into items.
pub fn parse_file(trees: &[Tree]) -> File {
    let mut cur = Cursor { trees, pos: 0 };
    File {
        items: parse_items(&mut cur),
    }
}

/// Item keywords that start an item inside a block.
const ITEM_KEYWORDS: [&str; 11] = [
    "fn",
    "use",
    "mod",
    "impl",
    "struct",
    "enum",
    "trait",
    "type",
    "const",
    "static",
    "macro_rules",
];

struct Cursor<'a> {
    trees: &'a [Tree],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<&'a Tree> {
        self.trees.get(self.pos)
    }

    fn peek_at(&self, n: usize) -> Option<&'a Tree> {
        self.trees.get(self.pos + n)
    }

    fn bump(&mut self) -> Option<&'a Tree> {
        let t = self.trees.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn at_end(&self) -> bool {
        self.pos >= self.trees.len()
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if self.peek().is_some_and(|t| t.is_punct(p)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_ident(&mut self, kw: &str) -> bool {
        if self.peek().and_then(Tree::ident) == Some(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn span(&self) -> Span {
        self.peek().map_or(Span::NONE, Tree::span)
    }

    /// Skips a balanced `<..>` region starting at the current `<`.
    fn skip_angles(&mut self) {
        if !self.eat_punct("<") {
            return;
        }
        let mut depth = 1i64;
        while depth > 0 {
            match self.bump() {
                Some(t) if t.is_punct("<") => depth += 1,
                Some(t) if t.is_punct(">") => depth -= 1,
                Some(_) => {}
                None => break,
            }
        }
    }

    /// Consumes trees until a top-level `;` (consumed) or end.
    fn skip_to_semi(&mut self) {
        while let Some(t) = self.bump() {
            if t.is_punct(";") {
                break;
            }
        }
    }
}

/// Attribute prefix: consumes `#[..]` / `#![..]` runs, reporting
/// whether any was `#[cfg(test)]`-like.
fn eat_attrs(cur: &mut Cursor) -> bool {
    let mut cfg_test = false;
    loop {
        if !cur.peek().is_some_and(|t| t.is_punct("#")) {
            return cfg_test;
        }
        // `#` [`!`] `[..]`
        let mut ahead = 1;
        if cur.peek_at(ahead).is_some_and(|t| t.is_punct("!")) {
            ahead += 1;
        }
        let Some(group) = cur.peek_at(ahead).and_then(|t| t.group_of('[')) else {
            return cfg_test;
        };
        if attr_is_cfg_test(group) {
            cfg_test = true;
        }
        cur.pos += ahead + 1;
    }
}

fn attr_is_cfg_test(group: &Group) -> bool {
    let mut saw_cfg = false;
    let mut saw_test = false;
    visit_idents(&group.children, &mut |name| {
        if name == "cfg" {
            saw_cfg = true;
        }
        if name == "test" {
            saw_test = true;
        }
    });
    saw_cfg && saw_test
}

fn visit_idents(trees: &[Tree], f: &mut impl FnMut(&str)) {
    for t in trees {
        match t {
            Tree::Leaf(tok) => {
                if let Tok::Ident(name) = &tok.tok {
                    f(name);
                }
            }
            Tree::Group(g) => visit_idents(&g.children, f),
        }
    }
}

fn parse_items(cur: &mut Cursor) -> Vec<Item> {
    let mut items = Vec::new();
    while !cur.at_end() {
        match parse_item(cur) {
            Some(item) => items.push(item),
            None => {
                cur.bump(); // recovery: drop one tree and continue
            }
        }
    }
    items
}

/// Parses one item at the cursor; `None` if this is not an item start.
fn parse_item(cur: &mut Cursor) -> Option<Item> {
    let cfg_test = eat_attrs(cur);
    let span = cur.span();
    if cur.eat_ident("pub") {
        // `pub(crate)` / `pub(in path)`.
        if cur.peek().is_some_and(|t| t.group_of('(').is_some()) {
            cur.bump();
        }
    }
    // Fn qualifiers.
    loop {
        if cur.eat_ident("default") || cur.eat_ident("async") || cur.eat_ident("unsafe") {
            continue;
        }
        if cur.peek().and_then(Tree::ident) == Some("const")
            && cur.peek_at(1).and_then(Tree::ident) == Some("fn")
        {
            cur.bump();
            continue;
        }
        if cur.eat_ident("extern") {
            if cur
                .peek()
                .is_some_and(|t| matches!(t.leaf().map(|l| &l.tok), Some(Tok::Str)))
            {
                cur.bump();
            }
            continue;
        }
        break;
    }
    let kw = cur.peek().and_then(Tree::ident)?;
    let kind = match kw {
        "fn" => {
            cur.bump();
            ItemKind::Fn(parse_fn(cur)?)
        }
        "use" => {
            cur.bump();
            let entries = parse_use(cur);
            ItemKind::Use(entries)
        }
        "mod" => {
            cur.bump();
            let name = cur.bump().and_then(Tree::ident)?.to_string();
            if cur.eat_punct(";") {
                ItemKind::Mod {
                    name,
                    items: Vec::new(),
                }
            } else {
                let body = cur.bump().and_then(|t| t.group_of('{'))?;
                let mut inner = Cursor {
                    trees: &body.children,
                    pos: 0,
                };
                ItemKind::Mod {
                    name,
                    items: parse_items(&mut inner),
                }
            }
        }
        "impl" => {
            cur.bump();
            if cur.peek().is_some_and(|t| t.is_punct("<")) {
                cur.skip_angles();
            }
            // Type up to `for`/`where`/body; if `for` appears, the
            // second type is Self.
            let mut self_ty = String::new();
            loop {
                match cur.peek() {
                    None => break,
                    Some(t) if t.group_of('{').is_some() => break,
                    Some(t) if t.ident() == Some("where") => {
                        skip_where(cur);
                        break;
                    }
                    Some(t) if t.ident() == Some("for") => {
                        cur.bump();
                        self_ty.clear();
                    }
                    Some(t) => {
                        if t.is_punct("<") {
                            cur.skip_angles();
                            continue;
                        }
                        if let Some(name) = t.ident() {
                            self_ty = name.to_string();
                        }
                        cur.bump();
                    }
                }
            }
            let body = cur.bump().and_then(|t| t.group_of('{'))?;
            let mut inner = Cursor {
                trees: &body.children,
                pos: 0,
            };
            ItemKind::Impl {
                self_ty,
                items: parse_items(&mut inner),
            }
        }
        "struct" | "enum" => {
            // Skip to the end of the body: a `{..}` group, or the `;`
            // after a tuple or unit struct.
            cur.bump();
            while let Some(t) = cur.peek() {
                if t.is_punct("<") {
                    cur.skip_angles();
                    continue;
                }
                cur.bump();
                if t.group_of('{').is_some() || t.is_punct(";") {
                    break;
                }
            }
            ItemKind::Other
        }
        "trait" => {
            cur.bump();
            let name = cur.bump().and_then(Tree::ident)?.to_string();
            while let Some(t) = cur.peek() {
                if t.group_of('{').is_some() {
                    break;
                }
                if t.is_punct("<") {
                    cur.skip_angles();
                } else {
                    cur.bump();
                }
            }
            let body = cur.bump().and_then(|t| t.group_of('{'))?;
            let mut inner = Cursor {
                trees: &body.children,
                pos: 0,
            };
            ItemKind::Trait {
                name,
                items: parse_items(&mut inner),
            }
        }
        "const" | "static" => {
            cur.bump();
            cur.eat_ident("mut");
            let name = cur.bump().and_then(Tree::ident).unwrap_or("").to_string();
            let mut ty = TyInfo::default();
            if cur.eat_punct(":") {
                let ty_trees = collect_until(cur, &["="], &[";"]);
                ty = ty_from_trees(&ty_trees);
            }
            cur.skip_to_semi();
            ItemKind::Const { name, ty }
        }
        "type" => {
            cur.bump();
            cur.skip_to_semi();
            ItemKind::Other
        }
        "macro_rules" => {
            cur.bump();
            cur.eat_punct("!");
            cur.bump(); // name
            cur.bump(); // body group
            ItemKind::Other
        }
        _ => return None,
    };
    Some(Item {
        kind,
        span,
        cfg_test,
    })
}

fn skip_where(cur: &mut Cursor) {
    cur.eat_ident("where");
    while let Some(t) = cur.peek() {
        if t.group_of('{').is_some() || t.is_punct(";") {
            break;
        }
        if t.is_punct("<") {
            cur.skip_angles();
        } else {
            cur.bump();
        }
    }
}

fn parse_fn(cur: &mut Cursor) -> Option<FnDef> {
    let name = cur.bump().and_then(Tree::ident)?.to_string();
    if cur.peek().is_some_and(|t| t.is_punct("<")) {
        cur.skip_angles();
    }
    let params_group = cur.bump().and_then(|t| t.group_of('('))?;
    let params = parse_params(params_group);
    let mut ret = None;
    if cur.eat_punct("->") {
        let ty_trees = collect_ret_type(cur);
        ret = Some(ty_from_trees(&ty_trees));
    }
    if cur.peek().is_some_and(|t| t.ident() == Some("where")) {
        skip_where(cur);
    }
    let body = match cur.peek() {
        Some(t) if t.group_of('{').is_some() => {
            let g = cur.bump().and_then(|t| t.group_of('{'))?;
            Some(parse_block(g))
        }
        _ => {
            cur.eat_punct(";");
            None
        }
    };
    Some(FnDef {
        name,
        params,
        ret,
        body,
    })
}

/// Collects the return-type trees: everything up to `where`, the body
/// block, or `;` (angle-bracket regions skipped wholesale).
fn collect_ret_type<'a>(cur: &mut Cursor<'a>) -> Vec<&'a Tree> {
    let mut out = Vec::new();
    while let Some(t) = cur.peek() {
        if t.ident() == Some("where") || t.is_punct(";") {
            break;
        }
        if t.group_of('{').is_some() {
            // `-> Foo { .. }`: the block is the fn body, unless the type
            // was `impl Fn..`-ish, which this workspace does not return.
            break;
        }
        if t.is_punct("<") {
            let start = cur.pos;
            cur.skip_angles();
            out.extend(&cur.trees[start..cur.pos]);
            continue;
        }
        out.push(t);
        cur.bump();
    }
    out
}

/// Collects trees until a top-level punct in `stop` (consumed) or in
/// `halt` (not consumed); angle regions are skipped wholesale. A `"{"`
/// in `halt` matches a brace *group* (blocks are groups, not puncts).
fn collect_until<'a>(cur: &mut Cursor<'a>, stop: &[&str], halt: &[&str]) -> Vec<&'a Tree> {
    let mut out = Vec::new();
    while let Some(t) = cur.peek() {
        if halt.contains(&"{") && t.group_of('{').is_some() {
            return out;
        }
        if let Some(tok) = t.leaf() {
            if let Tok::Punct(p) = &tok.tok {
                if stop.contains(&p.as_str()) {
                    cur.bump();
                    return out;
                }
                if halt.contains(&p.as_str()) {
                    return out;
                }
                if p == "<" {
                    let start = cur.pos;
                    cur.skip_angles();
                    out.extend(&cur.trees[start..cur.pos]);
                    continue;
                }
            }
        }
        out.push(t);
        cur.bump();
    }
    out
}

fn parse_params(group: &Group) -> Vec<Param> {
    split_top(&group.children, ",")
        .into_iter()
        .filter(|part| !part.is_empty())
        .filter_map(|part| parse_param(&part))
        .collect()
}

fn parse_param(trees: &[&Tree]) -> Option<Param> {
    // Locate the top-level `:` separating pattern from type.
    let colon = trees.iter().position(|t| t.is_punct(":"));
    let (pat, ty) = match colon {
        Some(i) => (&trees[..i], ty_from_trees(&trees[i + 1..])),
        None => {
            // `self` receivers: `self`, `&self`, `&mut self`, `&'a self`.
            if trees.iter().any(|t| t.ident() == Some("self")) {
                return Some(Param {
                    name: "self".to_string(),
                    ty: TyInfo::default(),
                });
            }
            (trees, TyInfo::default())
        }
    };
    let name = pat
        .iter()
        .filter_map(|t| t.ident())
        .find(|n| *n != "mut" && *n != "ref")
        .unwrap_or("")
        .to_string();
    Some(Param { name, ty })
}

/// Splits a sibling slice at top-level occurrences of `sep`.
fn split_top<'a>(trees: &'a [Tree], sep: &str) -> Vec<Vec<&'a Tree>> {
    let mut parts = vec![Vec::new()];
    let mut angle = 0i64;
    for t in trees {
        if t.is_punct("<") {
            angle += 1;
        } else if t.is_punct(">") {
            angle = (angle - 1).max(0);
        } else if angle == 0 && t.is_punct(sep) {
            parts.push(Vec::new());
            continue;
        }
        if let Some(last) = parts.last_mut() {
            last.push(t);
        }
    }
    parts
}

/// Reduces a type's trees to [`TyInfo`].
fn ty_from_trees(trees: &[&Tree]) -> TyInfo {
    // Base: last segment of the leading path, skipping refs/qualifiers.
    let mut base = String::new();
    let mut angle = 0i64;
    for t in trees {
        if t.is_punct("<") {
            angle += 1;
            continue;
        }
        if t.is_punct(">") {
            angle = (angle - 1).max(0);
            continue;
        }
        if angle > 0 {
            continue;
        }
        match t.ident() {
            Some("mut") | Some("dyn") | Some("impl") => continue,
            Some(name) => {
                base = name.to_string();
                // Stop at the first non-path continuation.
            }
            None => {
                if t.is_punct("&")
                    || t.is_punct("::")
                    || matches!(t.leaf().map(|l| &l.tok), Some(Tok::Lifetime(_)))
                {
                    continue;
                }
                break;
            }
        }
    }
    TyInfo { base }
}

/// Parses a `{..}` group as a statement block.
pub fn parse_block(group: &Group) -> Block {
    let mut cur = Cursor {
        trees: &group.children,
        pos: 0,
    };
    let mut stmts = Vec::new();
    while !cur.at_end() {
        if cur.eat_punct(";") {
            continue;
        }
        let before = cur.pos;
        if let Some(stmt) = parse_stmt(&mut cur) {
            stmts.push(stmt);
        }
        if cur.pos == before {
            cur.bump(); // safety: always advance
        }
    }
    Block { stmts }
}

fn parse_stmt(cur: &mut Cursor) -> Option<Stmt> {
    let cfg_test = eat_attrs(cur);
    let span = cur.span();
    let head = cur.peek().and_then(Tree::ident);
    if head == Some("let") {
        cur.bump();
        // Pattern: up to top-level `:` or `=` (fused `==` can't appear
        // in a pattern position, so a bare `=` ends it).
        let pat_trees = collect_until(cur, &[], &[":", "=", ";"]);
        let name = simple_pat_name(&pat_trees);
        let mut ty = None;
        if cur.eat_punct(":") {
            let ty_trees = collect_until(cur, &[], &["=", ";"]);
            ty = Some(ty_from_trees(&ty_trees));
        }
        let mut init = None;
        if cur.eat_punct("=") {
            init = Some(parse_expr(cur, false));
            // let-else: `let P = e else { .. };`
            if cur.eat_ident("else") {
                cur.bump(); // the else block
            }
        }
        cur.eat_punct(";");
        return Some(Stmt::Let {
            name,
            ty,
            init,
            span,
        });
    }
    if let Some(kw) = head {
        if ITEM_KEYWORDS.contains(&kw) || kw == "pub" {
            // Don't treat expression keywords as items.
            if kw != "use" || cur.peek_at(1).and_then(Tree::ident).is_some() {
                if let Some(mut item) = parse_item(cur) {
                    item.cfg_test |= cfg_test;
                    return Some(Stmt::Item(item));
                }
            }
        }
    }
    let expr = parse_expr(cur, false);
    let has_semi = cur.eat_punct(";");
    Some(Stmt::Expr { expr, has_semi })
}

/// Name of a simple `let` pattern (`x`, `mut x`); `None` otherwise.
fn simple_pat_name(trees: &[&Tree]) -> Option<String> {
    let names: Vec<&str> = trees.iter().filter_map(|t| t.ident()).collect();
    match names.as_slice() {
        [name] => Some((*name).to_string()),
        ["mut", name] => Some((*name).to_string()),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Expression parsing (Pratt over token trees).
// ---------------------------------------------------------------------

/// Parses one expression. `no_struct` suppresses struct-literal
/// interpretation of `Path { .. }` (scrutinee/condition position).
fn parse_expr(cur: &mut Cursor, no_struct: bool) -> Expr {
    parse_bp(cur, 0, no_struct)
}

/// Operator → (left bp, right bp). Higher binds tighter.
fn infix_bp(op: &str) -> Option<(u8, u8)> {
    Some(match op {
        "=" | "+=" | "-=" | "*=" | "/=" | "%=" | "&=" | "|=" | "^=" | "<<=" | ">>=" => (2, 1),
        ".." | "..=" => (3, 4),
        "||" => (5, 6),
        "&&" => (7, 8),
        "==" | "!=" | "<" | ">" | "<=" | ">=" => (9, 10),
        "|" => (11, 12),
        "^" => (13, 14),
        "&" => (15, 16),
        "<<" | ">>" => (17, 18),
        "+" | "-" => (19, 20),
        "*" | "/" | "%" => (21, 22),
        _ => return None,
    })
}

/// Reads the operator at the cursor, re-joining adjacent single-char
/// puncts (`<`+`<` → `<<`, `+`+`=` → `+=`) by span adjacency.
fn peek_op(cur: &Cursor) -> Option<(String, usize)> {
    let first = cur.peek()?.leaf()?;
    let Tok::Punct(a) = &first.tok else {
        return None;
    };
    let joined = |b: &str, n: usize| -> Option<(String, usize)> {
        let next = cur.peek_at(n - 1)?.leaf()?;
        let Tok::Punct(p) = &next.tok else {
            return None;
        };
        if p == b && next.span.line == first.span.line && next.span.col == first.span.col + (n - 1)
        {
            return Some((format!("{a}{}", b), n));
        }
        None
    };
    match a.as_str() {
        "<" | ">" => {
            // `<<` `>>` `<=` `>=` (and `<<=`/`>>=` as shift-assign).
            if let Some((op, n)) = joined(a.as_str(), 2) {
                if let Some(eq) = cur.peek_at(2).and_then(Tree::leaf) {
                    if eq.tok.is_punct("=")
                        && eq.span.line == first.span.line
                        && eq.span.col == first.span.col + 2
                    {
                        return Some((format!("{op}="), 3));
                    }
                }
                return Some((op, n));
            }
            if let Some(hit) = joined("=", 2) {
                return Some(hit);
            }
            Some((a.clone(), 1))
        }
        "+" | "-" | "*" | "/" | "%" | "^" => {
            if let Some(hit) = joined("=", 2) {
                return Some(hit);
            }
            Some((a.clone(), 1))
        }
        "&" | "|" => {
            if let Some(hit) = joined("=", 2) {
                return Some(hit);
            }
            Some((a.clone(), 1))
        }
        _ => Some((a.clone(), 1)),
    }
}

fn parse_bp(cur: &mut Cursor, min_bp: u8, no_struct: bool) -> Expr {
    let mut lhs = parse_prefix(cur, no_struct);
    loop {
        lhs = parse_postfix(cur, lhs, no_struct);
        let Some((op, ntrees)) = peek_op(cur) else {
            break;
        };
        let Some((lbp, rbp)) = infix_bp(&op) else {
            break;
        };
        if lbp < min_bp {
            break;
        }
        for _ in 0..ntrees {
            cur.bump();
        }
        if op == ".." || op == "..=" {
            // Open-ended `lo..`: stop if no expression follows.
            let hi = if range_continues(cur) {
                Some(Box::new(parse_bp(cur, rbp, no_struct)))
            } else {
                None
            };
            let span = lhs.span;
            lhs = Expr {
                kind: ExprKind::Range {
                    lo: Some(Box::new(lhs)),
                    hi,
                },
                span,
            };
            continue;
        }
        let rhs = parse_bp(cur, rbp, no_struct);
        let span = lhs.span;
        let kind = if op == "=" || op.ends_with('=') && infix_bp(&op).is_some_and(|(l, _)| l == 2) {
            ExprKind::Assign {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            }
        } else {
            ExprKind::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            }
        };
        lhs = Expr { kind, span };
    }
    lhs
}

/// Does an expression follow (for open ranges)?
fn range_continues(cur: &Cursor) -> bool {
    match cur.peek() {
        None => false,
        Some(t) => {
            if let Some(tok) = t.leaf() {
                match &tok.tok {
                    Tok::Punct(p) => matches!(p.as_str(), "(" | "-" | "!" | "*" | "&"),
                    Tok::Ident(name) => !matches!(name.as_str(), "else"),
                    _ => true,
                }
            } else {
                // `{` body of `for x in 0.. {` is handled by groups:
                // a brace group does not continue a range.
                t.group_of('{').is_none()
            }
        }
    }
}

fn parse_prefix(cur: &mut Cursor, no_struct: bool) -> Expr {
    let span = cur.span();
    // Leading `..`/`..=` range.
    if cur
        .peek()
        .is_some_and(|t| t.is_punct("..") || t.is_punct("..="))
    {
        cur.bump();
        let hi = if range_continues(cur) {
            Some(Box::new(parse_bp(cur, 4, no_struct)))
        } else {
            None
        };
        return Expr {
            kind: ExprKind::Range { lo: None, hi },
            span,
        };
    }
    for op in ["-", "!", "*"] {
        if cur.peek().is_some_and(|t| t.is_punct(op)) {
            cur.bump();
            let operand = parse_bp(cur, 23, no_struct);
            return Expr {
                kind: ExprKind::Unary {
                    op: op.to_string(),
                    operand: Box::new(operand),
                },
                span,
            };
        }
    }
    if cur
        .peek()
        .is_some_and(|t| t.is_punct("&") || t.is_punct("&&"))
    {
        cur.bump();
        cur.eat_ident("mut");
        let operand = parse_bp(cur, 23, no_struct);
        return Expr {
            kind: ExprKind::Unary {
                op: "&".to_string(),
                operand: Box::new(operand),
            },
            span,
        };
    }
    // Closures: `|..| body`, `||  body`, `move |..| body`.
    let moved = cur.peek().is_some_and(|t| t.ident() == Some("move"))
        && cur
            .peek_at(1)
            .is_some_and(|t| t.is_punct("|") || t.is_punct("||"));
    if moved {
        cur.bump();
    }
    let closure = if cur.eat_punct("|") {
        drop(collect_until(cur, &["|"], &[])); // the parameters
        true
    } else {
        cur.eat_punct("||")
    };
    if closure {
        if cur.eat_punct("->") {
            drop(collect_until(cur, &[], &["{"]));
        }
        let body = parse_bp(cur, 3, false);
        return Expr {
            kind: ExprKind::Closure {
                body: Box::new(body),
            },
            span,
        };
    }
    parse_atom(cur, no_struct)
}

fn parse_atom(cur: &mut Cursor, no_struct: bool) -> Expr {
    let span = cur.span();
    let Some(tree) = cur.peek() else {
        return Expr {
            kind: ExprKind::Unknown(Vec::new()),
            span,
        };
    };
    match tree {
        Tree::Group(g) => {
            cur.bump();
            match g.delim {
                '(' => {
                    let parts = split_top(&g.children, ",");
                    let exprs: Vec<Expr> = parts
                        .into_iter()
                        .filter(|p| !p.is_empty())
                        .map(|p| parse_subtrees(&p))
                        .collect();
                    match exprs.len() {
                        1 if !ends_with_comma(&g.children) => {
                            let mut it = exprs;
                            match it.pop() {
                                Some(e) => e,
                                None => Expr {
                                    kind: ExprKind::Tuple(Vec::new()),
                                    span,
                                },
                            }
                        }
                        _ => Expr {
                            kind: ExprKind::Tuple(exprs),
                            span,
                        },
                    }
                }
                '[' => {
                    let parts = split_top(&g.children, ",");
                    let exprs = parts
                        .into_iter()
                        .filter(|p| !p.is_empty())
                        .map(|p| parse_subtrees(&p))
                        .collect();
                    Expr {
                        kind: ExprKind::Array(exprs),
                        span,
                    }
                }
                _ => Expr {
                    kind: ExprKind::Block(parse_block(g)),
                    span,
                },
            }
        }
        Tree::Leaf(tok) => match &tok.tok {
            Tok::Num(n) => {
                cur.bump();
                Expr {
                    kind: ExprKind::Lit(n.clone()),
                    span,
                }
            }
            Tok::Str => {
                cur.bump();
                Expr {
                    kind: ExprKind::Lit("\"\"".to_string()),
                    span,
                }
            }
            Tok::Char => {
                cur.bump();
                Expr {
                    kind: ExprKind::Lit("''".to_string()),
                    span,
                }
            }
            Tok::Lifetime(_) => {
                // Labelled block/loop: `'l: loop { .. }`.
                cur.bump();
                cur.eat_punct(":");
                parse_atom(cur, no_struct)
            }
            Tok::Ident(name) => parse_ident_atom(cur, name.clone(), span, no_struct),
            Tok::Punct(_) => {
                // Unparseable start: consume one tree, harvest it.
                let t = cur.bump();
                Expr {
                    kind: ExprKind::Unknown(t.map(harvest_tree).unwrap_or_default()),
                    span,
                }
            }
        },
    }
}

fn ends_with_comma(children: &[Tree]) -> bool {
    children.last().is_some_and(|t| t.is_punct(","))
}

fn parse_subtrees(trees: &[&Tree]) -> Expr {
    // Re-own the slice into a cursor-compatible form.
    let owned: Vec<Tree> = trees.iter().map(|t| (*t).clone()).collect();
    let mut cur = Cursor {
        trees: &owned,
        pos: 0,
    };
    let expr = parse_expr(&mut cur, false);
    if cur.at_end() {
        expr
    } else {
        // Trailing unparsed trees: keep both sides visible.
        let mut harvested = vec![expr];
        while let Some(t) = cur.bump() {
            harvested.extend(harvest_tree(t));
        }
        Expr {
            kind: ExprKind::Unknown(harvested),
            span: owned.first().map_or(Span::NONE, Tree::span),
        }
    }
}

fn parse_ident_atom(cur: &mut Cursor, name: String, span: Span, no_struct: bool) -> Expr {
    match name.as_str() {
        "if" => {
            cur.bump();
            let cond = if cur.eat_ident("let") {
                let _pat = collect_until(cur, &["="], &["{"]);
                parse_bp(cur, 3, true)
            } else {
                parse_bp(cur, 3, true)
            };
            let then = eat_block(cur);
            let els = if cur.eat_ident("else") {
                Some(Box::new(parse_atom(cur, no_struct)))
            } else {
                None
            };
            Expr {
                kind: ExprKind::If {
                    cond: Box::new(cond),
                    then,
                    els,
                },
                span,
            }
        }
        "match" => {
            cur.bump();
            let scrutinee = parse_bp(cur, 3, true);
            let arms = match cur.peek().and_then(|t| t.group_of('{')) {
                Some(g) => {
                    cur.bump();
                    parse_arms(g)
                }
                None => Vec::new(),
            };
            Expr {
                kind: ExprKind::Match {
                    scrutinee: Box::new(scrutinee),
                    arms,
                },
                span,
            }
        }
        "while" => {
            cur.bump();
            let cond = if cur.eat_ident("let") {
                let _pat = collect_until(cur, &["="], &["{"]);
                parse_bp(cur, 3, true)
            } else {
                parse_bp(cur, 3, true)
            };
            let body = eat_block(cur);
            Expr {
                kind: ExprKind::While {
                    cond: Box::new(cond),
                    body,
                },
                span,
            }
        }
        "for" => {
            cur.bump();
            let pat_trees = collect_until(cur, &[], &["{"]);
            // Pattern runs until the top-level `in`.
            let in_pos = pat_trees.iter().position(|t| t.ident() == Some("in"));
            let (pat, iter) = match in_pos {
                Some(i) => {
                    let pat = simple_pat_name(&pat_trees[..i]);
                    (pat, parse_subtrees(&pat_trees[i + 1..]))
                }
                None => (
                    None,
                    Expr {
                        kind: ExprKind::Unknown(
                            pat_trees.iter().flat_map(|t| harvest_tree(t)).collect(),
                        ),
                        span,
                    },
                ),
            };
            let body = eat_block(cur);
            Expr {
                kind: ExprKind::For {
                    pat,
                    iter: Box::new(iter),
                    body,
                },
                span,
            }
        }
        "loop" => {
            cur.bump();
            let body = eat_block(cur);
            Expr {
                kind: ExprKind::Loop { body },
                span,
            }
        }
        "unsafe" => {
            cur.bump();
            let body = eat_block(cur);
            Expr {
                kind: ExprKind::Block(body),
                span,
            }
        }
        "return" => {
            cur.bump();
            let value = if expr_follows(cur) {
                Some(Box::new(parse_bp(cur, 3, no_struct)))
            } else {
                None
            };
            Expr {
                kind: ExprKind::Return(value),
                span,
            }
        }
        "break" => {
            cur.bump();
            let value = if expr_follows(cur) {
                Some(Box::new(parse_bp(cur, 3, no_struct)))
            } else {
                None
            };
            Expr {
                kind: ExprKind::Break(value),
                span,
            }
        }
        "continue" => {
            cur.bump();
            Expr {
                kind: ExprKind::Break(None),
                span,
            }
        }
        "true" | "false" => {
            cur.bump();
            Expr {
                kind: ExprKind::Lit(name),
                span,
            }
        }
        _ => {
            // Path (with optional turbofish), then macro / struct-lit /
            // call resolution in postfix position.
            let mut segs = vec![name];
            cur.bump();
            loop {
                if cur.peek().is_some_and(|t| t.is_punct("::")) {
                    match cur.peek_at(1) {
                        Some(t2) if t2.is_punct("<") => {
                            cur.bump();
                            cur.skip_angles();
                        }
                        Some(t2) if t2.ident().is_some() => {
                            cur.bump();
                            if let Some(seg) = cur.bump().and_then(Tree::ident) {
                                segs.push(seg.to_string());
                            }
                        }
                        _ => break,
                    }
                } else {
                    break;
                }
            }
            // Macro call: `path!(..)` / `path![..]` / `path!{..}`.
            if cur.peek().is_some_and(|t| t.is_punct("!")) {
                if let Some(g) = cur.peek_at(1).and_then(Tree::group) {
                    cur.bump();
                    cur.bump();
                    let args = split_top(&g.children, ",")
                        .into_iter()
                        .filter(|p| !p.is_empty())
                        .map(|p| parse_subtrees(&p))
                        .collect();
                    return Expr {
                        kind: ExprKind::Macro { path: segs, args },
                        span,
                    };
                }
            }
            // Struct literal.
            if !no_struct {
                if let Some(g) = cur.peek().and_then(|t| t.group_of('{')) {
                    if looks_like_struct_lit(g) {
                        cur.bump();
                        let fields = parse_struct_lit_fields(g);
                        return Expr {
                            kind: ExprKind::StructLit { path: segs, fields },
                            span,
                        };
                    }
                }
            }
            Expr {
                kind: ExprKind::Path(segs),
                span,
            }
        }
    }
}

fn eat_block(cur: &mut Cursor) -> Block {
    match cur.peek().and_then(|t| t.group_of('{')) {
        Some(g) => {
            cur.bump();
            parse_block(g)
        }
        None => Block::default(),
    }
}

fn expr_follows(cur: &Cursor) -> bool {
    match cur.peek() {
        None => false,
        Some(t) => !(t.is_punct(";") || t.is_punct(",")),
    }
}

/// `Path { .. }` is a struct literal when the body looks like field
/// initialisers (`ident:`, shorthand `ident,`, `..base`) — not like
/// statements.
fn looks_like_struct_lit(g: &Group) -> bool {
    if g.children.is_empty() {
        return true;
    }
    let parts = split_top(&g.children, ",");
    parts
        .iter()
        .filter(|p| !p.is_empty())
        .all(|part| match part.as_slice() {
            [one] => one.ident().is_some() || one.is_punct(".."),
            [first, second, ..] => {
                (first.ident().is_some() && second.is_punct(":")) || first.is_punct("..")
            }
            [] => true,
        })
}

fn parse_struct_lit_fields(g: &Group) -> Vec<(String, Expr)> {
    split_top(&g.children, ",")
        .into_iter()
        .filter(|p| !p.is_empty())
        .filter_map(|part| {
            if part.first().is_some_and(|t| t.is_punct("..")) {
                // `..base`: keep the base expr under an empty name.
                return Some((String::new(), parse_subtrees(&part[1..])));
            }
            let name = part.first().and_then(|t| t.ident())?.to_string();
            if part.get(1).is_some_and(|t| t.is_punct(":")) {
                Some((name, parse_subtrees(&part[2..])))
            } else {
                // Shorthand `x`.
                let span = part.first().map_or(Span::NONE, |t| t.span());
                Some((
                    name.clone(),
                    Expr {
                        kind: ExprKind::Path(vec![name]),
                        span,
                    },
                ))
            }
        })
        .collect()
}

fn parse_arms(g: &Group) -> Vec<Arm> {
    let mut cur = Cursor {
        trees: &g.children,
        pos: 0,
    };
    let mut arms = Vec::new();
    while !cur.at_end() {
        eat_attrs(&mut cur);
        if cur.eat_punct(",") {
            continue;
        }
        let pat_trees = collect_until(&mut cur, &["=>"], &[]);
        if pat_trees.is_empty() && cur.at_end() {
            break;
        }
        // Split off a guard: top-level `if` in the pattern region.
        let guard_pos = pat_trees.iter().position(|t| t.ident() == Some("if"));
        let guard = guard_pos.map(|i| parse_subtrees(&pat_trees[i + 1..]));
        let before = cur.pos;
        let body = parse_expr(&mut cur, false);
        if cur.pos == before {
            cur.bump();
        }
        cur.eat_punct(",");
        arms.push(Arm { guard, body });
    }
    arms
}

fn parse_postfix(cur: &mut Cursor, mut lhs: Expr, _no_struct: bool) -> Expr {
    loop {
        // `.` member access / method call / await.
        if cur.peek().is_some_and(|t| t.is_punct(".")) {
            let Some(next) = cur.peek_at(1) else {
                cur.bump();
                break;
            };
            match next.leaf().map(|l| &l.tok) {
                Some(Tok::Ident(name)) => {
                    let name = name.clone();
                    cur.bump();
                    cur.bump();
                    // Optional turbofish.
                    if cur.peek().is_some_and(|t| t.is_punct("::"))
                        && cur.peek_at(1).is_some_and(|t| t.is_punct("<"))
                    {
                        cur.bump();
                        cur.skip_angles();
                    }
                    if let Some(g) = cur.peek().and_then(|t| t.group_of('(')) {
                        cur.bump();
                        let args = split_top(&g.children, ",")
                            .into_iter()
                            .filter(|p| !p.is_empty())
                            .map(|p| parse_subtrees(&p))
                            .collect();
                        let span = lhs.span;
                        lhs = Expr {
                            kind: ExprKind::MethodCall {
                                recv: Box::new(lhs),
                                method: name,
                                args,
                            },
                            span,
                        };
                    } else {
                        let span = lhs.span;
                        lhs = Expr {
                            kind: ExprKind::Field {
                                base: Box::new(lhs),
                                name,
                            },
                            span,
                        };
                    }
                    continue;
                }
                Some(Tok::Num(n)) => {
                    let name = n.clone();
                    cur.bump();
                    cur.bump();
                    let span = lhs.span;
                    lhs = Expr {
                        kind: ExprKind::Field {
                            base: Box::new(lhs),
                            name,
                        },
                        span,
                    };
                    continue;
                }
                _ => break,
            }
        }
        // `?`
        if cur.peek().is_some_and(|t| t.is_punct("?")) {
            cur.bump();
            let span = lhs.span;
            lhs = Expr {
                kind: ExprKind::Try(Box::new(lhs)),
                span,
            };
            continue;
        }
        // Call on a non-path atom chain: `f()()`, `(x.f)()`.
        if matches!(
            lhs.kind,
            ExprKind::Path(_)
                | ExprKind::Call { .. }
                | ExprKind::MethodCall { .. }
                | ExprKind::Field { .. }
                | ExprKind::Index { .. }
                | ExprKind::Try(_)
        ) {
            if let Some(g) = cur.peek().and_then(|t| t.group_of('(')) {
                cur.bump();
                let args = split_top(&g.children, ",")
                    .into_iter()
                    .filter(|p| !p.is_empty())
                    .map(|p| parse_subtrees(&p))
                    .collect();
                let span = lhs.span;
                lhs = Expr {
                    kind: ExprKind::Call {
                        callee: Box::new(lhs),
                        args,
                    },
                    span,
                };
                continue;
            }
            if let Some(g) = cur.peek().and_then(|t| t.group_of('[')) {
                cur.bump();
                let index = parse_subtrees(&g.children.iter().collect::<Vec<_>>());
                let span = lhs.span;
                lhs = Expr {
                    kind: ExprKind::Index {
                        base: Box::new(lhs),
                        index: Box::new(index),
                    },
                    span,
                };
                continue;
            }
        }
        // `as Type`.
        if cur.peek().is_some_and(|t| t.ident() == Some("as")) {
            cur.bump();
            skip_cast_type(cur);
            let span = lhs.span;
            lhs = Expr {
                kind: ExprKind::Cast {
                    operand: Box::new(lhs),
                },
                span,
            };
            continue;
        }
        // `.await` handled as Field("await") above — fine.
        break;
    }
    lhs
}

/// Skips the type after `as`: a path with optional generics, refs, or
/// pointer sigils. Stops at any operator/terminator.
fn skip_cast_type(cur: &mut Cursor) {
    // Leading sigils.
    while cur
        .peek()
        .is_some_and(|t| t.is_punct("*") || t.is_punct("&"))
    {
        cur.bump();
        cur.eat_ident("mut");
        cur.eat_ident("const");
    }
    // Path segments.
    while cur.peek().is_some_and(|t| t.ident().is_some()) {
        cur.bump();
        if cur.peek().is_some_and(|t| t.is_punct("::")) {
            cur.bump();
            continue;
        }
        if cur.peek().is_some_and(|t| t.is_punct("<")) {
            cur.skip_angles();
        }
        break;
    }
}

/// Harvests conservative sub-expressions (paths and calls) from an
/// arbitrary token tree, for [`ExprKind::Unknown`].
pub fn harvest_tree(tree: &Tree) -> Vec<Expr> {
    let mut out = Vec::new();
    harvest_rec(std::slice::from_ref(tree), &mut out);
    out
}

fn harvest_rec(trees: &[Tree], out: &mut Vec<Expr>) {
    let mut i = 0;
    while i < trees.len() {
        if let Some(name) = trees[i].ident() {
            let span = trees[i].span();
            let mut segs = vec![name.to_string()];
            let mut j = i + 1;
            while j + 1 < trees.len() && trees[j].is_punct("::") && trees[j + 1].ident().is_some() {
                if let Some(seg) = trees[j + 1].ident() {
                    segs.push(seg.to_string());
                }
                j += 2;
            }
            out.push(Expr {
                kind: ExprKind::Path(segs),
                span,
            });
            i = j;
        } else {
            if let Some(g) = trees[i].group() {
                harvest_rec(&g.children, out);
            }
            i += 1;
        }
    }
}

fn parse_use(cur: &mut Cursor) -> Vec<UseEntry> {
    let trees = collect_until(cur, &[";"], &[]);
    let mut entries = Vec::new();
    expand_use(&trees, &[], &mut entries);
    entries
}

/// Expands a use tree into flat `(path, alias)` entries.
fn expand_use(trees: &[&Tree], prefix: &[String], entries: &mut Vec<UseEntry>) {
    let mut path = prefix.to_vec();
    let mut i = 0;
    while i < trees.len() {
        let t = trees[i];
        if let Some(name) = t.ident() {
            if name == "as" {
                // `.. as alias`
                if let Some(alias) = trees.get(i + 1).and_then(|t| t.ident()) {
                    entries.push(UseEntry {
                        path: path.clone(),
                        alias: alias.to_string(),
                    });
                    return;
                }
                i += 1;
            } else if name == "self" && !path.is_empty() {
                // `{self, ..}`: binds the prefix's last segment.
                if let Some(last) = path.last() {
                    entries.push(UseEntry {
                        path: path.clone(),
                        alias: last.clone(),
                    });
                }
                return;
            } else {
                path.push(name.to_string());
                i += 1;
            }
        } else if t.is_punct("::") {
            i += 1;
        } else if t.is_punct("*") {
            // Glob: record with empty alias (consumers treat globs
            // conservatively).
            entries.push(UseEntry {
                path: path.clone(),
                alias: String::new(),
            });
            return;
        } else if let Some(g) = t.group_of('{') {
            for part in split_top(&g.children, ",") {
                if part.is_empty() {
                    continue;
                }
                expand_use(&part, &path, entries);
            }
            return;
        } else {
            i += 1;
        }
    }
    if let Some(last) = path.last() {
        if path.len() > prefix.len() {
            entries.push(UseEntry {
                path: path.clone(),
                alias: last.clone(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::clean_source;
    use crate::parser::parse_trees;

    fn file(src: &str) -> File {
        parse_file(&parse_trees(&clean_source(src)))
    }

    fn first_fn(f: &File) -> &FnDef {
        for item in &f.items {
            if let ItemKind::Fn(fd) = &item.kind {
                return fd;
            }
        }
        unreachable!("no fn in test fixture")
    }

    #[test]
    fn fn_signature_parses() {
        let f = file("pub fn f(a_ns: u64, buf: &[u8]) -> Nanos { a_ns }");
        let fd = first_fn(&f);
        assert_eq!(fd.name, "f");
        assert_eq!(fd.params.len(), 2);
        assert_eq!(fd.params[0].name, "a_ns");
        assert_eq!(fd.params[0].ty.base, "u64");
        assert_eq!(fd.ret.as_ref().map(|t| t.base.as_str()), Some("Nanos"));
        assert!(fd.body.is_some());
    }

    #[test]
    fn generics_in_signature_do_not_confuse() {
        let f = file("fn g<T: Ord, const N: usize>(xs: Vec<Vec<T>>) -> Option<Vec<T>> { None }");
        let fd = first_fn(&f);
        assert_eq!(fd.name, "g");
        assert_eq!(fd.params.len(), 1);
        assert_eq!(fd.params[0].ty.base, "Vec");
        assert_eq!(fd.ret.as_ref().map(|t| t.base.as_str()), Some("Option"));
    }

    #[test]
    fn use_trees_flatten() {
        let f = file("use std::collections::{HashMap, BTreeMap as Sorted};\nuse a::b::c;\n");
        let mut entries = Vec::new();
        for item in &f.items {
            if let ItemKind::Use(es) = &item.kind {
                entries.extend(es.iter().cloned());
            }
        }
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].alias, "HashMap");
        assert_eq!(entries[0].path, vec!["std", "collections", "HashMap"]);
        assert_eq!(entries[1].alias, "Sorted");
        assert_eq!(entries[1].path, vec!["std", "collections", "BTreeMap"]);
        assert_eq!(entries[2].alias, "c");
    }

    #[test]
    fn method_chains_and_casts() {
        let f = file("fn f(x: u64) -> u64 { x.wrapping_mul(3).min(10) as u64 }");
        let fd = first_fn(&f);
        let body = fd
            .body
            .as_ref()
            .map(|b| &b.stmts)
            .into_iter()
            .flatten()
            .next();
        let Some(Stmt::Expr { expr, has_semi }) = body else {
            unreachable!("trailing expr expected")
        };
        assert!(!has_semi);
        let ExprKind::Cast { operand } = &expr.kind else {
            unreachable!("cast expected, got {:?}", expr.kind)
        };
        let ExprKind::MethodCall { method, .. } = &operand.kind else {
            unreachable!("method chain expected")
        };
        assert_eq!(method, "min");
    }

    #[test]
    fn match_arms_with_guards() {
        let f = file(
            "fn f(k: IoOp, n: u8) -> u32 {\n match (k, n) {\n  (IoOp::Read, x) if x > 3 => 1,\n  (IoOp::Write, _) => 2,\n  _ => 3,\n }\n}\n",
        );
        let fd = first_fn(&f);
        let Some(Stmt::Expr { expr, .. }) = fd.body.as_ref().and_then(|b| b.stmts.first()) else {
            unreachable!("match stmt expected")
        };
        let ExprKind::Match { arms, .. } = &expr.kind else {
            unreachable!("match expected")
        };
        assert_eq!(arms.len(), 3);
        assert!(arms[0].guard.is_some());
        assert!(arms[1].guard.is_none() && arms[2].guard.is_none());
        assert!(matches!(&arms[2].body.kind, ExprKind::Lit(n) if n == "3"));
    }

    #[test]
    fn shift_vs_generics() {
        let f = file("fn f(x: u64) -> u64 { let m: Vec<Vec<u8>> = Vec::new(); x << 2 }");
        let fd = first_fn(&f);
        let stmts = fd
            .body
            .as_ref()
            .map(|b| &b.stmts)
            .into_iter()
            .flatten()
            .collect::<Vec<_>>();
        assert_eq!(stmts.len(), 2);
        let Stmt::Let { ty, .. } = stmts[0] else {
            unreachable!("let expected")
        };
        assert_eq!(ty.as_ref().map(|t| t.base.as_str()), Some("Vec"));
        let Stmt::Expr { expr, .. } = stmts[1] else {
            unreachable!("shift expr expected")
        };
        let ExprKind::Binary { op, .. } = &expr.kind else {
            unreachable!("binary expected, got {:?}", expr.kind)
        };
        assert_eq!(op, "<<");
    }

    #[test]
    fn closures_and_struct_literals() {
        let f =
            file("fn f() -> Foo { let g = |a, b| a + b; let _x = g(1, 2); Foo { bar: 1, baz } }");
        let fd = first_fn(&f);
        let stmts: Vec<_> = fd
            .body
            .as_ref()
            .map(|b| &b.stmts)
            .into_iter()
            .flatten()
            .collect();
        let Stmt::Let { init: Some(e), .. } = stmts[0] else {
            unreachable!("closure let")
        };
        let ExprKind::Closure { body } = &e.kind else {
            unreachable!("closure expected, got {:?}", e.kind)
        };
        assert!(matches!(&body.kind, ExprKind::Binary { op, .. } if op == "+"));
        let Stmt::Expr { expr, .. } = stmts[2] else {
            unreachable!("struct lit")
        };
        let ExprKind::StructLit { path, fields } = &expr.kind else {
            unreachable!("struct literal expected, got {:?}", expr.kind)
        };
        assert_eq!(path, &["Foo".to_string()]);
        assert_eq!(fields.len(), 2);
        assert_eq!(fields[1].0, "baz");
    }

    #[test]
    fn impl_blocks_and_nested_mods() {
        let f = file(
            "mod inner {\n  pub struct S { pub t_ns: u64 }\n  impl S {\n    pub fn t(&self) -> u64 { self.t_ns }\n  }\n}\n",
        );
        let ItemKind::Mod { items, .. } = &f.items[0].kind else {
            unreachable!("mod expected")
        };
        // The struct is skipped whole, and the impl after it parses.
        assert!(matches!(items[0].kind, ItemKind::Other));
        let ItemKind::Impl { self_ty, items } = &items[1].kind else {
            unreachable!("impl expected")
        };
        assert_eq!(self_ty, "S");
        let ItemKind::Fn(fd) = &items[0].kind else {
            unreachable!("method expected")
        };
        assert_eq!(fd.params[0].name, "self");
    }

    #[test]
    fn cfg_test_items_are_flagged() {
        let f = file("#[cfg(test)]\nmod tests { fn t() {} }\nfn prod() {}\n");
        assert!(f.items[0].cfg_test);
        assert!(!f.items[1].cfg_test);
    }

    #[test]
    fn macro_bodies_yield_args() {
        let f = file("fn f(x: u64) { assert_eq!(x + 1, compute(x), \"mismatch\"); }");
        let fd = first_fn(&f);
        let Some(Stmt::Expr { expr, .. }) = fd.body.as_ref().and_then(|b| b.stmts.first()) else {
            unreachable!("macro stmt")
        };
        let ExprKind::Macro { path, args } = &expr.kind else {
            unreachable!("macro expected, got {:?}", expr.kind)
        };
        assert_eq!(path, &["assert_eq".to_string()]);
        assert_eq!(args.len(), 3);
    }

    #[test]
    fn unknown_constructs_harvest_paths() {
        // A weird construct the grammar doesn't model (half-open
        // pattern binding in expression position) must still surface
        // the paths it mentions.
        let f = file("fn f() { let q = yield_thing spooky::path(arg); }");
        let parsed = format!("{:?}", first_fn(&f).body);
        assert!(parsed.contains("[\"spooky\", \"path\"]"), "{parsed}");
    }

    #[test]
    fn let_else_parses() {
        let f = file("fn f(v: Option<u32>) -> u32 { let Some(x) = v else { return 0; }; x }");
        let fd = first_fn(&f);
        assert!(fd.body.as_ref().is_some_and(|b| b.stmts.len() == 2));
    }

    #[test]
    fn if_let_and_while_let() {
        let f = file(
            "fn f(v: Option<u32>) {\n  if let Some(x) = v { g(x); }\n  while let Some(y) = h() { i(y); }\n}\n",
        );
        let fd = first_fn(&f);
        let stmts: Vec<_> = fd
            .body
            .as_ref()
            .map(|b| &b.stmts)
            .into_iter()
            .flatten()
            .collect();
        assert!(matches!(
            stmts[0],
            Stmt::Expr {
                expr: Expr {
                    kind: ExprKind::If { .. },
                    ..
                },
                ..
            }
        ));
        assert!(matches!(
            stmts[1],
            Stmt::Expr {
                expr: Expr {
                    kind: ExprKind::While { .. },
                    ..
                },
                ..
            }
        ));
    }
}
