//! Token and token-tree layer over the cleaned source.
//!
//! [`crate::lexer::clean_source`] blanks comments and literal contents
//! but leaves the code's shape intact; this module turns that cleaned
//! text into a stream of spanned tokens and then into *token trees*
//! (nested `()`/`[]`/`{}` groups), the substrate for the AST layer.
//!
//! Design notes:
//! * Spans are 1-based `(line, col)` into the cleaned text. Columns are
//!   best-effort (the cleaner can shift bytes within a line); lines are
//!   exact, which is what diagnostics and the `#[cfg(test)]` map key on.
//! * Only unambiguous multi-char operators are fused at the token level
//!   (`::`, `->`, `=>`, `..`, `..=`, `...`, `&&`, `||`, `==`, `!=`).
//!   `<`/`>` always stay single so `Vec<Vec<u8>>` never lexes a shift;
//!   the expression parser re-joins adjacent puncts (`<=`, `+=`, `<<`)
//!   positionally when it actually is parsing an operator.
//! * `r#ident` raw identifiers lex as plain identifiers (the `r#` is
//!   consumed); cleaned string literals (`""`), raw strings (already
//!   reduced to `""` by the cleaner) and char literals (`''`) become
//!   single [`Tok::Str`]/[`Tok::Char`] tokens.

use crate::lexer::CleanFile;

/// A 1-based source position in the cleaned text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Span {
    /// 1-based line number (exact w.r.t. the original source).
    pub line: usize,
    /// 1-based column in the cleaned line (best-effort).
    pub col: usize,
}

impl Span {
    /// A span pointing nowhere (used for synthesized nodes).
    pub const NONE: Span = Span { line: 0, col: 0 };
}

/// One lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword; `r#ident` arrives with the `r#` stripped.
    Ident(String),
    /// Lifetime such as `'a` (name without the quote).
    Lifetime(String),
    /// Numeric literal, verbatim (`0xFF`, `1.5e-3`, `42u64`).
    Num(String),
    /// A (blanked) string literal.
    Str,
    /// A (blanked) char or byte literal.
    Char,
    /// Punctuation; fused multi-char operators are listed above.
    Punct(String),
}

impl Tok {
    /// The identifier text, if this token is one.
    pub fn ident(&self) -> Option<&str> {
        match self {
            Tok::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// `true` when this token is the punct `p`.
    pub fn is_punct(&self, p: &str) -> bool {
        matches!(self, Tok::Punct(s) if s == p)
    }
}

/// A spanned token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token itself.
    pub tok: Tok,
    /// Where it starts.
    pub span: Span,
}

/// Multi-char operators fused during lexing, longest first. Everything
/// else (notably `<`, `>`, `<=`, compound assignment) stays single-char
/// and is re-joined by consumers via span adjacency.
const FUSED: [&str; 10] = ["..=", "...", "::", "->", "=>", "..", "&&", "||", "==", "!="];

/// Tokenizes a cleaned file into a flat spanned token stream.
pub fn tokenize(clean: &CleanFile) -> Vec<Token> {
    let mut out = Vec::new();
    // A string literal opened but not closed on its line (multi-line
    // literal): skip following lines until the closing quote.
    let mut in_str = false;
    for (line_idx, line) in clean.lines.iter().enumerate() {
        let chars: Vec<char> = line.text.chars().collect();
        let mut i = 0usize;
        let line_no = line_idx + 1;
        if in_str {
            match chars.iter().position(|&c| c == '"') {
                Some(pos) => {
                    in_str = false;
                    i = pos + 1;
                }
                None => continue,
            }
        }
        while i < chars.len() {
            let c = chars[i];
            let span = Span {
                line: line_no,
                col: i + 1,
            };
            if c.is_whitespace() {
                i += 1;
            } else if c == '"' {
                // Cleaned strings are `"..."` with blanked contents; the
                // closing quote may sit on a later line.
                out.push(Token {
                    tok: Tok::Str,
                    span,
                });
                match chars[i + 1..].iter().position(|&c| c == '"') {
                    Some(rel) => i += rel + 2,
                    None => {
                        in_str = true;
                        i = chars.len();
                    }
                }
            } else if c == '\'' {
                // `''` (cleaned char literal) vs `'a` (lifetime).
                if chars.get(i + 1) == Some(&'\'') {
                    out.push(Token {
                        tok: Tok::Char,
                        span,
                    });
                    i += 2;
                } else if chars
                    .get(i + 1)
                    .is_some_and(|c| c.is_alphanumeric() || *c == '_')
                {
                    let start = i + 1;
                    let mut j = start;
                    while chars
                        .get(j)
                        .is_some_and(|c| c.is_alphanumeric() || *c == '_')
                    {
                        j += 1;
                    }
                    out.push(Token {
                        tok: Tok::Lifetime(chars[start..j].iter().collect()),
                        span,
                    });
                    i = j;
                } else {
                    // Stray quote (should not occur in cleaned text).
                    out.push(Token {
                        tok: Tok::Punct("'".to_string()),
                        span,
                    });
                    i += 1;
                }
            } else if c.is_alphabetic() || c == '_' {
                let mut j = i;
                while chars
                    .get(j)
                    .is_some_and(|c| c.is_alphanumeric() || *c == '_')
                {
                    j += 1;
                }
                let mut name: String = chars[i..j].iter().collect();
                // `r#ident` raw identifier: the cleaner leaves it verbatim.
                if name == "r"
                    && chars.get(j) == Some(&'#')
                    && chars
                        .get(j + 1)
                        .is_some_and(|c| c.is_alphabetic() || *c == '_')
                {
                    let start = j + 1;
                    let mut k = start;
                    while chars
                        .get(k)
                        .is_some_and(|c| c.is_alphanumeric() || *c == '_')
                    {
                        k += 1;
                    }
                    name = chars[start..k].iter().collect();
                    j = k;
                }
                out.push(Token {
                    tok: Tok::Ident(name),
                    span,
                });
                i = j;
            } else if c.is_ascii_digit() {
                let mut j = i;
                let hex = chars.get(i) == Some(&'0')
                    && matches!(
                        chars.get(i + 1),
                        Some('x') | Some('X') | Some('o') | Some('b')
                    );
                let mut seen_dot = false;
                while j < chars.len() {
                    let d = chars[j];
                    if d.is_alphanumeric() || d == '_' {
                        j += 1;
                    } else if d == '.'
                        && !seen_dot
                        && !hex
                        && chars.get(j + 1).is_some_and(|c| c.is_ascii_digit())
                    {
                        // `1.5` continues the literal; `1..n` and
                        // `1.max(2)` do not.
                        seen_dot = true;
                        j += 1;
                    } else if (d == '+' || d == '-')
                        && !hex
                        && j > i
                        && matches!(chars.get(j - 1), Some('e') | Some('E'))
                    {
                        // Exponent sign: `1e-3`.
                        j += 1;
                    } else {
                        break;
                    }
                }
                out.push(Token {
                    tok: Tok::Num(chars[i..j].iter().collect()),
                    span,
                });
                i = j;
            } else {
                // Punctuation: try the fused operators first.
                let rest: String = chars[i..chars.len().min(i + 3)].iter().collect();
                let fused = FUSED.iter().find(|op| rest.starts_with(**op));
                match fused {
                    Some(op) => {
                        out.push(Token {
                            tok: Tok::Punct((*op).to_string()),
                            span,
                        });
                        i += op.len();
                    }
                    None => {
                        out.push(Token {
                            tok: Tok::Punct(c.to_string()),
                            span,
                        });
                        i += 1;
                    }
                }
            }
        }
    }
    out
}

/// A token tree: a leaf token or a delimited group.
#[derive(Debug, Clone)]
pub enum Tree {
    /// A single token.
    Leaf(Token),
    /// A `(..)`, `[..]` or `{..}` group.
    Group(Group),
}

/// A delimited token-tree group.
#[derive(Debug, Clone)]
pub struct Group {
    /// Opening delimiter: `(`, `[` or `{`.
    pub delim: char,
    /// Span of the opening delimiter.
    pub open: Span,
    /// Span of the closing delimiter (or the last token, if unclosed).
    pub close: Span,
    /// The trees between the delimiters.
    pub children: Vec<Tree>,
}

impl Tree {
    /// The span where this tree starts.
    pub fn span(&self) -> Span {
        match self {
            Tree::Leaf(t) => t.span,
            Tree::Group(g) => g.open,
        }
    }

    /// The leaf token, if this tree is one.
    pub fn leaf(&self) -> Option<&Token> {
        match self {
            Tree::Leaf(t) => Some(t),
            _ => None,
        }
    }

    /// The identifier text, if this tree is an identifier leaf.
    pub fn ident(&self) -> Option<&str> {
        self.leaf().and_then(|t| t.tok.ident())
    }

    /// `true` when this tree is the punct `p`.
    pub fn is_punct(&self, p: &str) -> bool {
        self.leaf().is_some_and(|t| t.tok.is_punct(p))
    }

    /// The group, if this tree is one.
    pub fn group(&self) -> Option<&Group> {
        match self {
            Tree::Group(g) => Some(g),
            _ => None,
        }
    }

    /// The group, if this tree is one with the given delimiter.
    pub fn group_of(&self, delim: char) -> Option<&Group> {
        self.group().filter(|g| g.delim == delim)
    }
}

fn closer(open: char) -> char {
    match open {
        '(' => ')',
        '[' => ']',
        _ => '}',
    }
}

/// Builds nested token trees from a flat stream. Unbalanced closers are
/// dropped; unclosed groups close at end of input (the cleaner only ever
/// sees real Rust, so in practice files balance).
pub fn build_trees(tokens: Vec<Token>) -> Vec<Tree> {
    // Stack of (delimiter, open span, children under construction).
    let mut stack: Vec<(char, Span, Vec<Tree>)> = Vec::new();
    let mut top: Vec<Tree> = Vec::new();
    for token in tokens {
        let punct = match &token.tok {
            Tok::Punct(p) if p.len() == 1 => p.chars().next(),
            _ => None,
        };
        match punct {
            Some(open @ ('(' | '[' | '{')) => {
                stack.push((open, token.span, Vec::new()));
            }
            Some(close @ (')' | ']' | '}')) => {
                match stack.last() {
                    Some((open, _, _)) if closer(*open) == close => {
                        let (delim, open_span, children) =
                            stack.pop().unwrap_or(('(', Span::NONE, Vec::new()));
                        let group = Tree::Group(Group {
                            delim,
                            open: open_span,
                            close: token.span,
                            children,
                        });
                        match stack.last_mut() {
                            Some((_, _, siblings)) => siblings.push(group),
                            None => top.push(group),
                        }
                    }
                    _ => {} // unbalanced closer: drop
                }
            }
            _ => match stack.last_mut() {
                Some((_, _, siblings)) => siblings.push(Tree::Leaf(token)),
                None => top.push(Tree::Leaf(token)),
            },
        }
    }
    // Unclosed groups: fold them shut from the innermost out.
    while let Some((delim, open_span, children)) = stack.pop() {
        let close = children.last().map_or(open_span, Tree::span);
        let group = Tree::Group(Group {
            delim,
            open: open_span,
            close,
            children,
        });
        match stack.last_mut() {
            Some((_, _, siblings)) => siblings.push(group),
            None => top.push(group),
        }
    }
    top
}

/// Convenience: cleaned file → token trees.
pub fn parse_trees(clean: &CleanFile) -> Vec<Tree> {
    build_trees(tokenize(clean))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::clean_source;

    fn toks(src: &str) -> Vec<Tok> {
        tokenize(&clean_source(src))
            .into_iter()
            .map(|t| t.tok)
            .collect()
    }

    #[test]
    fn idents_nums_and_puncts() {
        let t = toks("let x = 42u64 + 0xFF;");
        assert_eq!(
            t,
            vec![
                Tok::Ident("let".into()),
                Tok::Ident("x".into()),
                Tok::Punct("=".into()),
                Tok::Num("42u64".into()),
                Tok::Punct("+".into()),
                Tok::Num("0xFF".into()),
                Tok::Punct(";".into()),
            ]
        );
    }

    #[test]
    fn float_vs_range_vs_method() {
        assert_eq!(
            toks("1.5e-3 0..n 1.max(2)"),
            vec![
                Tok::Num("1.5e-3".into()),
                Tok::Num("0".into()),
                Tok::Punct("..".into()),
                Tok::Ident("n".into()),
                Tok::Num("1".into()),
                Tok::Punct(".".into()),
                Tok::Ident("max".into()),
                Tok::Punct("(".into()),
                Tok::Num("2".into()),
                Tok::Punct(")".into()),
            ]
        );
    }

    #[test]
    fn raw_identifiers_lex_as_plain() {
        assert_eq!(
            toks("let r#match = r#fn;"),
            vec![
                Tok::Ident("let".into()),
                Tok::Ident("match".into()),
                Tok::Punct("=".into()),
                Tok::Ident("fn".into()),
                Tok::Punct(";".into()),
            ]
        );
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        assert_eq!(
            toks("fn f<'a>(x: &'a str) { let c = 'q'; }"),
            vec![
                Tok::Ident("fn".into()),
                Tok::Ident("f".into()),
                Tok::Punct("<".into()),
                Tok::Lifetime("a".into()),
                Tok::Punct(">".into()),
                Tok::Punct("(".into()),
                Tok::Ident("x".into()),
                Tok::Punct(":".into()),
                Tok::Punct("&".into()),
                Tok::Lifetime("a".into()),
                Tok::Ident("str".into()),
                Tok::Punct(")".into()),
                Tok::Punct("{".into()),
                Tok::Ident("let".into()),
                Tok::Ident("c".into()),
                Tok::Punct("=".into()),
                Tok::Char,
                Tok::Punct(";".into()),
                Tok::Punct("}".into()),
            ]
        );
    }

    #[test]
    fn nested_generics_never_fuse_into_shift() {
        let t = toks("Vec<Vec<u8>>");
        assert_eq!(
            t,
            vec![
                Tok::Ident("Vec".into()),
                Tok::Punct("<".into()),
                Tok::Ident("Vec".into()),
                Tok::Punct("<".into()),
                Tok::Ident("u8".into()),
                Tok::Punct(">".into()),
                Tok::Punct(">".into()),
            ]
        );
    }

    #[test]
    fn fused_operators() {
        assert_eq!(
            toks("a::b -> c => d..=e && f || g == h != i"),
            vec![
                Tok::Ident("a".into()),
                Tok::Punct("::".into()),
                Tok::Ident("b".into()),
                Tok::Punct("->".into()),
                Tok::Ident("c".into()),
                Tok::Punct("=>".into()),
                Tok::Ident("d".into()),
                Tok::Punct("..=".into()),
                Tok::Ident("e".into()),
                Tok::Punct("&&".into()),
                Tok::Ident("f".into()),
                Tok::Punct("||".into()),
                Tok::Ident("g".into()),
                Tok::Punct("==".into()),
                Tok::Ident("h".into()),
                Tok::Punct("!=".into()),
                Tok::Ident("i".into()),
            ]
        );
    }

    #[test]
    fn multiline_and_raw_strings_become_one_token() {
        let t = toks("let a = \"one\ntwo\nthree\"; let b = r#\"raw \"x\" body\"#; done();");
        let strs = t.iter().filter(|t| matches!(t, Tok::Str)).count();
        assert_eq!(strs, 2);
        assert!(t.contains(&Tok::Ident("done".into())));
    }

    #[test]
    fn trees_nest_and_span_lines() {
        let clean = clean_source("fn f() {\n    g(\n        1,\n    );\n}\n");
        let trees = parse_trees(&clean);
        // fn f () { ... }
        assert_eq!(trees.len(), 4);
        let body = trees[3].group_of('{').expect("body group");
        let call_args = body.children[1].group_of('(').expect("args");
        assert_eq!(call_args.open.line, 2);
        assert_eq!(call_args.close.line, 4);
        assert_eq!(call_args.children.len(), 2); // `1` `,`
    }

    #[test]
    fn unbalanced_closers_do_not_panic() {
        let clean = clean_source("fn f) } { (\n");
        let trees = parse_trees(&clean);
        assert!(!trees.is_empty());
    }
}
