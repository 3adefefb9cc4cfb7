//! A lightweight Rust source "cleaner": strips comments and string
//! literals so the parser never sees prose as code, and marks
//! `#[cfg(test)]` regions so test-only code is exempt from every pass.
//!
//! This is a line/character scanner, not a parser. It understands just
//! enough of Rust's lexical grammar to be trustworthy:
//! line comments, nested block comments, string/char/byte literals, raw
//! strings with `#` fences, and lifetimes vs. char literals.

/// One cleaned source line.
#[derive(Debug, Clone)]
pub struct CleanLine {
    /// Line text with comments and literal contents blanked to spaces.
    /// Byte length may differ from the original; column positions are
    /// not preserved exactly, line numbers are.
    pub text: String,
    /// `true` when the line sits inside a `#[cfg(test)]` item.
    pub in_test: bool,
}

/// A cleaned file, line by line.
#[derive(Debug)]
pub struct CleanFile {
    /// Cleaned lines, 0-indexed (line `i` is source line `i + 1`).
    pub lines: Vec<CleanLine>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    Code,
    LineComment,
    BlockComment { depth: u32 },
    Str,
    RawStr { fence: u32 },
    CharLit,
}

/// Cleans Rust source: blanks comments and literal contents, tags
/// `#[cfg(test)]` regions.
pub fn clean_source(src: &str) -> CleanFile {
    let mut state = State::Code;
    let mut lines: Vec<CleanLine> = Vec::new();

    // cfg(test) region tracking over the cleaned stream.
    let mut brace_depth: i64 = 0;
    // `Some(depth)` = inside a test item that opened at `depth`.
    let mut test_region: Option<i64> = None;
    // A `#[cfg(test)]` was seen and we await the item's `{` (or a `;`
    // ending a braceless item).
    let mut pending_test = false;

    for raw_line in src.split('\n') {
        let mut out = String::with_capacity(raw_line.len());
        let bytes: Vec<char> = raw_line.chars().collect();
        let mut i = 0usize;
        // Line comments never span lines.
        if state == State::LineComment {
            state = State::Code;
        }
        while i < bytes.len() {
            let c = bytes[i];
            let next = bytes.get(i + 1).copied();
            match state {
                State::Code => {
                    match c {
                        '/' if next == Some('/') => {
                            state = State::LineComment;
                            break;
                        }
                        '/' if next == Some('*') => {
                            state = State::BlockComment { depth: 1 };
                            out.push(' ');
                            out.push(' ');
                            i += 2;
                            continue;
                        }
                        '"' => {
                            state = State::Str;
                            out.push('"');
                        }
                        'r' | 'b' if !prev_is_ident(&bytes, i) => {
                            // Possible raw/byte string prefix: r", r#",
                            // br", b", b'.
                            if let Some((fence, consumed, raw)) = string_prefix(&bytes, i) {
                                for _ in 0..consumed {
                                    out.push(' ');
                                }
                                out.push('"');
                                state = if raw {
                                    State::RawStr { fence }
                                } else {
                                    State::Str
                                };
                                i += consumed + 1;
                                continue;
                            }
                            if c == 'b' && next == Some('\'') {
                                out.push(' ');
                                out.push('\'');
                                state = State::CharLit;
                                i += 2;
                                continue;
                            }
                            out.push(c);
                        }
                        '\'' => {
                            // Char literal vs lifetime.
                            if is_char_literal(&bytes, i) {
                                out.push('\'');
                                state = State::CharLit;
                            } else {
                                out.push('\'');
                            }
                        }
                        '{' => {
                            // A gate attribute may sit earlier on this
                            // same line (`#[cfg(test)] mod t { ... }`).
                            let gated_on_line = test_region.is_none()
                                && out.replace(' ', "").contains("#[cfg(test)]");
                            out.push('{');
                            if pending_test || gated_on_line {
                                test_region = Some(brace_depth);
                                pending_test = false;
                            }
                            brace_depth += 1;
                        }
                        '}' => {
                            out.push('}');
                            brace_depth -= 1;
                            if test_region.is_some_and(|d| brace_depth <= d) {
                                test_region = None;
                            }
                        }
                        ';' => {
                            out.push(';');
                            if pending_test {
                                // Braceless item (e.g. `#[cfg(test)] use x;`).
                                pending_test = false;
                            }
                        }
                        _ => out.push(c),
                    }
                    i += 1;
                }
                State::LineComment => break,
                State::BlockComment { depth } => {
                    if c == '*' && next == Some('/') {
                        if depth == 1 {
                            state = State::Code;
                        } else {
                            state = State::BlockComment { depth: depth - 1 };
                        }
                        i += 2;
                    } else if c == '/' && next == Some('*') {
                        state = State::BlockComment { depth: depth + 1 };
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                State::Str => {
                    match c {
                        '\\' => {
                            // Skip the escaped char (may be the closing
                            // quote or a line continuation).
                            i += 2;
                            continue;
                        }
                        '"' => {
                            out.push('"');
                            state = State::Code;
                        }
                        _ => {}
                    }
                    i += 1;
                }
                State::RawStr { fence } => {
                    if c == '"' && raw_fence_closes(&bytes, i, fence) {
                        out.push('"');
                        state = State::Code;
                        i += 1 + fence as usize;
                    } else {
                        i += 1;
                    }
                }
                State::CharLit => {
                    match c {
                        '\\' => {
                            i += 2;
                            continue;
                        }
                        '\'' => {
                            out.push('\'');
                            state = State::Code;
                        }
                        _ => {}
                    }
                    i += 1;
                }
            }
        }

        // Tag the line, then check for a test-gate attribute on it (the
        // attribute line itself counts as test code only if already in a
        // region).
        let in_test = test_region.is_some();
        if state == State::Code || state == State::LineComment {
            let t = out.replace(' ', "");
            if t.contains("#[cfg(test)]") || t.contains("#[cfg(all(test") {
                pending_test = true;
            }
        }
        lines.push(CleanLine { text: out, in_test });
    }

    CleanFile { lines }
}

/// Is the char before `i` part of an identifier (so `r`/`b` is a suffix
/// of a name, not a literal prefix)?
fn prev_is_ident(bytes: &[char], i: usize) -> bool {
    i > 0 && (bytes[i - 1].is_alphanumeric() || bytes[i - 1] == '_')
}

/// Recognises raw/byte-string prefixes starting at `i` (`r"`, `r#...#"`,
/// `br"`, `b"`). Returns `(fence_hashes, chars_before_quote, is_raw)`.
fn string_prefix(bytes: &[char], i: usize) -> Option<(u32, usize, bool)> {
    let mut j = i;
    let mut raw = false;
    if bytes[j] == 'b' {
        j += 1;
        if bytes.get(j) == Some(&'r') {
            raw = true;
            j += 1;
        }
    } else if bytes[j] == 'r' {
        raw = true;
        j += 1;
    }
    let mut fence = 0u32;
    while bytes.get(j) == Some(&'#') {
        fence += 1;
        j += 1;
    }
    if bytes.get(j) == Some(&'"') {
        // Plain `b"` is an ordinary (escaped) string; `r`-forms are raw.
        if !raw && fence > 0 {
            return None;
        }
        if !raw && j == i {
            return None;
        }
        Some((fence, j - i, raw))
    } else {
        None
    }
}

/// Does the `"` at `i` close a raw string with `fence` trailing `#`s?
fn raw_fence_closes(bytes: &[char], i: usize, fence: u32) -> bool {
    (1..=fence as usize).all(|k| bytes.get(i + k) == Some(&'#'))
}

/// Is the `'` at `i` the start of a char literal (vs a lifetime)?
fn is_char_literal(bytes: &[char], i: usize) -> bool {
    match bytes.get(i + 1) {
        Some('\\') => true,
        Some(c) if c.is_alphanumeric() || *c == '_' => {
            // 'x' is a char literal only when a closing quote follows
            // immediately; 'static / 'a (lifetimes) have none.
            bytes.get(i + 2) == Some(&'\'')
        }
        Some(_) => true, // e.g. '(' — punctuation chars close immediately
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cleaned lines joined back into one text.
    fn text(f: &CleanFile) -> String {
        let lines: Vec<&str> = f.lines.iter().map(|l| l.text.as_str()).collect();
        lines.join("\n")
    }

    #[test]
    fn strips_line_and_block_comments() {
        let f = clean_source("let x = 1; // unwrap()\n/* panic!() */ let y = 2;");
        assert!(f.lines[0].text.contains("let x = 1;"));
        assert!(!text(&f).contains("unwrap"));
        assert!(!text(&f).contains("panic"));
        assert!(f.lines[1].text.contains("let y = 2;"));
    }

    #[test]
    fn strips_nested_block_comments() {
        let f = clean_source("a /* x /* y */ z */ b");
        assert!(text(&f).contains('a') && text(&f).contains('b'));
        assert!(!text(&f).contains('y') && !text(&f).contains('z'));
    }

    #[test]
    fn blanks_string_contents() {
        let f = clean_source(r#"let s = "call .unwrap() now"; s.len();"#);
        assert!(!text(&f).contains("unwrap"));
        assert!(text(&f).contains("s.len()"));
    }

    #[test]
    fn blanks_raw_strings_with_fences() {
        let f = clean_source(r###"let s = r#"has "quotes" and panic!()"#; x();"###);
        assert!(!text(&f).contains("panic"));
        assert!(text(&f).contains("x()"));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let f = clean_source("fn f<'a>(x: &'a str) { let q = '\"'; let n = '\\n'; g(x) }");
        assert!(text(&f).contains("fn f<'a>"));
        assert!(text(&f).contains("g(x)"));
        // The quote inside the char literal must not open a string.
        assert!(text(&f).contains("let n ="));
    }

    #[test]
    fn cfg_test_regions_are_tagged() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn prod2() {}\n";
        let f = clean_source(src);
        assert!(!f.lines[0].in_test);
        assert!(f.lines[3].in_test, "inside test mod");
        assert!(!f.lines[5].in_test, "after test mod");
    }

    #[test]
    fn multiline_strings_stay_closed() {
        let src = "let s = \"line one\nstill string .unwrap()\nend\"; code();";
        let f = clean_source(src);
        assert!(!text(&f).contains("unwrap"));
        assert!(text(&f).contains("code()"));
    }
}
