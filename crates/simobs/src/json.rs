//! A tiny deterministic JSON tree: build, render, parse.
//!
//! The workspace has no serialisation crate, so machine-readable output
//! is rendered by hand. This module keeps that honest: one value tree with
//! a canonical renderer (object keys stay in insertion order, numbers
//! are pre-rendered strings, so equal trees render byte-identically)
//! and a recursive-descent parser used by `obsreport` and the check
//! gate to prove the emitted text is well-formed JSON.

/// A JSON value. Numbers carry their exact rendered form: the producer
/// chooses the formatting once, and rendering can never re-round.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, pre-rendered (e.g. `"12"`, `"3.142"`).
    Num(String),
    /// A string (unescaped content; escaping happens at render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Integer number.
    pub fn u64(v: u64) -> Json {
        Json::Num(format!("{v}"))
    }

    /// Float with three decimals (the export's fixed precision).
    pub fn f64_3(v: f64) -> Json {
        Json::Num(format!("{v:.3}"))
    }

    /// String value.
    pub fn str(v: &str) -> Json {
        Json::Str(v.to_string())
    }

    /// Empty object builder.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Adds a field to an object (no-op on non-objects).
    pub fn field(mut self, key: &str, value: Json) -> Json {
        if let Json::Obj(fields) = &mut self {
            fields.push((key.to_string(), value));
        }
        self
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            Json::Null | Json::Bool(_) | Json::Num(_) | Json::Str(_) | Json::Arr(_) => None,
        }
    }

    /// Renders to a compact canonical string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(n),
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders a machine-readable report in the workspace's versioned-JSON
/// convention: a leading `"format": "<schema>"` tag followed by the
/// payload's fields (object payloads merge; anything else nests under
/// `"payload"`), rendered canonically so equal reports are
/// byte-identical. Every `--json` emitter in the workspace — the bench
/// bins via `oocnvm_bench::json_report`, `obsreport`, `reliability`,
/// and `simlint --json` — goes through this one helper.
#[must_use]
pub fn report(schema: &str, payload: Json) -> String {
    let mut fields = vec![("format".to_string(), Json::str(schema))];
    match payload {
        Json::Obj(body) => fields.extend(body),
        other @ (Json::Null | Json::Bool(_) | Json::Num(_) | Json::Str(_) | Json::Arr(_)) => {
            fields.push(("payload".to_string(), other));
        }
    }
    Json::Obj(fields).render()
}

/// Splits a parsed report's leading `"format"` tag into its schema
/// family and version, e.g. `"oocnvm.headline/2"` →
/// `("oocnvm.headline", 2)`. Consumers use this to accept older
/// documents gracefully: a version bump adds fields, it never renames
/// the family, so `family` matching plus a `version` check is the whole
/// back-compat contract (see `docs/PROFILING.md`).
pub fn schema_version(doc: &Json) -> Option<(&str, u64)> {
    match doc.get("format") {
        Some(Json::Str(tag)) => {
            let (family, ver) = tag.rsplit_once('/')?;
            Some((family, ver.parse().ok()?))
        }
        _ => None,
    }
}

/// A parse failure: what was expected and the byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What the parser expected.
    pub expected: &'static str,
    /// Byte offset of the failure.
    pub at: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "expected {} at byte {}", self.expected, self.at)
    }
}

/// Parses a complete JSON document (validation-grade: structure and
/// escapes are checked; numbers are kept as text).
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(JsonError {
            expected: "end of input",
            at: p.pos,
        });
    }
    Ok(value)
}

/// Recursion guard: deeper nesting than any simulator export produces.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn err(&self, expected: &'static str) -> JsonError {
        JsonError {
            expected,
            at: self.pos,
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_literal(&mut self, lit: &'static str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(lit))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("shallower nesting"));
        }
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => {
                self.expect_literal("true")?;
                Ok(Json::Bool(true))
            }
            Some(b'f') => {
                self.expect_literal("false")?;
                Ok(Json::Bool(false))
            }
            Some(b'n') => {
                self.expect_literal("null")?;
                Ok(Json::Null)
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("a JSON value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // consume '{'
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return Err(self.err("':'"));
            }
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            if self.eat(b'}') {
                return Ok(Json::Obj(fields));
            }
            return Err(self.err("',' or '}'"));
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // consume '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            return Err(self.err("',' or ']'"));
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        if !self.eat(b'"') {
            return Err(self.err("'\"'"));
        }
        let mut out = String::new();
        let mut chars = match std::str::from_utf8(&self.bytes[self.pos..]) {
            Ok(s) => s.char_indices(),
            Err(_) => return Err(self.err("valid UTF-8")),
        };
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => {
                    self.pos += i + 1;
                    return Ok(out);
                }
                '\\' => match chars.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, '/')) => out.push('/'),
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 'r')) => out.push('\r'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, 'b')) => out.push('\u{8}'),
                    Some((_, 'f')) => out.push('\u{c}'),
                    Some((_, 'u')) => {
                        let mut code: u32 = 0;
                        for _ in 0..4 {
                            let Some((_, h)) = chars.next() else {
                                return Err(self.err("4 hex digits"));
                            };
                            let Some(d) = h.to_digit(16) else {
                                return Err(self.err("a hex digit"));
                            };
                            code = code * 16 + d;
                        }
                        match char::from_u32(code) {
                            Some(decoded) => out.push(decoded),
                            None => {
                                // Surrogate halves (valid JSON, used for
                                // astral-plane chars) are accepted as
                                // replacement: validation, not fidelity.
                                out.push('\u{fffd}');
                            }
                        }
                    }
                    _ => return Err(self.err("a valid escape")),
                },
                c if u32::from(c) < 0x20 => return Err(self.err("no raw control chars")),
                c => out.push(c),
            }
        }
        Err(self.err("closing '\"'"))
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        self.eat(b'-');
        let digits_start = self.pos;
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.err("a digit"));
        }
        if self.eat(b'.') {
            let frac_start = self.pos;
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err("a fraction digit"));
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.bytes.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("an exponent digit"));
            }
        }
        let text = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
        Ok(Json::Num(text))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_canonical_and_reparses() {
        let doc = Json::obj()
            .field("schema", Json::str("x/1"))
            .field("n", Json::u64(42))
            .field("pi", Json::f64_3(3.14159))
            .field("flag", Json::Bool(true))
            .field("list", Json::Arr(vec![Json::u64(1), Json::Null]))
            .field("quote", Json::str("a\"b\\c\nd"));
        let text = doc.render();
        assert_eq!(doc.render(), text, "rendering is deterministic");
        let back = parse(&text).expect("reparses");
        assert_eq!(back.get("n"), Some(&Json::Num("42".into())));
        assert_eq!(back.get("pi"), Some(&Json::Num("3.142".into())));
        assert_eq!(back.get("quote"), Some(&Json::Str("a\"b\\c\nd".into())));
        assert_eq!(back, doc);
    }

    #[test]
    fn schema_version_splits_family_and_number() {
        let doc = parse(&report("oocnvm.headline/2", Json::obj())).expect("parses");
        assert_eq!(schema_version(&doc), Some(("oocnvm.headline", 2)));
        let v1 = parse("{\"format\":\"oocnvm.headline/1\"}").expect("parses");
        assert_eq!(schema_version(&v1), Some(("oocnvm.headline", 1)));
        assert_eq!(schema_version(&parse("{}").expect("parses")), None);
        assert_eq!(
            schema_version(&parse("{\"format\":\"no-slash\"}").expect("parses")),
            None
        );
    }

    #[test]
    fn parser_accepts_standard_documents() {
        for ok in [
            "null",
            "true",
            "-12.5e+3",
            "[]",
            "{}",
            "[1,2,[3]]",
            "{\"a\": {\"b\": [false, \"\\u0041\"]}}",
            "  {\"k\"\n:\t1}  ",
        ] {
            assert!(parse(ok).is_ok(), "should parse: {ok}");
        }
        assert_eq!(
            parse("\"\\u0041\""),
            Ok(Json::Str("A".into())),
            "unicode escape decodes"
        );
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "nul",
            "01x",
            "\"unterminated",
            "\"bad \\q escape\"",
            "1 2",
            "{\"a\":1,}",
        ] {
            assert!(parse(bad).is_err(), "should reject: {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err(), "recursion guard");
        let ok = "[".repeat(40) + &"]".repeat(40);
        assert!(parse(&ok).is_ok());
    }
}
