//! The burn-down allowlist (`simlint.allow`).
//!
//! Format: one entry per line, `<rule> <path> <count>`, `#` comments.
//! Only `hotpath_alloc` is allowlistable: a cross-unit sum or a
//! lock-order cycle is a bug, not debt, so an entry for any other rule
//! is a parse error, and so is one naming a retired rule. The tool requires the file to
//! track reality *exactly*: more findings than allowed is a violation;
//! fewer is a stale entry that must be ratcheted down. Counts therefore
//! only ever decrease over time, and the self-test suite pins the total
//! at or below its burn-down residue.

use crate::rules::Rule;
use std::collections::BTreeMap;

/// Parsed allowlist: `(rule, path) -> allowed count`.
#[derive(Debug, Default, Clone)]
pub struct Allowlist {
    entries: BTreeMap<(Rule, String), usize>,
}

/// A problem found while parsing the allowlist file.
#[derive(Debug)]
pub struct ParseError {
    /// 1-based line number in `simlint.allow`.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl Allowlist {
    /// Parses the allowlist text.
    pub fn parse(text: &str) -> Result<Allowlist, ParseError> {
        let mut entries = BTreeMap::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let (Some(rule), Some(path), Some(count), None) =
                (parts.next(), parts.next(), parts.next(), parts.next())
            else {
                return Err(ParseError {
                    line: idx + 1,
                    message: format!("expected `<rule> <path> <count>`, got `{line}`"),
                });
            };
            let Some(rule) = Rule::from_id(rule) else {
                return Err(ParseError {
                    line: idx + 1,
                    message: format!("unknown rule `{rule}`"),
                });
            };
            if rule != Rule::HotPathAlloc {
                return Err(ParseError {
                    line: idx + 1,
                    message: format!("`{}` is never allowlistable", rule.id()),
                });
            }
            let Ok(count) = count.parse::<usize>() else {
                return Err(ParseError {
                    line: idx + 1,
                    message: format!("bad count `{count}`"),
                });
            };
            if count == 0 {
                return Err(ParseError {
                    line: idx + 1,
                    message: "zero-count entries must be deleted, not listed".to_string(),
                });
            }
            if entries.insert((rule, path.to_string()), count).is_some() {
                return Err(ParseError {
                    line: idx + 1,
                    message: format!("duplicate entry for {} {}", rule.id(), path),
                });
            }
        }
        Ok(Allowlist { entries })
    }

    /// Allowed count for a `(rule, path)` pair.
    pub fn allowed(&self, rule: Rule, path: &str) -> usize {
        self.entries
            .get(&(rule, path.to_string()))
            .copied()
            .unwrap_or(0)
    }

    /// Iterates all entries in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (Rule, &str, usize)> {
        self.entries.iter().map(|((r, p), c)| (*r, p.as_str(), *c))
    }

    /// Total allowed count for one rule.
    pub fn total(&self, rule: Rule) -> usize {
        self.entries
            .iter()
            .filter(|((r, _), _)| *r == rule)
            .map(|(_, c)| c)
            .sum()
    }

    /// Builds an allowlist from observed per-file `hotpath_alloc`
    /// counts; findings of the other rules cannot be allowlisted.
    pub fn from_counts(counts: &BTreeMap<(Rule, String), usize>) -> Allowlist {
        Allowlist {
            entries: counts
                .iter()
                .filter(|((r, _), &c)| *r == Rule::HotPathAlloc && c > 0)
                .map(|(k, &c)| (k.clone(), c))
                .collect(),
        }
    }

    /// Renders the canonical file format.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# simlint burn-down allowlist.\n\
             # Format: <rule> <path> <count>; only hotpath_alloc is allowlistable.\n\
             # Counts may only ratchet DOWN: fix a violation, then decrement (or\n\
             # delete) its entry here. Regenerate with\n\
             # `cargo run -p simlint -- --write-allow` after fixing; adding or\n\
             # raising entries is rejected in review and by the simlint self-tests,\n\
             # which pin the total at its burn-down residue.\n",
        );
        let mut last_rule: Option<Rule> = None;
        for ((rule, path), count) in &self.entries {
            if last_rule != Some(*rule) {
                out.push('\n');
                last_rule = Some(*rule);
            }
            out.push_str(&format!("{} {} {}\n", rule.id(), path, count));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        let text =
            "# header\nhotpath_alloc crates/ufs/src/fs.rs 3\nhotpath_alloc crates/ufs/src/alloc.rs 2\n";
        let a = Allowlist::parse(text).expect("parses");
        assert_eq!(a.allowed(Rule::HotPathAlloc, "crates/ufs/src/fs.rs"), 3);
        assert_eq!(a.allowed(Rule::HotPathAlloc, "crates/ufs/src/alloc.rs"), 2);
        assert_eq!(a.allowed(Rule::HotPathAlloc, "crates/ufs/src/other.rs"), 0);
        assert_eq!(a.total(Rule::HotPathAlloc), 5);
        let rendered = a.render();
        let b = Allowlist::parse(&rendered).expect("canonical form parses");
        assert_eq!(b.allowed(Rule::HotPathAlloc, "crates/ufs/src/fs.rs"), 3);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(Allowlist::parse("hotpath_alloc onlytwo\n").is_err());
        assert!(Allowlist::parse("bogus_rule a.rs 1\n").is_err());
        assert!(Allowlist::parse("hotpath_alloc a.rs zero\n").is_err());
        assert!(Allowlist::parse("hotpath_alloc a.rs 0\n").is_err());
        assert!(Allowlist::parse("hotpath_alloc a.rs 1\nhotpath_alloc a.rs 2\n").is_err());
    }

    /// The correctness passes carry no budget, and the rules that moved
    /// to clippy (`nondet_taint` became its API bans) are not rules here
    /// any more.
    #[test]
    fn only_hotpath_alloc_is_allowlistable() {
        for rule in ["nondet_taint", "unit_mismatch", "lock_order", "bare_cast"] {
            let err = Allowlist::parse(&format!("{rule} a.rs 1\n")).expect_err(rule);
            assert_eq!(err.line, 1, "{rule}");
        }
    }
}
