//! Robustness of the parsers that read input back in:
//! `simobs::json::parse` (committed baselines and exports),
//! `nvmtypes::fault::FaultPlan::parse` (fault-plan files) and
//! `ooctrace::PosixTrace::from_text` (POSIX trace files).
//!
//! Truncated, byte-mutated and random input must come back as a typed
//! error, never a panic. Damaged text that is still well-formed may
//! parse; a JSON value that does must then be a real document, one that
//! renders and reparses to itself. A fault plan's probabilities must
//! lie in `[0, 1]` and its wear factor be finite and non-negative; any
//! other number is an error on the line that holds it. Every POSIX
//! trace record that parses ends at or below `TraceRecord::MAX_END`.

use nvmtypes::fault::FaultPlan;
use nvmtypes::{IoOp, SimError};
use ooctrace::{PosixTrace, TraceRecord};
use proptest::prelude::*;
use simobs::json::{self, Json};

/// A document with every value kind, nesting, escapes and non-ASCII text.
fn json_doc() -> String {
    json::report(
        "oocnvm.robustness/1",
        Json::obj()
            .field("seed", Json::u64(42))
            .field("ratio", Json::f64_3(-1.25e-3))
            .field("label", Json::str("CNL-UFS \"tlc\"\t\\ µs → done"))
            .field(
                "runs",
                Json::Arr(vec![
                    Json::obj()
                        .field("ok", Json::Bool(true))
                        .field("none", Json::Null),
                    Json::Arr(vec![Json::u64(0), Json::Bool(false), Json::Arr(vec![])]),
                ]),
            ),
    )
    .trim_end()
    .to_string()
}

/// A plan that sets a key in every section, with comments and blanks.
const PLAN: &str = "# worn device on a flaky fabric
seed = 42

[media]
page_error_prob = 2e-3   # per page read
ecc_tiers = 3
read_disturb_limit = 10000
[link]
crc_error_prob = 5e-4
retrain_every = 32
[node]
crash_prob_per_iter = 0.01
checkpoint_every = 8
[crash]
power_loss_at_write = 17
torn_write_prob = 0.5
";

/// A POSIX trace in `to_text` form whose last records end at or just
/// below `TraceRecord::MAX_END`, so that one mutated digit can push an
/// end past it.
fn posix_text() -> String {
    let max = TraceRecord::MAX_END;
    let mut trace = PosixTrace::new();
    for (t, op, file, offset, len) in [
        (0, IoOp::Read, 0, 0, 4096),
        (250, IoOp::Write, 7, 1 << 40, 1 << 20),
        (9_000, IoOp::Read, 3, max - 4096, 4096),
        (9_001, IoOp::Write, 4_000_000_000, max - 9, 9),
    ] {
        trace.push(TraceRecord {
            t,
            op,
            file,
            offset,
            len,
        });
    }
    trace.to_text()
}

/// Overwrites the byte at each `(position mod len, value)` and repairs
/// the result to valid UTF-8.
fn mutate(text: &str, edits: &[(usize, u8)]) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for &(at, value) in edits {
        let len = bytes.len();
        bytes[at % len] = value;
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Bytes JSON and the plan format are made of, so random input reaches
/// past the first token.
const ALPHABET: &[u8] = b"{}[]\",:#=\\/ \n\t-+.eE0123456789truefalsn[]mediaseed_prob";

fn from_alphabet(picks: &[usize]) -> String {
    picks.iter().map(|&i| char::from(ALPHABET[i])).collect()
}

/// Parses `text` as JSON and reports whether it parsed. A success must
/// round-trip through `render`; a failure must point inside the input.
fn json_parses(text: &str) -> bool {
    match json::parse(text) {
        Ok(value) => {
            let again = json::parse(&value.render());
            assert_eq!(again.as_ref(), Ok(&value), "{text:?} did not round-trip");
            true
        }
        Err(e) => {
            assert!(e.at <= text.len(), "error offset {} past the input", e.at);
            false
        }
    }
}

/// Parses `text` as a fault plan and reports whether it parsed. A
/// failure must be a parse error whose line lies inside the input.
fn plan_parses(text: &str) -> bool {
    match FaultPlan::parse(text) {
        Ok(_) => true,
        Err(e) => {
            let typed = matches!(&e, SimError::Parse { what, line, .. }
                if what == "fault plan" && (1..=text.lines().count()).contains(line));
            assert!(typed, "{e:?} is not a fault-plan error inside {text:?}");
            false
        }
    }
}

/// Parses `text` as a POSIX trace and reports whether it parsed. Every
/// parsed record must end at or below `TraceRecord::MAX_END`; a failure
/// must be a parse error whose line lies inside the input.
fn posix_parses(text: &str) -> bool {
    match PosixTrace::from_text(text) {
        Ok(trace) => {
            for r in &trace.records {
                let end = r.offset.checked_add(r.len);
                assert!(
                    end.is_some_and(|end| end <= TraceRecord::MAX_END),
                    "{r:?} from {text:?} ends past the largest file offset"
                );
            }
            true
        }
        Err(e) => {
            let typed = matches!(&e, SimError::Parse { what, line, .. }
                if what == "posix trace" && (1..=text.lines().count()).contains(line));
            assert!(typed, "{e:?} is not a posix-trace error inside {text:?}");
            false
        }
    }
}

#[test]
fn truncated_posix_traces_never_panic() {
    let text = posix_text();
    assert!(posix_parses(&text));
    for cut in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
        let prefix = &text[..cut];
        let parsed = posix_parses(prefix);
        if prefix.is_empty() || prefix.ends_with('\n') {
            assert!(parsed, "whole records {prefix:?} failed");
        }
    }
}

#[test]
fn every_truncated_json_document_is_an_error() {
    let doc = json_doc();
    assert!(json_parses(&doc));
    for cut in (0..doc.len()).filter(|&i| doc.is_char_boundary(i)) {
        assert!(!json_parses(&doc[..cut]), "prefix of {cut} bytes parsed");
    }
}

#[test]
fn truncated_fault_plans_fail_exactly_where_a_line_is_cut() {
    let full = FaultPlan::parse(PLAN).ok();
    assert_eq!(
        full.map(|p| (p.seed, p.crash.power_loss_at_write)),
        Some((42, 17))
    );
    for cut in (0..PLAN.len()).filter(|&i| PLAN.is_char_boundary(i)) {
        let prefix = &PLAN[..cut];
        let parsed = plan_parses(prefix);
        let last = prefix.rsplit('\n').next().unwrap_or("");
        let code = last.split('#').next().unwrap_or("").trim();
        if code.is_empty() || prefix.ends_with('\n') {
            // Only whole lines (or a comment tail): every one is valid.
            assert!(parsed, "whole lines {prefix:?} failed");
        } else if code.starts_with('[') {
            assert_eq!(parsed, code.ends_with(']'), "header cut {prefix:?}");
        } else if !code.contains('=') {
            assert!(!parsed, "bare key {prefix:?} parsed");
        }
    }
}

/// Every real-valued key of the plan format, by section, with the range
/// `FaultPlan::parse` accepts for it.
const REAL_KEYS: [(&str, &str, fn(f64) -> bool); 7] = [
    ("media", "page_error_prob", is_probability),
    ("media", "program_fail_prob", is_probability),
    ("media", "erase_fail_prob", is_probability),
    ("link", "crc_error_prob", is_probability),
    ("node", "crash_prob_per_iter", is_probability),
    ("crash", "torn_write_prob", is_probability),
    ("media", "pe_wear_factor", is_wear_factor),
];

fn is_probability(v: f64) -> bool {
    (0.0..=1.0).contains(&v)
}

fn is_wear_factor(v: f64) -> bool {
    v.is_finite() && v >= 0.0
}

proptest! {
    #[test]
    fn out_of_range_plan_numbers_are_errors_on_their_line(
        key in 0usize..REAL_KEYS.len(),
        form in 0usize..8,
        raw in -3.0f64..3.0,
        scale in -320i32..320,
        blank_lines in 0usize..4,
    ) {
        let value = match form {
            0 => "nan".to_string(),
            1 => "inf".to_string(),
            2 => "-inf".to_string(),
            3 => format!("{raw}e{scale}"),
            4 => "1".to_string(),
            5 => "-0".to_string(),
            _ => raw.to_string(),
        };
        let number: f64 = value.parse().unwrap_or(f64::NAN);
        let (section, name, valid) = REAL_KEYS[key];
        let text = format!("seed = 5\n{}[{section}]\n{name} = {value}\n", "\n".repeat(blank_lines));
        match FaultPlan::parse(&text) {
            Ok(_) => prop_assert!(valid(number), "{text:?} parsed"),
            Err(SimError::Parse { line, reason, .. }) => {
                prop_assert!(!valid(number), "{text:?} rejected: {reason}");
                prop_assert_eq!(line, blank_lines + 3, "{}", reason);
                prop_assert!(reason.contains(name), "{}", reason);
            }
            Err(e) => prop_assert!(false, "{e:?} is not a parse error"),
        }
    }

    #[test]
    fn mutated_json_never_panics(edits in prop::collection::vec((0usize..4096, 0u8..=255), 1..8)) {
        let doc = json_doc();
        json_parses(&mutate(&doc, &edits));
    }

    #[test]
    fn mutated_fault_plans_never_panic(edits in prop::collection::vec((0usize..4096, 0u8..=255), 1..8)) {
        plan_parses(&mutate(PLAN, &edits));
    }

    #[test]
    fn mutated_posix_traces_never_panic(edits in prop::collection::vec((0usize..4096, 0u8..=255), 1..8)) {
        posix_parses(&mutate(&posix_text(), &edits));
    }

    #[test]
    fn posix_trace_digit_edits_never_yield_an_unrepresentable_end(
        edits in prop::collection::vec((0usize..4096, 0u8..10), 1..4),
    ) {
        // Digits only: most edits keep every line well-formed and move
        // an offset or a length, often past `TraceRecord::MAX_END` in
        // total.
        let edits: Vec<(usize, u8)> = edits.iter().map(|&(at, d)| (at, b'0' + d)).collect();
        posix_parses(&mutate(&posix_text(), &edits));
    }

    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..96)) {
        let text = String::from_utf8_lossy(&bytes);
        json_parses(&text);
        plan_parses(&text);
        posix_parses(&text);
    }

    #[test]
    fn random_token_soup_never_panics(picks in prop::collection::vec(0usize..ALPHABET.len(), 0..96)) {
        let text = from_alphabet(&picks);
        json_parses(&text);
        plan_parses(&text);
        posix_parses(&text);
    }
}
