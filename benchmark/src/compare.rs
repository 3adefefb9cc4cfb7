//! Reading the benchmark's own files back — the committed pins and the
//! `oocnvm.benchmark/1` documents `--compare` diffs — through
//! `simobs::json::parse`. Every reader returns a typed [`SimError`] on
//! malformed input and never panics.

use crate::metrics::{quantile, sig, Better, END_TO_END, PER_LAYER};
use nvmtypes::SimError;
use simobs::json::Json;
use std::collections::BTreeMap;

/// Schema tag of the pin file.
pub const PINS_SCHEMA: &str = "oocnvm.benchmark.pins/1";

/// Where the pins live, relative to the repository root.
pub const PINS_PATH: &str = "results/benchmark/pins.json";

fn bad(what: &str, reason: impl Into<String>) -> SimError {
    SimError::parse(what, 0, reason)
}

/// Parses `bytes` as one JSON document.
fn json(bytes: &[u8], what: &str) -> Result<Json, SimError> {
    let text = std::str::from_utf8(bytes).map_err(|e| bad(what, e.to_string()))?;
    simobs::json::parse(text).map_err(|e| bad(what, e.to_string()))
}

fn field<'a>(doc: &'a Json, key: &str, what: &str) -> Result<&'a Json, SimError> {
    doc.get(key)
        .ok_or_else(|| bad(what, format!("missing `{key}`")))
}

fn string<'a>(v: &'a Json, what: &str) -> Result<&'a str, SimError> {
    match v {
        Json::Str(s) => Ok(s),
        _ => Err(bad(what, "expected a string")),
    }
}

fn number(v: &Json, what: &str) -> Result<f64, SimError> {
    match v {
        Json::Num(s) => s
            .parse::<f64>()
            .ok()
            .filter(|x| x.is_finite())
            .ok_or_else(|| bad(what, format!("`{s}` is not a finite number"))),
        _ => Err(bad(what, "expected a number")),
    }
}

fn object<'a>(v: &'a Json, what: &str) -> Result<&'a [(String, Json)], SimError> {
    match v {
        Json::Obj(fields) => Ok(fields),
        _ => Err(bad(what, "expected an object")),
    }
}

fn schema(doc: &Json, want: &str, what: &str) -> Result<(), SimError> {
    let tag = string(field(doc, "format", what)?, what)?;
    if tag == want {
        Ok(())
    } else {
        Err(bad(what, format!("format `{tag}`, expected `{want}`")))
    }
}

/// The committed simulated-output digests, one per workload, valid at
/// one seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pins {
    /// The seed the digests were taken at.
    pub seed: u64,
    /// Workload name → digest.
    pub digests: BTreeMap<String, u64>,
}

/// Parses a pin file.
pub fn parse_pins(bytes: &[u8]) -> Result<Pins, SimError> {
    const WHAT: &str = "benchmark pins";
    let doc = json(bytes, WHAT)?;
    schema(&doc, PINS_SCHEMA, WHAT)?;
    let seed = number(field(&doc, "seed", WHAT)?, WHAT)?;
    if seed.fract() != 0.0 || !(0.0..=9.0e15).contains(&seed) {
        return Err(bad(WHAT, "seed is not a whole number"));
    }
    let mut digests = BTreeMap::new();
    for (name, v) in object(field(&doc, "digests", WHAT)?, WHAT)? {
        let hex = string(v, WHAT)?;
        let digest = hex
            .strip_prefix("0x")
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(|| bad(WHAT, format!("`{hex}` is not a 0x-prefixed hex digest")))?;
        digests.insert(name.clone(), digest);
    }
    Ok(Pins {
        seed: seed as u64,
        digests,
    })
}

/// One workload of a parsed `oocnvm.benchmark/1` document.
#[derive(Debug, Clone, PartialEq)]
pub struct DocWorkload {
    /// Workload name.
    pub name: String,
    /// End-to-end metric values by name.
    pub end_to_end: BTreeMap<String, f64>,
    /// Per-layer metric values by name (empty without a traced pass).
    pub per_layer: BTreeMap<String, f64>,
}

fn values(block: &Json, what: &str) -> Result<BTreeMap<String, f64>, SimError> {
    let mut out = BTreeMap::new();
    for (name, entry) in object(block, what)? {
        out.insert(name.clone(), number(field(entry, "value", what)?, what)?);
    }
    Ok(out)
}

const DOC: &str = "benchmark document";

/// Parses one `oocnvm.benchmark/1` document per nonempty line (one
/// `--json` output, or a `history.jsonl` of several) and reduces them to
/// one: per workload and metric, the median over the documents that
/// report it. Single runs on a shared machine are noisy; medians over
/// interleaved runs of two commits are what a bound is meant for.
pub fn parse_docs(bytes: &[u8]) -> Result<Vec<DocWorkload>, SimError> {
    let text = std::str::from_utf8(bytes).map_err(|e| bad(DOC, e.to_string()))?;
    let docs = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| parse_doc(l.as_bytes()))
        .collect::<Result<Vec<_>, _>>()?;
    if docs.is_empty() {
        return Err(bad(DOC, "no documents"));
    }
    type Samples = BTreeMap<String, Vec<f64>>;
    let mut merged: Vec<(String, [Samples; 2])> = Vec::new();
    for w in docs.iter().flatten() {
        let i = match merged.iter().position(|(name, _)| *name == w.name) {
            Some(i) => i,
            None => {
                merged.push((w.name.clone(), Default::default()));
                merged.len() - 1
            }
        };
        for (samples, values) in merged[i].1.iter_mut().zip([&w.end_to_end, &w.per_layer]) {
            for (k, &v) in values {
                samples.entry(k.clone()).or_default().push(v);
            }
        }
    }
    let median = |s: Samples| s.into_iter().map(|(k, v)| (k, quantile(&v, 0.5))).collect();
    Ok(merged
        .into_iter()
        .map(|(name, [end_to_end, per_layer])| DocWorkload {
            name,
            end_to_end: median(end_to_end),
            per_layer: median(per_layer),
        })
        .collect())
}

/// Parses one `oocnvm.benchmark/1` document.
fn parse_doc(bytes: &[u8]) -> Result<Vec<DocWorkload>, SimError> {
    let doc = json(bytes, DOC)?;
    schema(&doc, "oocnvm.benchmark/1", DOC)?;
    let Json::Arr(workloads) = field(&doc, "workloads", DOC)? else {
        return Err(bad(DOC, "`workloads` is not a list"));
    };
    workloads
        .iter()
        .map(|w| {
            Ok(DocWorkload {
                name: string(field(w, "name", DOC)?, DOC)?.to_string(),
                end_to_end: values(field(w, "end_to_end", DOC)?, DOC)?,
                per_layer: match w.get("per_layer") {
                    Some(block) => values(block, DOC)?,
                    None => BTreeMap::new(),
                },
            })
        })
        .collect()
}

/// How an end-to-end metric moved between two documents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the bound.
    Better,
    /// Worsened by more than the bound: a regression.
    Worse,
    /// Moved by no more than the bound either way.
    Within,
}

/// One workload × end-to-end metric comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value in the old document.
    pub old: f64,
    /// Value in the new document.
    pub new: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The outcome.
    pub verdict: Verdict,
    /// On [`Verdict::Worse`]: the three layer times that moved most.
    pub movers: Vec<Mover>,
}

/// `(new - old) / old`; infinite when a zero became nonzero.
fn change(old: f64, new: f64) -> f64 {
    if old == new {
        0.0
    } else if old == 0.0 {
        f64::INFINITY.copysign(new)
    } else {
        (new - old) / old.abs()
    }
}

/// Compares every workload present in both documents on every end-to-end
/// metric both report.
pub fn compare(old: &[DocWorkload], new: &[DocWorkload]) -> Vec<Comparison> {
    let mut out = Vec::new();
    for n in new {
        let Some(o) = old.iter().find(|o| o.name == n.name) else {
            continue;
        };
        for m in &END_TO_END {
            let (Some(&ov), Some(&nv)) = (o.end_to_end.get(m.name), n.end_to_end.get(m.name))
            else {
                continue;
            };
            let rel = change(ov, nv);
            let worsened = match m.better {
                Better::Lower => rel,
                Better::Higher => -rel,
            };
            let verdict = if (nv - ov).abs() <= m.floor {
                Verdict::Within
            } else if worsened > m.bound {
                Verdict::Worse
            } else if worsened < -m.bound {
                Verdict::Better
            } else {
                Verdict::Within
            };
            let movers = if verdict == Verdict::Worse {
                movers(o, n)
            } else {
                Vec::new()
            };
            out.push(Comparison {
                workload: n.name.clone(),
                metric: m.name,
                unit: m.unit,
                old: ov,
                new: nv,
                bound: m.bound,
                verdict,
                movers,
            });
        }
    }
    out
}

/// A per-layer host time that moved between two documents.
#[derive(Debug, Clone, PartialEq)]
pub struct Mover {
    /// Metric name.
    pub name: &'static str,
    /// New minus old, ms.
    pub delta_ms: f64,
    /// Relative change.
    pub change: f64,
}

/// The three layer times that moved most in milliseconds: the layers
/// behind a change in pass or set-up time. Ranking by relative change
/// instead would name microsecond layers that only jittered.
fn movers(old: &DocWorkload, new: &DocWorkload) -> Vec<Mover> {
    let mut moved: Vec<Mover> = PER_LAYER
        .iter()
        .filter(|m| m.unit == "ms" && m.name != "core.serial_pass_ms")
        .filter_map(|m| {
            let (ov, nv) = (*old.per_layer.get(m.name)?, *new.per_layer.get(m.name)?);
            (ov != nv).then(|| Mover {
                name: m.name,
                delta_ms: nv - ov,
                change: change(ov, nv),
            })
        })
        .collect();
    moved.sort_by(|a, b| {
        b.delta_ms
            .abs()
            .total_cmp(&a.delta_ms.abs())
            .then_with(|| a.name.cmp(b.name))
    });
    moved.truncate(3);
    moved
}

/// One line per comparison.
pub fn render(comparisons: &[Comparison]) -> String {
    let mut out = String::new();
    for c in comparisons {
        let word = match c.verdict {
            Verdict::Better => "better",
            Verdict::Worse => "WORSE",
            Verdict::Within => "within the bound",
        };
        out.push_str(&format!(
            "{:<15} {:<14} {:>14} -> {:>14} {:<6} ({:+.1}%, bound {:.0}%): {word}",
            c.workload,
            c.metric,
            sig(c.old),
            sig(c.new),
            c.unit,
            change(c.old, c.new) * 100.0,
            c.bound * 100.0,
        ));
        if !c.movers.is_empty() {
            let moved: Vec<String> = c
                .movers
                .iter()
                .map(|m| {
                    format!(
                        "{} {:+.1}% ({:+.3} ms)",
                        m.name,
                        m.change * 100.0,
                        m.delta_ms
                    )
                })
                .collect();
            out.push_str(&format!("; moved most: {}", moved.join(", ")));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{RunHeader, WorkloadResult, PER_LAYER};
    use crate::workload::Workload;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    const PINS: &str = r#"{"format":"oocnvm.benchmark.pins/1","seed":42,"digests":{"paper_sweep":"0x00000000000000ff","tenant_mix":"0x0123456789abcdef"}}"#;

    /// A one-workload document: per-layer metric i reads i + 1, except
    /// `workload.gen_ms` and `ufs.replay_ms`.
    fn synthetic(gen_ms: f64, ufs_replay_ms: f64, pass_ms: f64) -> String {
        let mut per_layer: Vec<f64> = (1..=PER_LAYER.len()).map(|i| i as f64).collect();
        per_layer[0] = gen_ms;
        per_layer[2] = ufs_replay_ms;
        let result = WorkloadResult {
            workload: Workload::JournaledCkpt,
            passes: 100,
            attempted: 101,
            failed: 0,
            digest: 7,
            problems: Vec::new(),
            end_to_end: vec![pass_ms, 900.0, 40.0, 0.001],
            context: vec![pass_ms, pass_ms * 1.1, pass_ms, pass_ms * 1.1, 2.75],
            per_layer: Some(per_layer),
        };
        let header = RunHeader {
            seed: 42,
            seconds: 10,
            timed_threads: 2,
            traced_threads: 1,
            nproc: 2,
            pins_digest: 1,
        };
        crate::metrics::document(&header, &[result])
    }

    #[test]
    fn pins_round_trip() {
        let pins = parse_pins(PINS.as_bytes()).expect("parses");
        assert_eq!(pins.seed, 42);
        assert_eq!(pins.digests.get("paper_sweep"), Some(&0xff));
        assert_eq!(pins.digests.get("tenant_mix"), Some(&0x0123_4567_89ab_cdef));
    }

    #[test]
    fn planted_replay_slowdown_is_reported_and_names_ufs() {
        // A 25% slower journaled replay that makes the pass 24% slower,
        // beside a microsecond generator that doubled.
        let old = parse_docs(synthetic(0.01, 80.0, 100.0).as_bytes()).expect("old parses");
        let new = parse_docs(synthetic(0.02, 100.0, 124.0).as_bytes()).expect("new parses");
        let result = compare(&old, &new);
        let mean = result
            .iter()
            .find(|c| c.metric == "pass_ms.mean")
            .expect("pass_ms.mean compared");
        assert_eq!(mean.verdict, Verdict::Worse);
        assert_eq!(mean.movers.first().map(|m| m.name), Some("ufs.replay_ms"));
        assert!(render(&result).contains("ufs.replay_ms +25.0% (+20.000 ms)"));
        // Unchanged metrics stay within the bound; a document matches itself.
        let sim = result.iter().find(|c| c.metric == "sim_mib_per_s");
        assert_eq!(sim.map(|c| c.verdict), Some(Verdict::Within));
        assert!(compare(&old, &old)
            .iter()
            .all(|c| c.verdict == Verdict::Within));
        // A pass 30% faster is better by more than the bound.
        let faster = parse_docs(synthetic(0.01, 80.0, 70.0).as_bytes()).expect("faster parses");
        let mean = compare(&old, &faster)
            .into_iter()
            .find(|c| c.metric == "pass_ms.mean");
        assert_eq!(mean.map(|c| c.verdict), Some(Verdict::Better));
    }

    #[test]
    fn set_up_changes_under_five_ms_never_count() {
        // 1 µs → 3 µs is +200%, but 2 µs in absolute terms.
        let with_setup = |s: f64| synthetic(0.01, 80.0, 100.0).replace("0.001", &s.to_string());
        let old = parse_docs(with_setup(0.000_001).as_bytes()).expect("old parses");
        let new = parse_docs(with_setup(0.000_003).as_bytes()).expect("new parses");
        let setup = |o: &[DocWorkload], n: &[DocWorkload]| {
            compare(o, n)
                .into_iter()
                .find(|c| c.metric == "setup_s")
                .map(|c| c.verdict)
        };
        assert_eq!(setup(&old, &new), Some(Verdict::Within));
        // 40 ms → 60 ms is past both the floor and the bound.
        let old = parse_docs(with_setup(0.04).as_bytes()).expect("old parses");
        let new = parse_docs(with_setup(0.06).as_bytes()).expect("new parses");
        assert_eq!(setup(&old, &new), Some(Verdict::Worse));
    }

    #[test]
    fn history_files_compare_by_their_medians() {
        let history = [(100.0, 80.0), (130.0, 95.0), (110.0, 85.0)]
            .map(|(pass, ufs)| synthetic(0.01, ufs, pass))
            .join("\n");
        let old = parse_docs(history.as_bytes()).expect("history parses");
        assert_eq!(old.len(), 1);
        assert_eq!(old[0].end_to_end.get("pass_ms.mean"), Some(&110.0));
        assert_eq!(old[0].per_layer.get("ufs.replay_ms"), Some(&85.0));
        // The slow run alone reads 30% worse; the medians hold.
        let new = parse_docs(synthetic(0.01, 85.0, 112.0).as_bytes()).expect("new parses");
        assert!(compare(&old, &new)
            .iter()
            .all(|c| c.verdict == Verdict::Within));
        assert!(matches!(parse_docs(b"\n \n"), Err(SimError::Parse { .. })));
    }

    /// Truncated, mutated and random bytes give an error or a value,
    /// never a panic; every strict prefix is an error.
    #[test]
    fn readers_survive_mutated_input() {
        let doc = synthetic(0.01, 80.0, 100.0);
        let mut rng = SmallRng::seed_from_u64(7);
        for valid in [PINS.as_bytes(), doc.as_bytes()] {
            for cut in 0..valid.len() {
                assert!(parse_pins(&valid[..cut]).is_err());
                assert!(parse_docs(&valid[..cut]).is_err());
            }
            for _ in 0..3000 {
                let mut bytes = valid.to_vec();
                for _ in 0..rng.gen_range(1..4usize) {
                    let at = rng.gen_range(0..bytes.len());
                    match rng.gen_range(0..3u32) {
                        0 => bytes[at] = rng.gen::<u32>() as u8,
                        1 => {
                            bytes.remove(at);
                        }
                        _ => bytes.insert(at, b"{}[]\",:0x-e."[rng.gen_range(0..12usize)]),
                    }
                }
                let _ = parse_pins(&bytes);
                let _ = parse_docs(&bytes);
            }
            for _ in 0..300 {
                let len = rng.gen_range(0..64usize);
                let bytes: Vec<u8> = (0..len).map(|_| rng.gen::<u32>() as u8).collect();
                assert!(parse_pins(&bytes).is_err());
                assert!(parse_docs(&bytes).is_err());
            }
        }
    }

    #[test]
    fn wrong_schema_and_bad_digests_are_typed_errors() {
        for text in [
            r#"{"format":"oocnvm.bench/1","seed":42,"digests":{}}"#,
            r#"{"format":"oocnvm.benchmark.pins/1","seed":4.5,"digests":{}}"#,
            r#"{"format":"oocnvm.benchmark.pins/1","seed":42,"digests":{"a":"ff"}}"#,
            r#"{"format":"oocnvm.benchmark.pins/1","seed":42,"digests":{"a":12}}"#,
            r#"{"format":"oocnvm.benchmark.pins/1","seed":42}"#,
        ] {
            assert!(
                matches!(parse_pins(text.as_bytes()), Err(SimError::Parse { .. })),
                "{text}"
            );
        }
        assert!(matches!(
            parse_docs(br#"{"format":"oocnvm.benchmark/1","workloads":{}}"#),
            Err(SimError::Parse { .. })
        ));
    }
}
