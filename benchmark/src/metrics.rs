//! The metric catalogue, the statistics behind it, and the three ways a
//! result is printed: a table with units, the `oocnvm.benchmark/1`
//! document, and the one-line summary the last stdout line carries.

use crate::workload::Workload;
use simobs::json::Json;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory, counts of work).
    Lower,
    /// Larger is better (throughput, speed-up).
    Higher,
}

/// One named metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name, unique across both tables.
    pub name: &'static str,
    /// Unit the value is reported in.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the old value by which an end-to-end metric may worsen
    /// before a comparison calls it a regression; 0 for per-layer metrics.
    pub bound: f64,
    /// Change, in the metric's unit, below which no move counts, however
    /// large in relative terms; 0 for none.
    pub floor: f64,
}

const fn m(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        floor: 0.0,
    }
}

const fn layer(name: &'static str, unit: &'static str) -> Metric {
    m(name, unit, Better::Lower, 0.0)
}

/// End-to-end metrics, from the timed run with tracing off; host times
/// are calibrated (see [`crate::calibrate`]). Pass time is the mean, not
/// the median: on a shared machine a workload's pass times cluster in
/// two or three modes, and the median jumps between them from run to
/// run. A bound is twice the largest relative interquartile range seen
/// across ten seeds, rounded up to 5%, at least 3%, and at most 20% so a
/// quarter-slower dominant layer still reads as a regression; `setup_s`
/// has the largest bound and also ignores any change under 5 ms. The
/// measurements are in `results/benchmark/README.md`.
pub const END_TO_END: [Metric; 4] = [
    m("pass_ms.mean", "ms", Better::Lower, 0.2),
    m("sim_mib_per_s", "MiB/s", Better::Higher, 0.2),
    m("heap_peak_mib", "MiB", Better::Lower, 0.1),
    Metric {
        floor: 0.005,
        ..m("setup_s", "s", Better::Lower, 0.25)
    },
];

/// Reported beside the end-to-end metrics but not compared: the median
/// and the tail, which a few hundred passes cannot pin down within a
/// bound, and the raw host times that calibration rescales.
pub const CONTEXT: [Metric; 5] = [
    m("pass_ms.p50", "ms", Better::Lower, 0.0),
    m("pass_ms.p90", "ms", Better::Lower, 0.0),
    m("raw_pass_ms.p50", "ms", Better::Lower, 0.0),
    m("raw_pass_ms.p90", "ms", Better::Lower, 0.0),
    m("calibration_kernel_ms.p50", "ms", Better::Lower, 0.0),
];

/// Per-layer metrics, from the single-threaded decomposed passes.
pub const PER_LAYER: [Metric; 34] = [
    layer("workload.gen_ms", "ms"),
    layer("fs.transform_ms", "ms"),
    layer("ufs.replay_ms", "ms"),
    layer("ssd.run_ms", "ms"),
    layer("ssd.qos_ms", "ms"),
    layer("ooc.setup_ms", "ms"),
    layer("ooc.panel_read_ms", "ms"),
    layer("ooc.spmm_ms", "ms"),
    layer("ooc.dense_ms", "ms"),
    layer("core.residual_ms", "ms"),
    layer("core.serial_pass_ms", "ms"),
    layer("ssd.ns_per_request", "ns"),
    layer("media.ns_per_die_op", "ns"),
    layer("ufs.ns_per_device_kib", "ns/KiB"),
    layer("ooc.panel_read_ns_per_kib", "ns/KiB"),
    layer("ssd.requests", "count"),
    layer("media.die_ops", "count"),
    layer("media.pages", "count"),
    layer("fs.requests", "count"),
    layer("ufs.user_bytes", "bytes"),
    layer("ufs.cow_bytes", "bytes"),
    layer("ufs.journal_bytes", "bytes"),
    layer("ufs.apply_bytes", "bytes"),
    layer("ufs.commits", "count"),
    layer("ufs.write_amp_permille", "permille"),
    layer("solver.iterations", "count"),
    layer("solver.applies", "count"),
    layer("alloc.count", "count"),
    layer("alloc.mib", "MiB"),
    m("core.pool_speedup", "ratio", Better::Higher, 0.0),
    layer("simobs.overhead_pct", "%"),
    layer("sim.media_self_ns", "ns"),
    layer("sim.link_self_ns", "ns"),
    layer("sim.ssd_self_ns", "ns"),
];

/// The `q`-quantile of `samples` by linear interpolation between order
/// statistics; 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(last);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// `v` for a human reader: four decimals, or four significant digits in
/// scientific notation below 0.01, where set-up times in seconds sit;
/// `n/a` for a value not measured.
pub fn sig(v: f64) -> String {
    if !v.is_finite() {
        "n/a".to_string()
    } else if v != 0.0 && v.abs() < 0.01 {
        format!("{v:.3e}")
    } else {
        format!("{v:.4}")
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Everything measured on one workload.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// Which workload.
    pub workload: Workload,
    /// Timed passes measured.
    pub passes: u64,
    /// Passes checked against the expected digest.
    pub attempted: u64,
    /// Passes that errored or digested differently.
    pub failed: u64,
    /// The expected digest every pass was checked against.
    pub digest: u64,
    /// One line per failure.
    pub problems: Vec<String>,
    /// Values aligned with [`END_TO_END`].
    pub end_to_end: Vec<f64>,
    /// Values aligned with [`CONTEXT`].
    pub context: Vec<f64>,
    /// Values aligned with [`PER_LAYER`], when the traced passes ran.
    pub per_layer: Option<Vec<f64>>,
}

impl WorkloadResult {
    /// Failed passes per attempted pass.
    pub fn error_rate(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

/// What every result of one invocation shares.
#[derive(Debug, Clone, Copy)]
pub struct RunHeader {
    /// Workload seed.
    pub seed: u64,
    /// Seconds each timed run measured.
    pub seconds: u64,
    /// Thread-pool size for the timed passes.
    pub timed_threads: usize,
    /// Thread-pool size for the traced passes.
    pub traced_threads: usize,
    /// Cores the machine reports.
    pub nproc: usize,
    /// Digest of the pin file's bytes.
    pub pins_digest: u64,
}

/// Renders `v` with every digit it has; non-finite values become `null`.
fn num(v: f64) -> Json {
    if v.is_finite() {
        Json::Num(format!("{v}"))
    } else {
        Json::Null
    }
}

fn hex(v: u64) -> Json {
    Json::Str(format!("{v:#018x}"))
}

fn metric_block(metrics: &[Metric], values: &[f64]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .zip(values)
            .map(|(m, &v)| {
                (
                    m.name.to_string(),
                    Json::obj()
                        .field("value", num(v))
                        .field("unit", Json::str(m.unit)),
                )
            })
            .collect(),
    )
}

/// The `oocnvm.benchmark/1` document of one invocation.
pub fn document(run: &RunHeader, results: &[WorkloadResult]) -> String {
    let header = Json::obj()
        .field("seed", Json::u64(run.seed))
        .field("seconds", Json::u64(run.seconds))
        .field(
            "threads",
            Json::obj()
                .field("timed", Json::u64(run.timed_threads as u64))
                .field("traced", Json::u64(run.traced_threads as u64)),
        )
        .field("nproc", Json::u64(run.nproc as u64))
        .field("pins_digest", hex(run.pins_digest));
    let workloads = results
        .iter()
        .map(|r| {
            let mut w = Json::obj()
                .field("name", Json::str(r.workload.name()))
                .field("passes", Json::u64(r.passes))
                .field("attempted", Json::u64(r.attempted))
                .field("failed", Json::u64(r.failed))
                .field("error_rate", num(r.error_rate()))
                .field("digest", hex(r.digest))
                .field("end_to_end", metric_block(&END_TO_END, &r.end_to_end))
                .field("context", metric_block(&CONTEXT, &r.context));
            if let Some(per_layer) = &r.per_layer {
                w = w.field("per_layer", metric_block(&PER_LAYER, per_layer));
            }
            w
        })
        .collect();
    simobs::json::report(
        "oocnvm.benchmark/1",
        Json::obj()
            .field("run", header)
            .field("workloads", Json::Arr(workloads)),
    )
}

/// The summary object the last stdout line carries: correctness, pass
/// counts, and the end-to-end metrics (`trace == false`) or the per-layer
/// metrics (`trace == true`).
pub fn summary_line(r: &WorkloadResult, trace: bool) -> String {
    let metrics = match (&r.per_layer, trace) {
        (Some(per_layer), true) => metric_block(&PER_LAYER, per_layer),
        _ => metric_block(&END_TO_END, &r.end_to_end),
    };
    Json::obj()
        .field("correct", Json::Bool(r.failed == 0))
        .field("attempted", Json::u64(r.attempted))
        .field("failed", Json::u64(r.failed))
        .field("metrics", metrics)
        .render()
}

/// The human-readable table of one workload's metrics.
pub fn table(r: &WorkloadResult) -> String {
    let mut out = format!(
        "{}: {} timed passes, {} of {} checked passes failed, digest {:#018x}\n",
        r.workload.name(),
        r.passes,
        r.failed,
        r.attempted,
        r.digest
    );
    for p in &r.problems {
        out.push_str(&format!("  FAIL {p}\n"));
    }
    let rows = END_TO_END.iter().zip(&r.end_to_end);
    let context = CONTEXT.iter().zip(&r.context);
    let layers = r.per_layer.iter().flat_map(|v| PER_LAYER.iter().zip(v));
    for (m, v) in rows.chain(context).chain(layers) {
        out.push_str(&format!("  {:<28} {:>18} {}\n", m.name, sig(*v), m.unit));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.5), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((quantile(&xs, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn metric_names_are_unique_and_bounds_fit_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&CONTEXT)
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate metric name");
        for m in END_TO_END {
            let cap = if m.name == "setup_s" { 0.25 } else { 0.20 };
            assert!(m.bound >= 0.03 && m.bound <= cap, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s");
        let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.map(|m| m.bound), Some(largest));
    }

    /// `BENCHMARK.json` at the repository root mirrors this catalogue.
    #[test]
    fn benchmark_json_mirrors_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc = simobs::json::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let Some(Json::Arr(entries)) = doc.get(key) else {
                panic!("BENCHMARK.json has no {key} list");
            };
            assert_eq!(entries.len(), table.len(), "{key} length");
            for (e, m) in entries.iter().zip(table) {
                assert_eq!(e.get("name"), Some(&Json::str(m.name)));
                assert_eq!(e.get("unit"), Some(&Json::str(m.unit)));
                let better = match m.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                assert_eq!(e.get("better"), Some(&Json::str(better)));
                if key == "end_to_end" {
                    let Some(Json::Num(b)) = e.get("bound") else {
                        panic!("{} has no bound", m.name);
                    };
                    assert_eq!(b.parse::<f64>().ok(), Some(m.bound), "{}", m.name);
                }
            }
        }
        let Some(Json::Arr(workloads)) = doc.get("workloads") else {
            panic!("BENCHMARK.json has no workloads");
        };
        let names: Vec<_> = workloads.iter().filter_map(|w| w.get("name")).collect();
        let want: Vec<_> = Workload::ALL.iter().map(|w| Json::str(w.name())).collect();
        assert_eq!(names, want.iter().collect::<Vec<_>>());
    }
}
