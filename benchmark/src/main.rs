//! `benchmark` — host-time benchmark of the oocnvm simulator on four
//! workloads, with per-layer timing and pinned simulated output.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--json PATH]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --compare OLD.jsonl NEW.jsonl
//! ```
//!
//! Run from the repository root. For each workload (all four unless
//! `--workload` names one) it:
//!
//! 1. generates the inputs from `--seed` in timed batches (median:
//!    `setup_s`), runs one untimed warm-up pass, then times passes through
//!    the production batch entry points for `--seconds` seconds on
//!    `min(2, nproc)` threads, tracing off — the end-to-end metrics;
//!    every host time is calibrated against a fixed kernel (see
//!    [`calibrate`]);
//! 2. with `--trace 1` (the default), runs the decomposed pass on one
//!    thread twice, with `Tracer::off` and with `Tracer::ring`, timing
//!    each layer's public entry point from outside — the per-layer
//!    metrics;
//! 3. checks every pass's simulated-output digest against the committed
//!    pin (`results/benchmark/pins.json`) at the pin's seed, and against
//!    the warm-up pass at any other seed.
//!
//! It prints a table with units, then one JSON line: with `--workload`,
//! `{"correct", "attempted", "failed", "metrics"}` carrying the
//! end-to-end metrics (`--trace 0`) or the per-layer ones (`--trace 1`);
//! without, the `oocnvm.benchmark/1` document, which `--json` also
//! writes. Exit status: 0 when every check passed, 1 when one failed,
//! 2 on a usage or input error.
//!
//! `--compare OLD NEW` reads two files of one or more documents (one per
//! line, each side reduced to per-metric medians) and prints, per
//! workload and end-to-end metric, better, worse or within the metric's
//! bound; on worse it names the three layer times that moved most. It
//! exits 1 if anything got worse. See `results/benchmark/README.md`.

mod alloc;
mod calibrate;
mod compare;
mod metrics;
mod workload;

use crate::compare::{parse_docs, parse_pins, Pins, Verdict, PINS_PATH};
use crate::metrics::{
    document, quantile, ratio, summary_line, table, RunHeader, WorkloadResult, CONTEXT, END_TO_END,
    PER_LAYER,
};
use crate::workload::{decomposed_pass, pass, Layers, Scale, Traced, Workload};
use nvmtypes::{SimError, MIB};
use simobs::Layer;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--json PATH]\n       benchmark --compare OLD.jsonl NEW.jsonl";

/// Timed passes per run even when one pass outlasts `--seconds`.
const MIN_PASSES: usize = 3;

/// Timed passes a run needs before it reports a 90th percentile.
const P90_MIN_PASSES: usize = 100;

/// Set-up is timed in batches of back-to-back set-ups lasting at least
/// [`SETUP_BATCH`], so a set-up of a few microseconds is averaged over
/// thousands instead of read off the clock once; `setup_s` is the median
/// of [`SETUP_BATCHES`] batches. Each set-up in a batch drops the one
/// before it, so the heap stays warm instead of growing by page faults.
const SETUP_BATCH: Duration = Duration::from_millis(10);
const SETUP_BATCHES: usize = 15;
const MAX_SETUP_BATCH: usize = 100_000;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    json: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 20,
        trace: true,
        json: None,
        compare: None,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s| (1..=3600).contains(s))
                    .ok_or("--seconds takes 1 to 3600")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--json" => args.json = Some(value()?.clone()),
            "--compare" => {
                let old = value()?.clone();
                let new = it.next().ok_or("--compare needs OLD and NEW")?.clone();
                args.compare = Some((old, new));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs the invocation; `Ok(false)` when a check failed.
fn run(args: &Args) -> Result<bool, SimError> {
    let read =
        |path: &str| std::fs::read(path).map_err(|e| SimError::invalid_config(path, e.to_string()));
    if let Some((old, new)) = &args.compare {
        let comparisons = compare::compare(&parse_docs(&read(old)?)?, &parse_docs(&read(new)?)?);
        print!("{}", compare::render(&comparisons));
        return Ok(comparisons.iter().all(|c| c.verdict != Verdict::Worse));
    }

    bench(args, &read(PINS_PATH)?)
}

/// Measures the workloads `args` names, checking them against the pin
/// file `pin_bytes`; `Ok(false)` when a check failed.
fn bench(args: &Args, pin_bytes: &[u8]) -> Result<bool, SimError> {
    let pins = parse_pins(pin_bytes)?;
    let mut pins_digest = workload::Digest::new();
    pin_bytes
        .iter()
        .for_each(|&b| pins_digest.word(u64::from(b)));
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let header = RunHeader {
        seed: args.seed,
        seconds: args.seconds,
        timed_threads: nproc.min(2),
        traced_threads: 1,
        nproc,
        pins_digest: pins_digest.0,
    };
    let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut results = Vec::new();
    for w in workloads {
        let r = measure(w, Scale::Full, args, &header, pin(&pins, w, args.seed));
        print!("{}", table(&r));
        results.push(r);
    }

    let doc = document(&header, &results);
    if let Some(path) = &args.json {
        std::fs::write(path, format!("{doc}\n"))
            .map_err(|e| SimError::invalid_config(path.as_str(), e.to_string()))?;
    }
    match (args.workload, results.first()) {
        (Some(_), Some(r)) => println!("{}", summary_line(r, args.trace)),
        _ => println!("{doc}"),
    }
    Ok(results.iter().all(|r| r.failed == 0))
}

/// The digest `w` must produce at `seed`: pinned at the pins' seed,
/// otherwise unknown until the warm-up pass.
fn pin(pins: &Pins, w: Workload, seed: u64) -> Option<u64> {
    (seed == pins.seed)
        .then(|| pins.digests.get(w.name()).copied())
        .flatten()
}

fn set_threads(n: usize) {
    // The vendored pool re-reads this at every parallel region. Only the
    // main thread runs between regions, so nothing reads it concurrently.
    std::env::set_var("RAYON_NUM_THREADS", n.to_string());
}

/// Counts passes checked against the expected digest.
struct Checks {
    expected: Option<u64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Checks {
    fn new(expected: Option<u64>) -> Checks {
        Checks {
            expected,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// Checks one pass. The first pass fixes the expected digest when
    /// no pin does.
    fn check(&mut self, what: &str, digest: Result<u64, SimError>) {
        self.attempted += 1;
        let problem = match digest {
            Err(e) => Some(format!("{what}: {e}")),
            Ok(d) => match *self.expected.get_or_insert(d) {
                want if want == d => None,
                want => Some(format!("{what}: digest {d:#018x}, expected {want:#018x}")),
            },
        };
        if let Some(p) = problem {
            self.failed += 1;
            if self.problems.len() < 8 {
                self.problems.push(p);
            }
        }
    }
}

/// Measures one workload: set-up, warm-up, the timed run, and with
/// `args.trace` the traced passes. Every host time is taken beside a run
/// of the calibration kernel and rescaled to its reference speed.
fn measure(
    w: Workload,
    scale: Scale,
    args: &Args,
    header: &RunHeader,
    expected: Option<u64>,
) -> WorkloadResult {
    let mut checks = Checks::new(expected);
    set_threads(header.timed_threads);
    let mut setup_s = Vec::new();
    let mut batch = 1;
    let inputs = loop {
        let factor = calibrate::factor(calibrate::kernel_ms());
        let t = Instant::now();
        let mut last = w.setup(scale, args.seed, &mut Layers::default());
        for _ in 1..batch {
            last = std::hint::black_box(w.setup(scale, args.seed, &mut Layers::default()));
        }
        let elapsed = t.elapsed();
        if last.is_err() {
            break last;
        }
        if elapsed < SETUP_BATCH && batch < MAX_SETUP_BATCH {
            // Too short to read off the clock: size the batch, start over.
            let once = elapsed.as_secs_f64() / batch as f64;
            batch = ((SETUP_BATCH.as_secs_f64() / once.max(1e-9)).ceil() as usize)
                .clamp(batch + 1, MAX_SETUP_BATCH);
            continue;
        }
        setup_s.push(elapsed.as_secs_f64() / batch as f64 * factor);
        if setup_s.len() == SETUP_BATCHES {
            break last;
        }
    };
    let inputs = match inputs {
        Ok(i) => i,
        Err(e) => {
            checks.check("set-up", Err(e));
            return WorkloadResult {
                workload: w,
                passes: 0,
                attempted: checks.attempted,
                failed: checks.failed,
                digest: 0,
                problems: checks.problems,
                end_to_end: vec![0.0; END_TO_END.len()],
                context: vec![0.0; CONTEXT.len()],
                per_layer: args.trace.then(|| vec![0.0; PER_LAYER.len()]),
            };
        }
    };

    checks.check("warm-up pass", pass(&inputs).map(|o| o.digest));
    let (mut raw_ms, mut pass_ms, mut kernel_ms, mut peak) = (vec![], vec![], vec![], vec![]);
    let mut device_bytes = 0;
    let timed = Instant::now();
    while pass_ms.len() < MIN_PASSES || timed.elapsed() < Duration::from_secs(args.seconds) {
        let kernel = calibrate::kernel_ms();
        alloc::reset_peak();
        let t = Instant::now();
        let out = pass(&inputs);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        peak.push(alloc::peak_bytes() as f64 / MIB as f64);
        raw_ms.push(ms);
        pass_ms.push(ms * calibrate::factor(kernel));
        kernel_ms.push(kernel);
        if let Ok(o) = &out {
            device_bytes += o.device_bytes;
        }
        checks.check("timed pass", out.map(|o| o.digest));
    }
    drop(inputs);
    let total_ms: f64 = pass_ms.iter().sum();
    let mean = ratio(total_ms, pass_ms.len() as f64);
    let end_to_end = vec![
        mean,
        ratio(device_bytes as f64 / MIB as f64, total_ms / 1e3),
        quantile(&peak, 0.5),
        quantile(&setup_s, 0.5),
    ];
    // Fewer passes cannot place a 90th percentile: no value.
    let p90 = |xs: &[f64]| {
        if xs.len() < P90_MIN_PASSES {
            f64::NAN
        } else {
            quantile(xs, 0.9)
        }
    };
    let context = vec![
        quantile(&pass_ms, 0.5),
        p90(&pass_ms),
        quantile(&raw_ms, 0.5),
        p90(&raw_ms),
        quantile(&kernel_ms, 0.5),
    ];

    let per_layer = args.trace.then(|| {
        set_threads(header.traced_threads);
        match traced(w, scale, args.seed, &mut checks) {
            Ok(phase) => layer_values(&phase, mean),
            Err(e) => {
                checks.check("traced set-up", Err(e));
                vec![0.0; PER_LAYER.len()]
            }
        }
    });
    WorkloadResult {
        workload: w,
        passes: pass_ms.len() as u64,
        attempted: checks.attempted,
        failed: checks.failed,
        digest: checks.expected.unwrap_or(0),
        problems: checks.problems,
        end_to_end,
        context,
        per_layer,
    }
}

/// Kernel runs whose median calibrates one traced measurement.
const TRACED_KERNEL_RUNS: usize = 5;

/// What the traced phase measured; each host time comes with the
/// calibration factor taken just before it.
struct TracedPhase {
    setup: Layers,
    setup_factor: f64,
    off: Traced,
    off_factor: f64,
    ring: Traced,
    ring_factor: f64,
    allocs: alloc::Snapshot,
}

/// The single-threaded traced phase: set-up with its generators timed,
/// then the decomposed pass with tracing off (layer times, allocations)
/// and with a ring tracer (counts, simulated time, tracing cost). Both
/// passes must reproduce the expected digest.
fn traced(
    w: Workload,
    scale: Scale,
    seed: u64,
    checks: &mut Checks,
) -> Result<TracedPhase, SimError> {
    let kernel = || calibrate::factor(calibrate::median_kernel_ms(TRACED_KERNEL_RUNS));
    let mut setup = Layers::default();
    let setup_factor = kernel();
    let inputs = w.setup(scale, seed, &mut setup)?;
    let off_factor = kernel();
    let before = alloc::Snapshot::now();
    let off = decomposed_pass(&inputs, false);
    let allocs = before.until(alloc::Snapshot::now());
    let ring_factor = kernel();
    let ring = decomposed_pass(&inputs, true).and_then(|t| match t.dropped {
        0 => Ok(t),
        n => Err(SimError::invalid_config(
            "ring",
            format!("dropped {n} events"),
        )),
    });
    let digest =
        |t: &Result<Traced, SimError>| t.as_ref().map(|t| t.output.digest).map_err(Clone::clone);
    checks.check("untraced layer pass", digest(&off));
    checks.check("ring-traced layer pass", digest(&ring));
    let (off, ring) = (off?, ring?);
    Ok(TracedPhase {
        setup,
        setup_factor,
        off,
        off_factor,
        ring,
        ring_factor,
        allocs,
    })
}

/// Per-layer values in [`PER_LAYER`] order.
fn layer_values(phase: &TracedPhase, pass_ms: f64) -> Vec<f64> {
    let (off, ring, allocs) = (&phase.off, &phase.ring, phase.allocs);
    let (l, f) = (&off.layers, phase.off_factor);
    // Calibrated host ns as f64, then ms.
    let ns = |v: u64| v as f64 * f;
    let ms = |v: u64| ns(v) / 1e6;
    let setup_ms = |v: u64| v as f64 * phase.setup_factor / 1e6;
    let count = |name: &str| ring.counters.get(name).copied().unwrap_or(0) as f64;
    let sim = |layer: Layer| ring.sim_self_ns.get(layer.label()).copied().unwrap_or(0) as f64;
    let device_ns = ns(l.ssd + l.qos);
    PER_LAYER
        .iter()
        .map(|m| match m.name {
            "workload.gen_ms" => setup_ms(phase.setup.gen) + ms(l.gen),
            "fs.transform_ms" => ms(l.fs),
            "ufs.replay_ms" => ms(l.ufs),
            "ssd.run_ms" => ms(l.ssd),
            "ssd.qos_ms" => ms(l.qos),
            "ooc.setup_ms" => setup_ms(phase.setup.ooc_setup),
            "ooc.panel_read_ms" => ms(l.panel_read),
            "ooc.spmm_ms" => ms(l.spmm),
            "ooc.dense_ms" => ms(l.dense),
            "core.residual_ms" => ms(off.pass_ns.saturating_sub(l.total())),
            "core.serial_pass_ms" => ms(off.pass_ns),
            "ssd.ns_per_request" => ratio(device_ns, count("ssd.requests")),
            "media.ns_per_die_op" => ratio(device_ns, count("media.die_ops")),
            "ufs.ns_per_device_kib" => ratio(ns(l.ufs), off.ufs_block_bytes as f64 / 1024.0),
            "ooc.panel_read_ns_per_kib" => ratio(ns(l.panel_read), off.panel_bytes as f64 / 1024.0),
            "ufs.write_amp_permille" => ratio(
                1000.0
                    * (count("ufs.cow_bytes")
                        + count("ufs.journal_bytes")
                        + count("ufs.apply_bytes")),
                count("ufs.user_bytes"),
            ),
            "alloc.count" => allocs.count as f64,
            "alloc.mib" => allocs.bytes as f64 / MIB as f64,
            "core.pool_speedup" => ratio(ms(off.pass_ns), pass_ms),
            "simobs.overhead_pct" => {
                let traced = ring.traced_calls_ns as f64 * phase.ring_factor;
                (ratio(traced, ns(off.traced_calls_ns)) - 1.0) * 100.0
            }
            "sim.media_self_ns" => sim(Layer::Media),
            "sim.link_self_ns" => sim(Layer::Link),
            "sim.ssd_self_ns" => sim(Layer::Ssd),
            counter => count(counter),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(values: &[f64], name: &str) -> f64 {
        let i = PER_LAYER.iter().position(|m| m.name == name);
        values[i.expect("catalogued metric")]
    }

    /// All four workloads at tiny scale: the decomposed passes reproduce
    /// the timed pass's digest, layer times plus the residual make up the
    /// pass, each workload reaches exactly the layers it claims to, and
    /// every per-layer metric reads nonzero on some workload (so no
    /// counter name is misspelt).
    #[test]
    fn tiny_workloads_decompose_exactly_and_bypass_what_they_claim() {
        let mut seen = [false; PER_LAYER.len()];
        for w in Workload::ALL {
            let name = w.name();
            let mut checks = Checks::new(None);
            let inputs = w
                .setup(Scale::Tiny, 42, &mut Layers::default())
                .expect("tiny set-up");
            checks.check("timed pass", pass(&inputs).map(|o| o.digest));
            let mut phase = traced(w, Scale::Tiny, 42, &mut checks).expect("traced passes");
            assert_eq!(checks.failed, 0, "{name}: {:?}", checks.problems);
            assert_eq!(checks.attempted, 3);
            assert_eq!(phase.off.output, phase.ring.output, "{name}");
            assert!(
                phase.off.layers.total() <= phase.off.pass_ns,
                "{name}: layers overlap"
            );

            // Only the in-pass generator time belongs to the pass.
            phase.setup.gen = 0;
            let v = layer_values(&phase, 1.0);
            let in_pass: f64 = [
                "workload.gen_ms",
                "fs.transform_ms",
                "ufs.replay_ms",
                "ssd.run_ms",
                "ssd.qos_ms",
                "ooc.panel_read_ms",
                "ooc.spmm_ms",
                "ooc.dense_ms",
                "core.residual_ms",
            ]
            .iter()
            .map(|n| value(&v, n))
            .sum();
            let pass_ms = value(&v, "core.serial_pass_ms");
            assert!(
                (in_pass - pass_ms).abs() <= 1e-9 * pass_ms.max(1.0),
                "{name}"
            );

            assert!(value(&v, "ssd.requests") > 0.0, "{name}");
            assert!(value(&v, "media.die_ops") > 0.0, "{name}");
            assert!(value(&v, "sim.media_self_ns") > 0.0, "{name}");
            assert!(value(&v, "alloc.count") > 0.0, "{name}");
            let ufs = [
                "ufs.user_bytes",
                "ufs.cow_bytes",
                "ufs.journal_bytes",
                "ufs.commits",
            ];
            let journaled = w == Workload::JournaledCkpt;
            for counter in ufs {
                assert_eq!(value(&v, counter) > 0.0, journaled, "{name} {counter}");
            }
            assert_eq!(value(&v, "ufs.replay_ms") > 0.0, journaled, "{name}");
            assert_eq!(
                value(&v, "ssd.qos_ms") > 0.0,
                w == Workload::TenantMix,
                "{name}"
            );
            let solves = w == Workload::OocSolve;
            assert_eq!(value(&v, "solver.iterations") > 0.0, solves, "{name}");
            assert_eq!(value(&v, "ooc.panel_read_ms") > 0.0, solves, "{name}");
            for (s, x) in seen.iter_mut().zip(&v) {
                *s |= *x != 0.0;
            }
        }
        for (m, s) in PER_LAYER.iter().zip(seen) {
            assert!(s, "{} is zero on every workload", m.name);
        }
    }

    #[test]
    fn layer_values_stay_finite_without_samples() {
        let phase = TracedPhase {
            setup: Layers::default(),
            setup_factor: 1.0,
            off: Traced::default(),
            off_factor: 1.0,
            ring: Traced::default(),
            ring_factor: 1.0,
            allocs: alloc::Snapshot::now(),
        };
        let v = layer_values(&phase, 1.0);
        assert_eq!(v.len(), PER_LAYER.len());
        assert!(v.iter().all(|x| x.is_finite()));
    }

    /// The committed pin gates the run: it passes, and a pin with one
    /// digit changed fails every pass and the run.
    #[test]
    fn the_committed_pin_passes_and_a_mutated_one_fails() {
        let pins_path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../results/benchmark/pins.json"
        );
        let pins = std::fs::read_to_string(pins_path).expect("committed pins");
        let args = Args {
            workload: Some(Workload::TenantMix),
            seed: 42,
            seconds: 1,
            trace: false,
            json: None,
            compare: None,
        };
        assert_eq!(bench(&args, pins.as_bytes()).ok(), Some(true));

        let key = "\"tenant_mix\":\"0x";
        let at = pins.find(key).expect("tenant_mix is pinned") + key.len();
        let mut mutated = pins.into_bytes();
        mutated[at] = if mutated[at] == b'0' { b'1' } else { b'0' };
        assert_eq!(bench(&args, &mutated).ok(), Some(false));

        let header = RunHeader {
            seed: 42,
            seconds: 1,
            timed_threads: 1,
            traced_threads: 1,
            nproc: 1,
            pins_digest: 0,
        };
        let wrong = parse_pins(&mutated).expect("still a pin file");
        let r = measure(
            Workload::TenantMix,
            Scale::Full,
            &args,
            &header,
            pin(&wrong, Workload::TenantMix, 42),
        );
        assert!(r.failed > 0 && r.failed == r.attempted, "{r:?}");
        assert!(r.error_rate() > 0.0);
    }

    /// This package sits outside the repository's workspace, so it
    /// cannot inherit the workspace's lint policy or release profile; it
    /// carries copies, and they must stay equal to the originals.
    #[test]
    fn the_manifest_mirrors_the_workspace_lints_and_release_profile() {
        let read = |path: &str| std::fs::read_to_string(path).expect("manifest is readable");
        let root = read(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml"));
        let own = read(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"));
        // The settings of one `[table]`, without comments or blank lines.
        fn table<'a>(manifest: &'a str, name: &str) -> Vec<&'a str> {
            let header = format!("[{name}]");
            manifest
                .lines()
                .map(str::trim)
                .skip_while(|l| *l != header)
                .skip(1)
                .take_while(|l| !l.starts_with('['))
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .collect()
        }
        for (theirs, ours) in [
            ("workspace.lints.rust", "lints.rust"),
            ("workspace.lints.clippy", "lints.clippy"),
            ("profile.release", "profile.release"),
        ] {
            let want = table(&root, theirs);
            assert!(!want.is_empty(), "the root manifest has no [{theirs}]");
            assert_eq!(table(&own, ours), want, "[{ours}] differs from [{theirs}]");
        }
    }

    /// `simlint` scans only `crates/*/src`, so it never sees this
    /// package. Its sources are scanned here as they would be at
    /// `crates/bench/src/bin/benchmark/`, a binary of the `bench` crate:
    /// the per-file rules and the cross-file concurrency passes must find
    /// nothing.
    #[test]
    fn the_sources_pass_simlint_as_a_bench_binary() {
        let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let root =
            std::env::temp_dir().join(format!("oocnvm-benchmark-simlint-{}", std::process::id()));
        let dir = root.join("crates/bench/src/bin/benchmark");
        std::fs::create_dir_all(&dir).expect("a temporary tree");
        let mut copied = 0;
        for entry in std::fs::read_dir(&src).expect("benchmark sources") {
            let path = entry.expect("directory entry").path();
            if path.extension().is_some_and(|e| e == "rs") {
                let name = path.file_name().expect("a file name");
                std::fs::copy(&path, dir.join(name)).expect("copy a source");
                copied += 1;
            }
        }
        let report = simlint::scan_workspace(&root);
        std::fs::remove_dir_all(&root).expect("remove the temporary tree");
        let report = report.expect("simlint scans the tree");
        assert_eq!(report.files_scanned, copied);
        let findings: Vec<String> = report
            .findings
            .iter()
            .map(|l| format!("{}:{}: {}", l.path, l.finding.line, l.finding.message))
            .collect();
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn arguments_parse_and_reject_nonsense() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a = parse("--workload tenant_mix --seed 7 --seconds 3 --trace 0").expect("valid");
        assert_eq!(a.workload, Some(Workload::TenantMix));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, false));
        let d = parse("").expect("defaults");
        assert_eq!((d.workload, d.seed, d.trace), (None, 42, true));
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--trace 2",
            "--json",
            "--compare a",
            "--frobnicate",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
