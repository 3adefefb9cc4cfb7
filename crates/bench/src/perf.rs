//! The `bench` study: one pinned headline scenario, profiled in both
//! time domains, emitted as a versioned JSON report and diffed against
//! the committed baseline (`results/BENCH_core.json`).
//!
//! The report splits by contract (see `simprof::regress` and
//! `docs/PROFILING.md`):
//!
//! * `"pinned"` — simulated results: integers and booleans only,
//!   byte-exact against the baseline at any thread count. Includes the
//!   observer-effect check (profile-on vs profile-off reports compare
//!   equal), HDR latency percentiles, the per-layer simulated self-time
//!   rollup, the journal's write-amplification decomposition and the
//!   solver's eigenvalue digest.
//! * `"host"` — wall-clock milliseconds per phase from a
//!   [`simprof::Profiler`] driven by [`WallClock`] (this crate is the
//!   one place real time may enter; the profiler itself never reads a
//!   clock). Only `host.wall_ms.total` is regression-checked, with a
//!   tolerance band.

use crate::sweep::Sweep;
use nvmtypes::convert::{approx_f64, u64_from_usize};
use nvmtypes::{NvmKind, MIB};
use ooc::lobpcg::{Lobpcg, LobpcgOptions};
use ooc::HamiltonianSpec;
use oocnvm_core::config::SystemConfig;
use oocnvm_core::experiment::ExperimentSpec;
use oocnvm_core::workload::synthetic_ooc_trace;
use simobs::json::Json;
use simobs::{HdrHistogram, Metric};
use simprof::{HostClock, Profiler, SimSpanProfile};

/// Schema tag of the bench JSON document.
pub const SCHEMA: &str = "oocnvm.bench/1";

/// Default host-time regression tolerance, percent over baseline.
/// Generous on purpose: CI machines vary wildly (single-core runners
/// show 2–3x run-to-run spread under load), and the committed baseline
/// records a good warm run — the band only catches order-of-magnitude
/// regressions. Override with `--tolerance` or `OOCNVM_BENCH_TOL_PCT`.
pub const DEFAULT_TOL_PCT: u64 = 300;

/// A real host clock for the profiler: nanoseconds since construction.
/// Lives here — not in `simprof` — because the bench crate is the one
/// place the workspace permits wall-clock reads.
#[derive(Debug)]
pub struct WallClock {
    epoch: std::time::Instant,
}

impl WallClock {
    /// Starts the clock.
    pub fn new() -> WallClock {
        WallClock {
            epoch: std::time::Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> WallClock {
        WallClock::new()
    }
}

impl HostClock for WallClock {
    fn now_ns(&mut self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// What the bench runs. [`BenchScenario::pinned`] is the committed
/// headline scenario — change it and the baseline must be regenerated;
/// [`BenchScenario::tiny`] keeps debug-mode tests fast.
#[derive(Debug, Clone, Copy)]
pub struct BenchScenario {
    /// Scenario name, recorded in the report.
    pub label: &'static str,
    /// Workload size, MiB.
    pub trace_mib: u64,
    /// Workload / solver seed.
    pub seed: u64,
    /// Run the full Table-2 configuration set (else a 2-config subset).
    pub full_table: bool,
    /// LOBPCG problem dimension.
    pub solver_dim: usize,
}

impl BenchScenario {
    /// The committed headline scenario behind `results/BENCH_core.json`.
    pub fn pinned() -> BenchScenario {
        BenchScenario {
            label: "pinned",
            trace_mib: 8,
            seed: 42,
            full_table: true,
            solver_dim: 96,
        }
    }

    /// A reduced scenario for debug-mode tests.
    pub fn tiny() -> BenchScenario {
        BenchScenario {
            label: "tiny",
            trace_mib: 2,
            seed: 42,
            full_table: false,
            solver_dim: 32,
        }
    }
}

/// The rendered bench study.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Human-readable study (the bin prints it verbatim).
    pub text: String,
    /// The [`SCHEMA`] JSON document, via [`crate::json_report`].
    pub json: String,
}

fn line(out: &mut String, s: &str) {
    out.push_str(s);
    out.push('\n');
}

/// Runs the scenario under the given host clock and renders the report.
/// Everything under `"pinned"` is a pure function of the scenario; the
/// clock only feeds the `"host"` subtree.
pub fn render_report(sc: &BenchScenario, clock: Box<dyn HostClock>) -> BenchReport {
    let mut prof = Profiler::new(clock);
    let mut out = String::new();
    line(&mut out, &format!("bench scenario: {}", sc.label));

    // Phase 1 — the config × media sweep (the paper's Table-2 cross
    // product), merging every run's HDR latency histogram.
    prof.enter("sweep");
    let trace = synthetic_ooc_trace(sc.trace_mib * MIB, MIB, sc.seed);
    let configs = if sc.full_table {
        SystemConfig::table2()
    } else {
        vec![SystemConfig::cnl_ufs(), SystemConfig::cnl_native16()]
    };
    let kinds: &[NvmKind] = if sc.full_table {
        &NvmKind::ALL
    } else {
        &[NvmKind::Tlc, NvmKind::Pcm]
    };
    let sweep = Sweep::run(&configs, kinds, &trace);
    let mut requests: u64 = 0;
    let mut bytes: u64 = 0;
    let mut sim_ns: u64 = 0;
    let mut merged = HdrHistogram::new();
    for r in sweep.reports() {
        requests = requests.saturating_add(r.run.requests);
        bytes = bytes.saturating_add(r.run.total_bytes);
        sim_ns = sim_ns.saturating_add(r.run.makespan);
        merged.merge(&r.run.latency_hdr);
    }
    let pct = merged.percentiles();
    let sim_ops_per_sec = requests
        .saturating_mul(1_000_000_000)
        .checked_div(sim_ns)
        .unwrap_or(0);
    prof.add_sim(sim_ns);
    prof.exit();
    line(
        &mut out,
        &format!(
            "  sweep: {} runs, {requests} requests, {bytes} bytes, {sim_ns} sim-ns ({sim_ops_per_sec} ops/sim-s)",
            sweep.reports().len()
        ),
    );
    line(
        &mut out,
        &format!(
            "  latency p50={} p90={} p99={} p999={} max={} ns",
            pct.p50, pct.p90, pct.p99, pct.p999, pct.max
        ),
    );

    // Phase 2 — one traced CNL-UFS/TLC journaled run: per-layer
    // simulated self-time attribution, plus the observer-effect check
    // (the traced and untraced reports must render identically).
    prof.enter("traced_run");
    let cnl = SystemConfig::cnl_ufs();
    let mut obs = simobs::Tracer::ring(1 << 16);
    let traced = ExperimentSpec::new(&cnl, NvmKind::Tlc)
        .journaled_ufs(true)
        .tracer(&mut obs)
        .run(&trace);
    let untraced = ExperimentSpec::new(&cnl, NvmKind::Tlc)
        .journaled_ufs(true)
        .run(&trace);
    // Structural comparison, not Debug-string rendering: formatting two
    // multi-kilobyte reports allocated and walked O(report) text per run.
    let observer_zero = traced == untraced;
    let log = obs.finish();
    let span_prof = SimSpanProfile::build(&log);
    prof.add_sim(traced.run.makespan);
    prof.exit();
    line(
        &mut out,
        &format!(
            "  traced run: {} events, observer effect zero: {}",
            log.emitted,
            if observer_zero { "OK" } else { "FAIL" }
        ),
    );
    out.push_str(&indent(&span_prof.render(), "  "));

    // Phase 3 — the journal's write-amplification decomposition on the
    // same trace (the ufs study's replay overhead, itemised). The traced
    // run already performed this exact replay and recorded the
    // filesystem's counters ([`JournaledUfs::transform_observed`]), so
    // this phase reads them back rather than replaying a third time —
    // same deterministic values, one less full-trace replay per bench.
    prof.enter("journal");
    let wa = ufs::WriteAmp {
        user_bytes: log.metrics.counter(Metric::UfsUserBytes),
        cow_bytes: log.metrics.counter(Metric::UfsCowBytes),
        journal_bytes: log.metrics.counter(Metric::UfsJournalBytes),
        apply_bytes: log.metrics.counter(Metric::UfsApplyBytes),
        commits: log.metrics.counter(Metric::UfsCommits),
        recovery_replays: 0,
    };
    prof.exit();
    line(
        &mut out,
        &format!(
            "  journal: user={} cow={} journal={} apply={} bytes in {} commits ({} permille device/user)",
            wa.user_bytes,
            wa.cow_bytes,
            wa.journal_bytes,
            wa.apply_bytes,
            wa.commits,
            wa.device_per_user_permille()
        ),
    );

    // Phase 4 — the LOBPCG driver at reduced dimension; eigenvalues are
    // pinned through a bit-level digest.
    prof.enter("solver");
    // The in-core solve: unpreconditioned, it is bit-identical to the
    // same solve over the out-of-core store.
    let h = HamiltonianSpec::tiny(sc.solver_dim).generate();
    let res = Lobpcg::new(LobpcgOptions {
        block_size: 3,
        max_iters: 60,
        seed: sc.seed,
        precondition: false,
        ..LobpcgOptions::default()
    })
    .solve(&h);
    let eigen_digest = res
        .eigenvalues
        .iter()
        .fold(0u64, |acc, v| acc.rotate_left(7) ^ v.to_bits());
    prof.add_sim(u64_from_usize(res.iterations).saturating_mul(1_000));
    prof.exit();
    line(
        &mut out,
        &format!(
            "  solver: dim {} converged in {} iters, eigen digest {eigen_digest:#018x}",
            sc.solver_dim, res.iterations
        ),
    );

    let report = prof.finish();
    let wall_ms = |ns: u64| ns / 1_000_000;
    let phase_host = |name: &str| {
        report
            .root
            .children
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.host_ns)
            .unwrap_or(0)
    };
    line(
        &mut out,
        &format!(
            "  host wall: total {} ms (sweep {} / traced_run {} / journal {} / solver {} ms)",
            wall_ms(report.root.host_ns),
            wall_ms(phase_host("sweep")),
            wall_ms(phase_host("traced_run")),
            wall_ms(phase_host("journal")),
            wall_ms(phase_host("solver")),
        ),
    );
    let host_ops_per_sec = if report.root.host_ns > 0 {
        approx_f64(requests) / (approx_f64(report.root.host_ns) / 1e9)
    } else {
        0.0
    };
    line(
        &mut out,
        &format!("  host throughput: {host_ops_per_sec:.0} simulated requests/s"),
    );

    let layers = span_prof
        .layers
        .iter()
        .map(|l| {
            Json::obj()
                .field("layer", Json::str(l.layer.label()))
                .field("calls", Json::u64(l.calls))
                .field("self_ns", Json::u64(l.self_ns))
        })
        .collect();
    let pinned = Json::obj()
        .field(
            "sweep",
            Json::obj()
                .field("runs", Json::u64(u64_from_usize(sweep.reports().len())))
                .field("requests", Json::u64(requests))
                .field("bytes", Json::u64(bytes))
                .field("sim_ns", Json::u64(sim_ns))
                .field("sim_ops_per_sec", Json::u64(sim_ops_per_sec))
                .field(
                    "latency_ns",
                    Json::obj()
                        .field("p50", Json::u64(pct.p50))
                        .field("p90", Json::u64(pct.p90))
                        .field("p99", Json::u64(pct.p99))
                        .field("p999", Json::u64(pct.p999))
                        .field("max", Json::u64(pct.max)),
                ),
        )
        .field(
            "traced_run",
            Json::obj()
                .field("observer_effect_zero", Json::Bool(observer_zero))
                .field("events", Json::u64(log.emitted))
                .field("union_ns", Json::u64(span_prof.union_ns))
                .field("layers", Json::Arr(layers)),
        )
        .field(
            "journal",
            Json::obj()
                .field("user_bytes", Json::u64(wa.user_bytes))
                .field("cow_bytes", Json::u64(wa.cow_bytes))
                .field("journal_bytes", Json::u64(wa.journal_bytes))
                .field("apply_bytes", Json::u64(wa.apply_bytes))
                .field("commits", Json::u64(wa.commits))
                .field(
                    "device_per_user_permille",
                    Json::u64(wa.device_per_user_permille()),
                ),
        )
        .field(
            "solver",
            Json::obj()
                .field("dim", Json::u64(u64_from_usize(sc.solver_dim)))
                .field("iterations", Json::u64(u64_from_usize(res.iterations)))
                .field(
                    "eigenvalues",
                    Json::u64(u64_from_usize(res.eigenvalues.len())),
                )
                .field("eigen_digest", Json::u64(eigen_digest)),
        );
    let host = Json::obj()
        .field(
            "wall_ms",
            Json::obj()
                .field("total", Json::u64(wall_ms(report.root.host_ns)))
                .field("sweep", Json::u64(wall_ms(phase_host("sweep"))))
                .field("traced_run", Json::u64(wall_ms(phase_host("traced_run"))))
                .field("journal", Json::u64(wall_ms(phase_host("journal"))))
                .field("solver", Json::u64(wall_ms(phase_host("solver")))),
        )
        .field("requests_per_sec", Json::f64_3(host_ops_per_sec))
        .field("profile", report.to_json());
    let payload = Json::obj()
        .field(
            "scenario",
            Json::obj()
                .field("label", Json::str(sc.label))
                .field("trace_mib", Json::u64(sc.trace_mib))
                .field("seed", Json::u64(sc.seed))
                .field("full_table", Json::Bool(sc.full_table))
                .field("solver_dim", Json::u64(u64_from_usize(sc.solver_dim))),
        )
        .field("pinned", pinned)
        .field("host", host);
    BenchReport {
        text: out,
        json: crate::json_report(SCHEMA, payload),
    }
}

fn indent(s: &str, by: &str) -> String {
    s.lines()
        .map(|l| format!("{by}{l}\n"))
        .collect::<Vec<_>>()
        .concat()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simprof::TickClock;

    fn strip_host(json: &str) -> simobs::json::Json {
        let doc = simobs::json::parse(json).expect("well-formed");
        doc.get("pinned").cloned().expect("pinned subtree")
    }

    #[test]
    fn tiny_bench_is_pinned_deterministic_and_observer_clean() {
        let a = render_report(&BenchScenario::tiny(), Box::new(TickClock::new(1)));
        assert!(!a.text.contains("FAIL"), "{}", a.text);
        let b = render_report(&BenchScenario::tiny(), Box::new(TickClock::new(500)));
        // Different clocks, identical pinned subtree.
        assert_eq!(strip_host(&a.json), strip_host(&b.json));
        // Identical clock, identical full report.
        let c = render_report(&BenchScenario::tiny(), Box::new(TickClock::new(1)));
        assert_eq!(a.json, c.json);
        assert_eq!(a.text, c.text);
    }

    #[test]
    fn tiny_bench_diffs_cleanly_against_itself() {
        let a = render_report(&BenchScenario::tiny(), Box::new(TickClock::new(1)));
        let b = render_report(&BenchScenario::tiny(), Box::new(TickClock::new(900)));
        let violations = simprof::compare(&a.json, &b.json, DEFAULT_TOL_PCT);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn report_carries_the_expected_sections() {
        let r = render_report(&BenchScenario::tiny(), Box::new(TickClock::new(1)));
        let doc = simobs::json::parse(&r.json).expect("well-formed");
        assert_eq!(doc.get("format"), Some(&simobs::json::Json::str(SCHEMA)));
        let pinned = doc.get("pinned").expect("pinned");
        for key in ["sweep", "traced_run", "journal", "solver"] {
            assert!(pinned.get(key).is_some(), "missing pinned.{key}");
        }
        let wa = pinned.get("journal").expect("journal");
        assert!(wa.get("journal_bytes").is_some());
        let host = doc.get("host").expect("host");
        assert!(host.get("wall_ms").and_then(|w| w.get("total")).is_some());
    }
}
