//! `bench` — the pinned perf scenario with dual-domain profiling and
//! baseline regression checking.
//!
//! ```text
//! cargo run --release -p oocnvm-bench --bin bench -- \
//!     [--smoke] [--json PATH] [--baseline PATH] [--tolerance PCT] \
//!     [--alloc-stats]
//! ```
//!
//! Runs [`oocnvm_bench::perf::BenchScenario::pinned`] under a real host
//! clock, prints the study, optionally writes the `oocnvm.bench/1` JSON,
//! and diffs it against the committed baseline
//! (`results/BENCH_core.json` by default): the `pinned` subtree must
//! match byte-for-byte, `host.wall_ms.total` gets a tolerance band
//! (`--tolerance`, or `OOCNVM_BENCH_TOL_PCT`, default 150%). `--smoke`
//! is the CI entry: a missing baseline, any pinned drift, a host-time
//! regression beyond tolerance, or a profile-on vs profile-off result
//! difference all fail the run.
//!
//! `--alloc-stats` reports how many heap allocations (and bytes) the
//! study phase performed, via a counting global allocator, and records
//! them under `host.alloc` in the JSON — an additive, host-domain field
//! (the baseline diff ignores it). This is the dynamic cross-check of
//! the static `simlint` hot-path inventory: after a burn-down PR, the
//! allocation count here should drop (see `docs/STATIC_ANALYSIS.md`).
//!
//! To regenerate the baseline after an intentional scenario change:
//! `cargo run --release -p oocnvm-bench --bin bench -- --json results/BENCH_core.json`.

use oocnvm_bench::cli::{self, StudyArgs};
use oocnvm_bench::perf::{render_report, BenchScenario, WallClock, DEFAULT_TOL_PCT};
use simobs::json::Json;
use std::process::ExitCode;

/// Allocation counting for `--alloc-stats`. Lives in this bin only — a
/// global allocator is a link-time property of the final binary, so
/// putting it in the library would silently tax every study bin. It is
/// always installed (there is no runtime opt-in for `#[global_allocator]`);
/// the flag only controls whether the counters are read and reported.
/// Two sequentially-consistent atomic adds per allocation are noise next
/// to the system allocator call they wrap.
mod alloc_stats {
    use nvmtypes::convert::u64_from_usize;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
    static BYTES: AtomicU64 = AtomicU64::new(0);

    /// Forwards to [`System`], counting every allocation and its size.
    pub struct Counting;

    // The one permitted `unsafe` in the workspace: implementing
    // `GlobalAlloc` is an unsafe trait contract. Both methods defer
    // entirely to `System` with the caller's own layout; the counters
    // are plain atomics and never allocate (no recursion hazard).
    #[allow(unsafe_code)]
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
            BYTES.fetch_add(u64_from_usize(layout.size()), Ordering::SeqCst);
            // SAFETY: same layout contract the caller gave us.
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `Self::alloc`, which is `System`.
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    /// Current `(allocations, bytes)` totals since process start; diff
    /// two snapshots to attribute a phase.
    pub fn snapshot() -> (u64, u64) {
        (
            ALLOCATIONS.load(Ordering::SeqCst),
            BYTES.load(Ordering::SeqCst),
        )
    }
}

#[global_allocator]
static ALLOC: alloc_stats::Counting = alloc_stats::Counting;

/// Re-renders `json` with `host.alloc = {allocations, bytes}` appended.
/// Additive only: the canonical renderer keeps every existing field
/// byte-identical, and `simprof::compare` diffs `pinned` (exact) and
/// `host.wall_ms.total` (banded), so baselines without the field still
/// compare clean.
fn with_alloc_stats(json: &str, allocations: u64, bytes: u64) -> String {
    let Ok(mut doc) = simobs::json::parse(json) else {
        return json.to_string();
    };
    if let Json::Obj(fields) = &mut doc {
        for (key, value) in fields.iter_mut() {
            if key == "host" {
                if let Json::Obj(host) = value {
                    host.push((
                        "alloc".to_string(),
                        Json::obj()
                            .field("allocations", Json::u64(allocations))
                            .field("bytes", Json::u64(bytes)),
                    ));
                }
            }
        }
    }
    doc.render()
}

fn main() -> ExitCode {
    // `--alloc-stats` is this bin's own flag; strip it before the shared
    // parser, which treats unknown flags as errors.
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let before = raw.len();
    raw.retain(|a| a != "--alloc-stats");
    let alloc_stats = raw.len() != before;
    let args = match StudyArgs::parse(&raw, cli::BENCH_FLAGS) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench: {e}");
            return ExitCode::from(2);
        }
    };
    let smoke = args.smoke;
    let json_path = args.json;
    let baseline_path = args
        .baseline
        .unwrap_or_else(|| "results/BENCH_core.json".to_string());
    let tolerance = args
        .tolerance
        .or_else(|| {
            std::env::var("OOCNVM_BENCH_TOL_PCT")
                .ok()
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(DEFAULT_TOL_PCT);

    let (allocs_before, bytes_before) = alloc_stats::snapshot();
    let report = render_report(&BenchScenario::pinned(), Box::new(WallClock::new()));
    let (allocs_after, bytes_after) = alloc_stats::snapshot();
    print!("{}", report.text);

    let report_json = if alloc_stats {
        let allocations = allocs_after.saturating_sub(allocs_before);
        let bytes = bytes_after.saturating_sub(bytes_before);
        println!("  heap: {allocations} allocations, {bytes} bytes during the study");
        with_alloc_stats(&report.json, allocations, bytes)
    } else {
        report.json
    };

    let mut failed = report.text.contains("FAIL");

    if let Some(path) = &json_path {
        match std::fs::write(path, &report_json) {
            Ok(()) => println!("json written to {path}"),
            Err(e) => {
                println!("json write to {path} failed: {e}");
                failed = true;
            }
        }
    }

    match std::fs::read_to_string(&baseline_path) {
        Ok(baseline) => {
            let violations = simprof::compare(&baseline, &report_json, tolerance);
            if violations.is_empty() {
                println!("baseline {baseline_path}: OK (tolerance {tolerance}%)");
            } else {
                println!(
                    "baseline {baseline_path}: {} violation(s)",
                    violations.len()
                );
                for v in &violations {
                    println!("  {v}");
                }
                failed = true;
            }
        }
        Err(e) => {
            println!("baseline {baseline_path} not readable: {e}");
            if smoke {
                failed = true;
            } else {
                println!("(regenerate with: bench --json {baseline_path})");
            }
        }
    }

    if failed {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
