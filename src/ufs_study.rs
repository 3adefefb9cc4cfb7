//! The crash-consistency study behind the `ufs` bin: does the journaled
//! UFS survive power loss at *every* device write, and what does the
//! journal cost?
//!
//! Lives in the library (not the bin) so `tests/determinism.rs` can pin
//! the rendered study byte-identical at every thread count: the crash
//! matrix fans its cases out on the thread pool via
//! [`ufs::crash_matrix`], which collects outcomes in case order
//! regardless of `RAYON_NUM_THREADS`.

use nvmtypes::{IoOp, NvmKind, MIB};
use ooc::lobpcg::{Lobpcg, LobpcgOptions};
use ooc::{HamiltonianSpec, UfsMatrix, UfsOperator};
use oocnvm_bench::json_report;
use oocnvm_core::config::SystemConfig;
use oocnvm_core::experiment::{run_batch, ExperimentSpec};
use oocnvm_core::format::Table;
use oocnvm_core::workload::synthetic_ooc_trace;
use ooctrace::TraceCapture;
use simobs::json::Json;
use ufs::{crash_matrix, CrashMatrixParams, UfsParams};

/// Schema tag of the UFS JSON document. Version 2 adds
/// `replay.write_amp` — the journaled replay's device bytes decomposed
/// into user / COW / journal / apply traffic (from
/// [`ufs::WriteAmp`]), itemising exactly where the ~390% replay
/// overhead goes. No v1 field was renamed or removed.
pub const SCHEMA: &str = "oocnvm.ufs/2";

/// Appends one report line.
fn line(out: &mut String, s: &str) {
    out.push_str(s);
    out.push('\n');
}

/// The rendered crash-consistency study.
#[derive(Debug, Clone)]
pub struct UfsReport {
    /// Human-readable study (the bin prints it verbatim).
    pub text: String,
    /// The [`SCHEMA`] JSON document, via [`oocnvm_bench::json_report`].
    pub json: String,
}

/// Crash-matrix scale for the study: `smoke` shrinks the workload so the
/// exhaustive sweep stays in CI budget.
fn matrix_params(seed: u64, smoke: bool) -> CrashMatrixParams {
    if smoke {
        CrashMatrixParams {
            device_sectors: 512,
            fs: UfsParams {
                max_files: 8,
                journal_sectors: 16,
            },
            files: 2,
            rounds: 2,
            payload_bytes: 5000,
            seed,
        }
    } else {
        CrashMatrixParams {
            seed,
            ..CrashMatrixParams::default()
        }
    }
}

/// Renders the whole study — text and JSON — so callers can compare two
/// runs byte-for-byte in both forms.
pub fn render_report(seed: u64, smoke: bool) -> UfsReport {
    let mut out = String::new();

    // 1. The exhaustive crash-point sweep: power loss during every
    //    device write of a deterministic workload, dropped and torn,
    //    each remounted and verified against the committed prefix.
    line(&mut out, "== exhaustive crash-point sweep ==");
    let params = matrix_params(seed, smoke);
    let (matrix_json, matrix_ok) = match crash_matrix(&params) {
        Ok(report) => {
            out.push_str(&report.render());
            let j = Json::obj()
                .field("total_writes", Json::u64(report.total_writes))
                .field("commits", Json::u64(report.commits))
                .field("cases", Json::u64(report.cases))
                .field("cases_replayed", Json::u64(report.cases_replayed))
                .field("cases_discarded", Json::u64(report.cases_discarded))
                .field("digest", Json::u64(u64::from(report.digest)));
            (j, true)
        }
        Err(e) => {
            line(&mut out, &format!("crash matrix FAILED: {e}"));
            (
                Json::obj().field("error", Json::str(&format!("{e}"))),
                false,
            )
        }
    };
    line(
        &mut out,
        &format!(
            "every crash point recovered to the committed prefix: {}",
            if matrix_ok { "OK" } else { "FAIL" }
        ),
    );

    // 2. The journal's price at the device: the same POSIX trace through
    //    the parameterised UFS model and through the real journaled
    //    filesystem, replayed on the same CNL device.
    out.push('\n');
    line(
        &mut out,
        "== journal overhead: model UFS vs journaled UFS on CNL/TLC ==",
    );
    let trace_mib = if smoke { 4 } else { 16 };
    let trace = synthetic_ooc_trace(trace_mib * MIB, MIB, seed);
    let cnl = SystemConfig::cnl_ufs();
    let reports = run_batch(
        vec![
            ExperimentSpec::new(&cnl, NvmKind::Tlc),
            ExperimentSpec::new(&cnl, NvmKind::Tlc).journaled_ufs(true),
        ],
        &trace,
    );
    let (model, journaled) = (&reports[0], &reports[1]);
    let overhead_pct = if model.run.total_bytes > 0 {
        nvmtypes::approx_f64(journaled.run.total_bytes)
            / nvmtypes::approx_f64(model.run.total_bytes)
            * 100.0
            - 100.0
    } else {
        0.0
    };
    let mut t = Table::new(["path", "requests", "total bytes", "MB/s"]);
    t.row([
        "model".into(),
        format!("{}", model.run.requests),
        format!("{}", model.run.total_bytes),
        format!("{:.1}", model.bandwidth_mb_s),
    ]);
    t.row([
        "journaled".into(),
        format!("{}", journaled.run.requests),
        format!("{}", journaled.run.total_bytes),
        format!("{:.1}", journaled.bandwidth_mb_s),
    ]);
    out.push_str(&t.render());
    line(
        &mut out,
        &format!("journal byte overhead: {overhead_pct:.2}% over the model path"),
    );

    // Where that overhead goes: the filesystem's own write-amplification
    // counters decompose the journaled device traffic into user bytes,
    // copy-on-write data, journal records and metadata applies.
    let wa = ufs::JournaledUfs::default()
        .transform_with_stats(&trace)
        .map(|(_, wa)| wa)
        .unwrap_or_default();
    line(
        &mut out,
        &format!(
            "write amplification: user={} cow={} journal={} apply={} bytes, {} commits → {} permille device/user",
            wa.user_bytes,
            wa.cow_bytes,
            wa.journal_bytes,
            wa.apply_bytes,
            wa.commits,
            wa.device_per_user_permille()
        ),
    );

    // 3. The solver on the real filesystem: LOBPCG over the UFS-backed
    //    panel store must match the in-core solve bit for bit, reading
    //    every panel once per operator application, in directory order.
    //    Unpreconditioned, so the in-core operator's diagonal is unused.
    out.push('\n');
    line(
        &mut out,
        "== LOBPCG over the journaled panel store vs in-memory ==",
    );
    let dim = if smoke { 80 } else { 160 };
    let h = HamiltonianSpec::tiny(dim).generate();
    let opts = LobpcgOptions {
        block_size: 3,
        max_iters: 60,
        seed,
        precondition: false,
        ..LobpcgOptions::default()
    };
    let a = Lobpcg::new(opts).solve(&h);
    let cap = TraceCapture::new();
    let (store_ok, trace_ok, b_iters) = match UfsMatrix::build(&h, 16, 0, None) {
        Ok(fsm) => {
            let b = Lobpcg::new(opts).solve(&UfsOperator::new(&fsm, &cap));
            let trace = cap.into_trace();
            let trace_ok = trace.len() == b.operator_applies * fsm.panels.len()
                && trace
                    .records
                    .iter()
                    .zip(fsm.panels.iter().cycle())
                    .all(|(r, p)| {
                        (r.op, r.file, r.offset, r.len)
                            == (IoOp::Read, fsm.file_id, p.offset, p.len)
                    });
            (a.eigenvalues == b.eigenvalues, trace_ok, b.iterations)
        }
        Err(_) => (false, false, 0),
    };
    line(
        &mut out,
        &format!(
            "dim {dim}: {} iters in memory, {} iters on UFS; eigenvalues bit-identical: {}; POSIX trace identical: {}",
            a.iterations,
            b_iters,
            if store_ok { "OK" } else { "FAIL" },
            if trace_ok { "OK" } else { "FAIL" }
        ),
    );

    let payload = Json::obj()
        .field("seed", Json::u64(seed))
        .field("smoke", Json::Bool(smoke))
        .field("crash_matrix", matrix_json)
        .field(
            "replay",
            Json::obj()
                .field("model_requests", Json::u64(model.run.requests))
                .field("model_bytes", Json::u64(model.run.total_bytes))
                .field("model_mb_s", Json::f64_3(model.bandwidth_mb_s))
                .field("journaled_requests", Json::u64(journaled.run.requests))
                .field("journaled_bytes", Json::u64(journaled.run.total_bytes))
                .field("journaled_mb_s", Json::f64_3(journaled.bandwidth_mb_s))
                .field("journal_overhead_pct", Json::f64_3(overhead_pct))
                .field(
                    "write_amp",
                    Json::obj()
                        .field("user_bytes", Json::u64(wa.user_bytes))
                        .field("cow_bytes", Json::u64(wa.cow_bytes))
                        .field("journal_bytes", Json::u64(wa.journal_bytes))
                        .field("apply_bytes", Json::u64(wa.apply_bytes))
                        .field("commits", Json::u64(wa.commits))
                        .field("recovery_replays", Json::u64(wa.recovery_replays))
                        .field(
                            "device_per_user_permille",
                            Json::u64(wa.device_per_user_permille()),
                        ),
                ),
        )
        .field(
            "solver",
            Json::obj()
                .field("dim", Json::u64(nvmtypes::u64_from_usize(dim)))
                .field("eigenvalues_identical", Json::Bool(store_ok))
                .field("trace_identical", Json::Bool(trace_ok)),
        );
    UfsReport {
        text: out,
        json: json_report(SCHEMA, payload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_study_passes_and_is_deterministic() {
        let a = render_report(42, true);
        assert!(!a.text.contains("FAIL"), "{}", a.text);
        assert!(a.json.starts_with('{'));
        assert!(a.json.contains(SCHEMA));
        // The v2 addition: the journal overhead is itemised.
        let doc = simobs::json::parse(&a.json).expect("well-formed");
        let wa = doc
            .get("replay")
            .and_then(|r| r.get("write_amp"))
            .expect("v2 carries replay.write_amp");
        for f in ["user_bytes", "cow_bytes", "journal_bytes", "apply_bytes"] {
            assert!(wa.get(f).is_some(), "missing write_amp.{f}");
        }
        let b = render_report(42, true);
        assert_eq!(a.text, b.text);
        assert_eq!(a.json, b.json);
    }
}
