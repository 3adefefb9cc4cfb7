//! # oocnvm-bench — figure and table regeneration
//!
//! One binary per table/figure of the paper (run with
//! `cargo run --release -p oocnvm-bench --bin <name>`):
//!
//! | binary     | regenerates |
//! |------------|-------------|
//! | `table1`   | Table 1 — NVM latency matrix |
//! | `table2`   | Table 2 — evaluated configurations |
//! | `fig1`     | Figure 1 — network vs NVM bandwidth trends |
//! | `fig6`     | Figure 6 — POSIX vs sub-GPFS access patterns |
//! | `fig7`     | Figures 7a/7b — bandwidth achieved / remaining per FS |
//! | `fig8`     | Figures 8a/8b — device-improvement bandwidths |
//! | `fig9`     | Figures 9a/9b — channel / package utilization |
//! | `fig10`    | Figures 10a–10d — execution breakdown + parallelism |
//! | `headline` | §7's headline ratios (108% / 52% / 250% / 10.3x) |
//! | `calibrate`| the full sweep in one table (development aid) |
//!
//! The extension studies (`ablations`, `cache_argument`, `energy`,
//! `scaling`) and `tracetool` live here too. Host-time measurement is
//! the standalone `benchmark/` package's job.

// The binaries print; the library renders strings for them.
#![deny(clippy::print_stdout, clippy::print_stderr)]

use nvmtypes::SimError;
use oocnvm_core::workload::{synthetic_ooc_trace, synthetic_shape};
use ooctrace::PosixTrace;
use simobs::json::Json;
use std::env::VarError;

pub mod cli;
pub mod headline;
pub mod sweep;

/// The standard experiment workload: a read-dominant out-of-core panel
/// sweep in 6 MiB records. Size defaults to 256 MiB and can be scaled
/// with the `OOCNVM_TRACE_MIB` environment variable (the paper's traces
/// cover tens of GiB; bandwidths converge well before that).
///
/// # Errors
/// [`SimError::InvalidConfig`] when `OOCNVM_TRACE_MIB` is set to
/// something other than a workload [`synthetic_shape`] accepts: not a
/// number, zero, a byte count that overflows, or too many records.
pub fn standard_trace() -> Result<PosixTrace, SimError> {
    let bad = |reason: String| SimError::invalid_config("OOCNVM_TRACE_MIB", reason);
    #[expect(
        clippy::disallowed_methods,
        reason = "the harness's one knob sizes the workload; check.sh runs the figures with it unset"
    )]
    let mib = match std::env::var("OOCNVM_TRACE_MIB") {
        Err(VarError::NotPresent) => 256,
        Ok(v) => v
            .parse::<u64>()
            .map_err(|_| bad(format!("{v:?} is not a MiB count")))?,
        Err(VarError::NotUnicode(v)) => return Err(bad(format!("{v:?} is not a MiB count"))),
    };
    let (total, record) = synthetic_shape(mib, 6 * 1024).map_err(|e| match e {
        SimError::InvalidConfig { reason, .. } => bad(reason),
        other @ (SimError::Parse { .. }
        | SimError::WorkerPanic { .. }
        | SimError::ChannelClosed { .. }
        | SimError::ResourceExhausted { .. }
        | SimError::Corruption { .. }
        | SimError::PowerLoss { .. }) => other,
    })?;
    Ok(synthetic_ooc_trace(total, record, 42))
}

/// Renders a figure banner; callers print it (library code never prints
/// — `clippy::print_stdout`).
#[must_use]
pub fn banner(id: &str, caption: &str) -> String {
    let rule = "==============================================================";
    format!("{rule}\n{id} — {caption}\n{rule}")
}

/// Renders a machine-readable report in the workspace's versioned-JSON
/// convention: a leading `"format": "<schema>"` tag followed by the
/// payload's fields, through simobs's canonical renderer (insertion-
/// ordered keys, pre-rendered numbers), so equal reports render
/// byte-identically. Every `--json` bin emits through this one helper.
#[must_use]
pub fn json_report(schema: &str, payload: Json) -> String {
    simobs::json::report(schema, payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmtypes::MIB;

    #[test]
    fn standard_trace_is_read_only_and_sized() {
        let t = standard_trace().expect("the default size is valid");
        assert!(t.total_bytes() >= 256 * MIB);
        assert!((t.read_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn json_report_prepends_the_schema_tag() {
        let payload = Json::obj().field("x", Json::u64(1));
        let doc = json_report("oocnvm.test/1", payload);
        assert_eq!(doc, r#"{"format":"oocnvm.test/1","x":1}"#);
        // Non-object payloads nest under "payload" instead of merging.
        let arr = json_report("oocnvm.test/1", Json::Arr(vec![Json::u64(2)]));
        assert_eq!(arr, r#"{"format":"oocnvm.test/1","payload":[2]}"#);
    }
}
