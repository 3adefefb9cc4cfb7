//! # simobs — deterministic observability for the oocnvm simulator
//!
//! The paper's analysis lives on *attribution*: Figure 9's utilizations
//! and Figure 10's execution-state breakdown say where simulated time
//! goes. This crate is the shared layer that makes such attribution a
//! first-class, machine-readable output of every run instead of a
//! hand-rolled per-crate tally:
//!
//! * **tracing** ([`Tracer`], [`sink`]) — structured spans and instants
//!   keyed to *simulated* nanoseconds (never wall-clock), collected into
//!   a bounded ring buffer ([`Tracer::ring`]); a disabled tracer
//!   ([`Tracer::off`]) skips every event before any argument is
//!   materialised, so tracing compiles to a branch on the hot path and
//!   nothing more.
//! * **metrics** ([`metrics`]) — the [`Metric`] catalogue, one variant
//!   per metric the simulator records, and its integer-only counters,
//!   gauges and fixed-bucket histograms kept in one slot per variant. No
//!   floats, no wall clocks: equal runs produce equal metrics byte for
//!   byte.
//! * **hdr** ([`hdr`]) — precision log-bucketed latency histograms
//!   (HDR-style) with exact p50/p90/p99/p999 extraction and an
//!   associative merge, so per-shard distributions combine
//!   byte-identically at any thread count (`docs/PROFILING.md`).
//! * **attribution** ([`attrib`]) — the per-layer latency decomposition:
//!   each request's end-to-end nanoseconds split into queue / die /
//!   channel / link / fs-overhead / recovery components that sum
//!   *exactly* (integer arithmetic, no rounding residue).
//! * **export** ([`export`], [`json`]) — a Chrome trace-event JSON
//!   writer (loadable in Perfetto / `chrome://tracing`) and a compact
//!   text flamegraph-style rollup, plus a tiny deterministic JSON tree
//!   used by the report binaries (`obsreport`, `headline --json`,
//!   `reliability --json`).
//!
//! ## The determinism contract
//!
//! Enabling tracing must not change any simulation result byte (observer
//! effect = zero), and the same seed must produce byte-identical trace
//! output. Both halves are pinned by `tests/determinism.rs` and
//! `tests/obs.rs` in the workspace root; the crate holds its side of the
//! bargain by construction:
//!
//! * a [`Tracer`] only ever *reads* values the simulator already
//!   computed — it draws no randomness and owns no clock;
//! * every container is ordered (metric slots in catalogue order, the
//!   event ring a [`std::collections::VecDeque`]), every metric is an integer, and
//!   export renders timestamps with integer division — no float
//!   formatting wobble can reach the output.
//!
//! See `docs/OBSERVABILITY.md` for the event taxonomy and span-naming
//! convention.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attrib;
pub mod event;
pub mod export;
pub mod hdr;
pub mod json;
pub mod metrics;
pub mod sink;

pub use attrib::{LatencyAttribution, RequestBreakdown};
pub use event::{Event, EventKind, Layer};
pub use export::{chrome_trace, rollup};
pub use hdr::{HdrHistogram, HdrPercentiles};
pub use metrics::{FixedHistogram, Metric, MetricSet};
pub use sink::{TraceLog, Tracer};
