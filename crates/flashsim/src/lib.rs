//! # flashsim — transaction-accurate NVM media timing simulator
//!
//! This crate is the workspace's substitute for **NANDFlashSim** (Jung et
//! al., MSST '12), the simulation framework the paper drives all its
//! evaluation with (§4.1). It models the structural hierarchy of an SSD's
//! media side at nanosecond resolution:
//!
//! ```text
//! channel bus (ONFi SDR-400 or DDR-800)
//!   └── packages            (flash bus / command overhead)
//!         └── dies          (serially-reusable: one op at a time)
//!               └── planes  (concurrent cell arrays: multi-plane ops)
//! ```
//!
//! Timing comes straight from Table 1 ([`nvmtypes::MediaTiming`]),
//! including the LSB/CSB/MSB program-latency variation of MLC/TLC NAND and
//! the PCM read-latency spread — the "intrinsic latency variation" that
//! NANDFlashSim is built around.
//!
//! The simulator executes [`DieOp`]s — multi-page, possibly multi-plane
//! operations on one die — with a resource-reservation discipline: each die
//! and each channel is a serially reusable resource with a `free_at` time,
//! and an operation's schedule is derived from `max()` recurrences over the
//! resources it needs. Cell work overlaps bus transfers exactly as in
//! pipelined NAND reads (the die senses batch *i+1* while batch *i* drains
//! over the bus).
//!
//! While executing, the simulator attributes every nanosecond of resource
//! time to the six execution-state buckets of Figure 10:
//!
//! * non-overlapped DMA (filled in by the `ssd` crate's host model),
//! * flash-bus activation (command/address/register movement),
//! * channel-bus activation (data movement on the shared bus),
//! * cell contention (waiting on a busy die),
//! * channel contention (waiting on a busy bus),
//! * cell activation (the read/program/erase itself),
//!
//! and records each die's busy time as coalesced spans, from which
//! channel-level and package-level utilization (Figure 9) are computed
//! (see [`stats`]), alongside the "bandwidth remaining" headroom metric
//! (Figures 7b/8b).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod energy;
pub mod engine;
pub mod fault;
pub mod intervals;
pub mod op;
pub mod stats;

pub use config::MediaConfig;
pub use energy::EnergyReport;
pub use engine::{DieOpOutcome, MediaSim};
pub use fault::{MediaFaultState, ReadFaultSample};
pub use op::{DieOp, OpKind};
pub use stats::{ExecBreakdown, MediaReport, PalHistogram, PalLevel};
