//! # ooctrace — two-level I/O trace capture and replay
//!
//! The paper's tracing methodology (§4.2) captures the out-of-core
//! application's I/O at two levels:
//!
//! 1. **POSIX-level** traces directly under the application (before the file
//!    system) on the compute nodes, and
//! 2. **device-level block** traces under the file system, which are what a
//!    storage simulator consumes.
//!
//! This crate provides both representations ([`PosixTrace`],
//! [`BlockTrace`]), a thread-safe [`TraceCapture`] sink that the `ooc`
//! crate's out-of-core store writes into while the eigensolver runs, access
//! pattern statistics (sequentiality, request-size distribution), and the
//! `(sequence, address)` scatter data behind Figure 6.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod capture;
pub mod record;
pub mod replay;
pub mod stats;

pub use block::BlockTrace;
pub use capture::{TraceCapture, TraceSink};
pub use record::{PosixTrace, TraceRecord};
pub use replay::{dilate_time, filter_file, merge_clients, split_at_bytes};
pub use stats::{AccessStats, ScatterPoint, SizeHistogram};
