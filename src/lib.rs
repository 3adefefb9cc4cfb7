//! # oocnvm — compute-local NVM for out-of-core HPC
//!
//! Facade crate for the `oocnvm` workspace, a from-scratch Rust reproduction
//! of Jung et al., *Exploring the Future of Out-Of-Core Computing with
//! Compute-Local Non-Volatile Memory* (SC '13).
//!
//! The workspace builds every system the paper describes:
//!
//! * [`flashsim`] — a transaction-accurate NVM media timing simulator
//!   (the paper's NANDFlashSim substrate) with per-state execution
//!   accounting and PAL1–PAL4 parallelism classification,
//! * [`interconnect`] — PCIe 2.0/3.0, SATA-bridged, ONFi SDR/DDR and
//!   InfiniBand link models,
//! * [`ssd`] — the SSD assembly: FTL, UFS direct mode, queueing,
//! * [`oocfs`] — file-system request-transformation models (ext2/3/4,
//!   ext4-L, XFS, JFS, ReiserFS, BTRFS, GPFS striping) plus the paper's
//!   Unified File System,
//! * [`ooc`] — the out-of-core application substrate: a synthetic nuclear-CI
//!   Hamiltonian, a real LOBPCG block eigensolver and an out-of-core matrix
//!   store it streams panels from,
//! * [`ooctrace`] — two-level I/O trace capture and replay,
//! * [`simobs`] — deterministic observability: structured event tracing
//!   keyed to simulated nanoseconds, integer-only metrics, per-layer
//!   latency attribution, and Chrome-trace/Perfetto export (see
//!   `docs/OBSERVABILITY.md`),
//! * [`oocnvm_core`] — the Table-2 system configurations and the experiment
//!   driver that regenerates every table and figure of the paper.
//!
//! ## Quickstart
//!
//! ```
//! use oocnvm::prelude::*;
//!
//! // Run the paper's CNL-UFS configuration on TLC NAND against a small
//! // synthetic out-of-core read workload.
//! let config = SystemConfig::cnl_ufs();
//! let trace = synthetic_ooc_trace(16 * MIB, 1 * MIB, 42);
//! let report = ExperimentSpec::new(&config, NvmKind::Tlc).run(&trace);
//! assert!(report.bandwidth_mb_s > 0.0);
//! ```

#![forbid(unsafe_code)]

pub use flashsim;
pub use interconnect;
pub use nvmtypes;
pub use ooc;
pub use oocfs;
pub use oocnvm_bench as bench;
pub use oocnvm_core as core;
pub use ooctrace;
pub use simobs;
pub use ssd;
pub use ufs;

pub mod obsreport;
pub mod reliability;
pub mod tenants_study;
pub mod ufs_study;

/// Commonly used items, re-exported for examples and downstream users.
pub mod prelude {
    pub use nvmtypes::{HostRequest, IoOp, MediaTiming, NvmKind, SsdGeometry, GIB, KIB, MIB};
    pub use oocnvm_core::config::SystemConfig;
    pub use oocnvm_core::experiment::{run_batch, ExperimentReport, ExperimentSpec};
    pub use oocnvm_core::tenancy::{
        ArrivalProcess, TenancyReport, TenancySpec, TenantProfile, TenantSpec,
    };
    pub use oocnvm_core::workload::synthetic_ooc_trace;
    pub use ooctrace::{PosixTrace, TraceRecord};
    pub use simobs::{chrome_trace, rollup, LatencyAttribution, Layer, Tracer};
}
