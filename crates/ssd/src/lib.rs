//! # ssd — the SSD assembly around the media simulator
//!
//! Where `flashsim` models dies and channels, this crate models the rest of
//! the device and its host attachment (§3.2–§3.3 of the paper):
//!
//! * [`mapping`] — the striping layout that spreads a contiguous logical
//!   page run over channels, planes, dies and packages, and its
//!   decomposition of host requests into per-die operations;
//! * [`ftl`] — the flash translation layer of a traditional SSD
//!   (firmware latency, transaction splitting, log-structured write
//!   allocation with erase-before-write and wear accounting) and the
//!   paper's **UFS direct mode**, which elevates the FTL into the host and
//!   passes application requests straight through as NVM transactions;
//! * [`device`] — per-request servicing: translation, PAQ-style
//!   out-of-order die service, host-side DMA over a
//!   [`interconnect::LinkChain`], and the run accounting (latency,
//!   attribution, PAL, non-overlapped DMA) every report is built from;
//! * [`report`] — the per-run results every figure of the paper is
//!   computed from (bandwidth, utilization, execution breakdown, PAL
//!   histogram, bandwidth remaining);
//! * [`qos`] — the device's one request loop: closed-loop issue at each
//!   tenant's queue depth with sync barriers, weighted fair queueing
//!   across tenants sharing one device, FIFO admission control, and
//!   exact per-tenant latency and media attribution. A single-job run is
//!   the one-tenant case (docs/TENANCY.md);
//! * [`recovery`] — device-side fault recovery: the escalating ECC
//!   read-retry ladder, program/erase retries and bad-block retirement,
//!   driven by the deterministic fault plan in `nvmtypes::fault` (see
//!   docs/FAULT_MODEL.md);
//! * [`blockdev`] — the stable sector-addressed [`blockdev::BlockDevice`]
//!   trait the UFS filesystem mounts on, plus [`blockdev::SimBlockDevice`],
//!   a deterministic in-memory device with power-loss and torn-write
//!   semantics driven by `nvmtypes::fault::CrashPoint`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blockdev;
pub mod config;
pub mod device;
pub mod ftl;
pub mod mapping;
pub mod qos;
pub mod recovery;
pub mod report;

pub use blockdev::{BlockDevice, SimBlockDevice, SECTOR_BYTES, SECTOR_USIZE};
pub use config::{FtlMode, SsdConfig};
pub use device::SsdDevice;
pub use mapping::{DieRun, Dim, StripeMap};
pub use qos::{QosPolicy, SharedRunReport, TenantRunStats, TenantWorkload};
pub use report::{LatencyStats, ReliabilityStats, RunReport};
