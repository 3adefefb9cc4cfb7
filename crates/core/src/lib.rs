//! # oocnvm-core — the paper's system, assembled
//!
//! This crate glues the substrates together into the system the paper
//! evaluates and proposes:
//!
//! * [`config`] — the thirteen system configurations of **Table 2**
//!   (storage location, file system, bridged vs native controller, PCIe
//!   generation and lane count, NVM bus speed) and their translation into
//!   concrete simulator configurations;
//! * [`workload`] — workload builders: fast synthetic out-of-core sweeps,
//!   and the *real thing* — POSIX traces captured under the `ooc` crate's
//!   LOBPCG eigensolver streaming a synthetic nuclear-CI Hamiltonian;
//! * [`experiment`] — the experiment driver: POSIX trace → file-system
//!   mutation → SSD simulation → [`experiment::ExperimentReport`], plus
//!   parallel sweeps over configurations × media;
//! * [`tenancy`] — multi-tenant traffic studies: sets of tenants
//!   (eigensolver replays, checkpoint bursts, key-value lookups) with
//!   seeded bursty arrivals, replayed over one shared device under
//!   weighted fair queueing with per-tenant tail-latency blocks
//!   (docs/TENANCY.md);
//! * [`trends`] — the Figure-1 bandwidth-trend model (networks vs NVM
//!   devices over time) and its crossover analysis;
//! * [`cache`] — the case against treating compute-local NVM as an
//!   algorithmically-managed cache (§1): LRU replay with heat-up
//!   timelines and exact reuse-distance profiles;
//! * [`format`] — fixed-width table rendering for the figure/table
//!   regeneration binaries.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod cluster;
pub mod config;
pub mod experiment;
pub mod format;
pub mod tenancy;
pub mod trends;
pub mod workload;

pub use cluster::{degraded_curve, degraded_scaling_point, DegradedPoint};
pub use config::{Controller, Location, SystemConfig};
pub use experiment::ExperimentReport;
pub use tenancy::{
    ArrivalProcess, TenancyReport, TenancySpec, TenantProfile, TenantReport, TenantSpec,
};
pub use workload::{kv_lookup_trace, lobpcg_posix_trace, synthetic_ooc_trace};
