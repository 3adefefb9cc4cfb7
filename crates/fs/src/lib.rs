//! # oocfs — file-system request-transformation models
//!
//! The paper's §3.2 observation: the file system is a *request mutator*.
//! The out-of-core application emits large, sequential POSIX reads; what
//! reaches the SSD depends on the file system's block size, its allocator's
//! ability to keep extents contiguous, the block layer's request-coalescing
//! cap, metadata lookups (block-mapped file systems chase indirect blocks
//! with small synchronous reads), journal commits, and — for a parallel
//! file system like GPFS — striping, which "divides up what was previously
//! largely sequential" (§4.2, Figure 6).
//!
//! Each model here consumes a [`ooctrace::PosixTrace`] and emits the
//! [`ooctrace::BlockTrace`] the device actually sees, exactly mirroring the
//! paper's methodology of replaying POSIX traces through a real file system
//! to capture device-level block traces.
//!
//! The catalogue covers every file system in Table 2 / Figure 7:
//! ext2, ext3, ext4, the tuned "ext4-L" (large coalesced requests), XFS,
//! JFS, ReiserFS, BTRFS, GPFS (ION-remote, striped), and the paper's
//! **UFS**, which passes application requests through unchanged as raw NVM
//! transactions.
//!
//! The per-file-system parameters are calibrated so the *relative ordering*
//! of Figure 7a reproduces; they are data ([`FsParams`]), not code, and the
//! calibration is documented in `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod gpfs;
pub mod model;
pub mod params;

pub use catalog::FsKind;
pub use gpfs::GpfsModel;
pub use model::{FsModel, UfsModel};
pub use params::FsParams;

use ooctrace::{BlockTrace, PosixTrace};

/// Anything that can mutate a POSIX-level trace into a device-level trace.
pub trait FileSystemModel {
    /// Display name (Figure 7 x-axis label, without the CNL-/ION- prefix).
    fn name(&self) -> &'static str;
    /// Transforms the application's POSIX trace into the block trace the
    /// device sees. Deterministic: equal inputs produce equal outputs.
    fn transform(&self, posix: &PosixTrace) -> BlockTrace;

    /// [`FileSystemModel::transform`] with an observer attached: when
    /// `obs` is enabled, emits one [`simobs::Layer::Fs`] marker (named
    /// after the model, at logical time 0 — the mutation happens before
    /// the device clock starts) summarising how the file system reshaped
    /// the request stream, plus request counters. The tracer reads the
    /// finished trace only, so observing cannot change the transform.
    fn transform_observed(&self, posix: &PosixTrace, obs: &mut simobs::Tracer) -> BlockTrace {
        let block = self.transform(posix);
        if obs.enabled() {
            let requests = nvmtypes::u64_from_usize(block.len());
            let syncs = nvmtypes::u64_from_usize(block.requests.iter().filter(|r| r.sync).count());
            obs.instant(
                simobs::Layer::Fs,
                self.name(),
                0,
                [("requests", requests), ("sync", syncs)],
            );
            obs.count(simobs::Metric::FsRequests, requests);
            obs.count(simobs::Metric::FsSyncRequests, syncs);
        }
        block
    }
}
