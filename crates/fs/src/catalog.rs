//! The Table-2 / Figure-7 file-system catalogue.

use crate::gpfs::GpfsModel;
use crate::model::{FsModel, UfsModel};
use crate::params::FsParams;
use crate::FileSystemModel;
use ooctrace::{BlockTrace, PosixTrace};

/// Every file system the paper evaluates, in Figure 7's x-axis order.
///
/// ```
/// use nvmtypes::IoOp;
/// use oocfs::FsKind;
/// use ooctrace::{PosixTrace, TraceRecord};
///
/// let mut posix = PosixTrace::new();
/// for i in 0..4u64 {
///     posix.push(TraceRecord { t: i, op: IoOp::Read, file: 0, offset: i << 22, len: 1 << 22 });
/// }
/// // UFS passes the application's requests through unchanged...
/// let ufs = FsKind::Ufs.transform(&posix);
/// assert_eq!(ufs.len(), 4);
/// // ...GPFS stripes them into fragments.
/// let gpfs = FsKind::IonGpfs.transform(&posix);
/// assert!(gpfs.len() > 4 * 8);
/// assert_eq!(gpfs.total_bytes(), posix.total_bytes());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FsKind {
    /// GPFS on the I/O nodes (the ION-local baseline).
    IonGpfs,
    /// IBM's Journaled File System.
    Jfs,
    /// The B-tree file system (best non-tuned local FS in the paper).
    Btrfs,
    /// SGI's XFS.
    Xfs,
    /// ReiserFS.
    ReiserFs,
    /// Second extended file system — block-mapped, no journal; the worst
    /// performer in Figure 7a.
    Ext2,
    /// Third extended file system — ext2 plus journaling.
    Ext3,
    /// Fourth extended file system — extent-based.
    Ext4,
    /// ext4 "with large request sizes": the paper's tuned variant, raising
    /// the block layer's coalescing cap ("simply turning a few kernel
    /// knobs"), worth about 1 GB/s in Figure 7a.
    Ext4L,
    /// The paper's Unified File System.
    Ufs,
}

impl FsKind {
    /// All ten, in Figure-7 order.
    pub const ALL: [FsKind; 10] = [
        FsKind::IonGpfs,
        FsKind::Jfs,
        FsKind::Btrfs,
        FsKind::Xfs,
        FsKind::ReiserFs,
        FsKind::Ext2,
        FsKind::Ext3,
        FsKind::Ext4,
        FsKind::Ext4L,
        FsKind::Ufs,
    ];

    /// Figure-7 bar label.
    pub fn label(self) -> &'static str {
        match self {
            FsKind::IonGpfs => "ION-GPFS",
            FsKind::Jfs => "CNL-JFS",
            FsKind::Btrfs => "CNL-BTRFS",
            FsKind::Xfs => "CNL-XFS",
            FsKind::ReiserFs => "CNL-REISERFS",
            FsKind::Ext2 => "CNL-EXT2",
            FsKind::Ext3 => "CNL-EXT3",
            FsKind::Ext4 => "CNL-EXT4",
            FsKind::Ext4L => "CNL-EXT4-L",
            FsKind::Ufs => "CNL-UFS",
        }
    }

    /// Whether this configuration serves storage from the I/O nodes over
    /// the cluster network.
    pub fn is_ion(self) -> bool {
        matches!(self, FsKind::IonGpfs)
    }

    /// Calibrated mutation parameters for the local file systems.
    ///
    /// The shape levers, per §3.2: block-mapped ext2/ext3 chase indirect
    /// blocks with frequent synchronous metadata reads and fragment
    /// heavily; JFS/ReiserFS/XFS are extent-ish with middling allocators;
    /// ext4's extent tree keeps runs long; BTRFS's COW allocator writes
    /// (and thus lays out) the largest contiguous runs; ext4-L only raises
    /// the coalescing cap relative to ext4.
    pub fn params(self) -> Option<FsParams> {
        let p = match self {
            FsKind::IonGpfs | FsKind::Ufs => return None,
            FsKind::Ext2 => FsParams {
                name: "ext2",
                block_size: 4096,
                max_request: 128 * 1024,
                mean_extent: 224 * 1024,
                placement_entropy: 0.35,
                metadata_read_interval: Some(3 << 20),
                journal_commit_interval: None,
                journal_data: false,
                queue_depth: 4,
                seed: 0xe2,
            },
            FsKind::Ext3 => FsParams {
                name: "ext3",
                block_size: 4096,
                max_request: 128 * 1024,
                mean_extent: 288 * 1024,
                placement_entropy: 0.30,
                metadata_read_interval: Some(4 << 20),
                journal_commit_interval: Some(4 << 20),
                journal_data: false,
                queue_depth: 5,
                seed: 0xe3,
            },
            FsKind::Jfs => FsParams {
                name: "jfs",
                block_size: 4096,
                max_request: 256 * 1024,
                mean_extent: 384 * 1024,
                placement_entropy: 0.25,
                metadata_read_interval: Some(4 << 20),
                journal_commit_interval: Some(8 << 20),
                journal_data: false,
                queue_depth: 6,
                seed: 0x1f5,
            },
            FsKind::ReiserFs => FsParams {
                name: "reiserfs",
                block_size: 4096,
                max_request: 256 * 1024,
                mean_extent: 512 * 1024,
                placement_entropy: 0.22,
                metadata_read_interval: Some(4 << 20),
                journal_commit_interval: Some(8 << 20),
                journal_data: false,
                queue_depth: 6,
                seed: 0x4e15,
            },
            FsKind::Xfs => FsParams {
                name: "xfs",
                block_size: 4096,
                max_request: 256 * 1024,
                mean_extent: 1 << 20,
                placement_entropy: 0.16,
                metadata_read_interval: Some(8 << 20),
                journal_commit_interval: Some(16 << 20),
                journal_data: false,
                queue_depth: 6,
                seed: 0xf5,
            },
            FsKind::Ext4 => FsParams {
                name: "ext4",
                block_size: 4096,
                max_request: 256 * 1024,
                mean_extent: 4 << 20,
                placement_entropy: 0.10,
                metadata_read_interval: Some(10 << 20),
                journal_commit_interval: Some(8 << 20),
                journal_data: false,
                queue_depth: 7,
                seed: 0xe4,
            },
            FsKind::Btrfs => FsParams {
                name: "btrfs",
                block_size: 4096,
                max_request: 512 * 1024,
                mean_extent: 3 << 20,
                placement_entropy: 0.13,
                metadata_read_interval: Some(12 << 20),
                journal_commit_interval: None,
                journal_data: false,
                queue_depth: 7,
                seed: 0xb7f5,
            },
            FsKind::Ext4L => FsParams {
                name: "ext4-L",
                block_size: 4096,
                max_request: 1 << 20,
                mean_extent: 4 << 20,
                placement_entropy: 0.10,
                metadata_read_interval: Some(10 << 20),
                journal_commit_interval: Some(8 << 20),
                journal_data: false,
                queue_depth: 12,
                seed: 0xe4a,
            },
        };
        Some(p)
    }

    /// Builds the request mutator for this file system.
    pub fn model(self) -> Box<dyn FileSystemModel> {
        match self {
            FsKind::IonGpfs => Box::new(GpfsModel::new()),
            FsKind::Ufs => Box::new(UfsModel::new()),
            FsKind::Ext2
            | FsKind::Ext3
            | FsKind::Jfs
            | FsKind::ReiserFs
            | FsKind::Xfs
            | FsKind::Ext4
            | FsKind::Btrfs
            | FsKind::Ext4L => {
                // Every local kind carries validating parameters by
                // construction (see `all_params_validate`); should that
                // invariant ever break, the identity mapping is a
                // deterministic, non-panicking fallback.
                match self.params().map(FsModel::new) {
                    Some(Ok(m)) => Box::new(m),
                    Some(Err(_)) | None => Box::new(UfsModel::new()),
                }
            }
        }
    }

    /// Convenience: transform a POSIX trace through this file system.
    pub fn transform(self, posix: &PosixTrace) -> BlockTrace {
        self.model().transform(posix)
    }

    /// Convenience: [`FileSystemModel::transform_observed`] through this
    /// file system.
    pub fn transform_observed(self, posix: &PosixTrace, obs: &mut simobs::Tracer) -> BlockTrace {
        self.model().transform_observed(posix, obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmtypes::IoOp;
    use ooctrace::TraceRecord;

    fn seq_posix(records: u64, len: u64) -> PosixTrace {
        let mut t = PosixTrace::new();
        for i in 0..records {
            t.push(TraceRecord {
                t: i,
                op: IoOp::Read,
                file: 0,
                offset: i * len,
                len,
            });
        }
        t
    }

    #[test]
    fn all_params_validate() {
        for kind in FsKind::ALL {
            if let Some(p) = kind.params() {
                p.validate().unwrap();
            }
        }
    }

    #[test]
    fn labels_are_unique_and_prefixed() {
        let mut seen = std::collections::HashSet::new();
        for kind in FsKind::ALL {
            assert!(seen.insert(kind.label()));
            if kind.is_ion() {
                assert!(kind.label().starts_with("ION-"));
            } else {
                assert!(kind.label().starts_with("CNL-"));
            }
        }
    }

    #[test]
    fn every_model_conserves_aligned_data_bytes() {
        let posix = seq_posix(8, 4 << 20);
        for kind in FsKind::ALL {
            let out = kind.transform(&posix);
            assert_eq!(
                out.data_bytes(),
                posix.total_bytes(),
                "{} lost or duplicated data bytes",
                kind.label()
            );
        }
    }

    #[test]
    fn request_size_ordering_matches_fs_quality() {
        let posix = seq_posix(16, 4 << 20);
        let mean = |k: FsKind| k.transform(&posix).mean_request_size();
        // ext2 emits the smallest data requests; btrfs / ext4-L / UFS the
        // largest; UFS does not split at all.
        assert!(mean(FsKind::Ext2) < mean(FsKind::Xfs));
        assert!(mean(FsKind::Xfs) < mean(FsKind::Btrfs));
        assert!(mean(FsKind::Btrfs) < mean(FsKind::Ufs));
        assert_eq!(mean(FsKind::Ufs), (4 << 20) as f64);
    }

    #[test]
    fn ufs_preserves_sequentiality_gpfs_destroys_it() {
        let posix = seq_posix(16, 4 << 20);
        let ufs = FsKind::Ufs.transform(&posix);
        let gpfs = FsKind::IonGpfs.transform(&posix);
        assert!(ufs.sequentiality() > 0.95);
        assert!(gpfs.sequentiality() < 0.2);
    }

    #[test]
    fn ext2_stalls_more_than_ext4() {
        let posix = seq_posix(16, 4 << 20);
        let syncs = |k: FsKind| {
            k.transform(&posix)
                .requests
                .iter()
                .filter(|r| r.sync)
                .count()
        };
        assert!(syncs(FsKind::Ext2) > 2 * syncs(FsKind::Ext4));
        assert_eq!(syncs(FsKind::Ufs), 0);
    }
}
