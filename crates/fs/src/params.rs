//! Tunable description of one local file system's request mutation.

use nvmtypes::SimError;

/// How a local file system reshapes application I/O on its way to the
/// device. Every effect the paper calls out in §3.2 has a knob here:
///
/// * *"all of the examined file systems divide the storage space into
///   small units called blocks"* — [`FsParams::block_size`];
/// * *"artificial limits are imposed on how large the size of the
///   coalesced request can be"* — [`FsParams::max_request`] (the knob the
///   paper turns to make ext4-L);
/// * allocator quality — [`FsParams::mean_extent`] (how long physically
///   contiguous runs are) and [`FsParams::placement_entropy`] (how far a
///   broken extent jumps);
/// * *"metadata and/or journalling accesses ... in the midst of the rest
///   of the data accesses"* — [`FsParams::metadata_read_interval`] and
///   [`FsParams::journal_commit_interval`], both synchronous;
/// * how well the stack keeps the device's queue fed —
///   [`FsParams::queue_depth`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FsParams {
    /// Display name.
    pub name: &'static str,
    /// File-system block size in bytes (granularity of allocation and of
    /// request splitting before coalescing).
    pub block_size: u32,
    /// Maximum bytes the block layer coalesces into one device request.
    pub max_request: u32,
    /// Mean length of a physically contiguous extent, bytes. Longer
    /// extents mean the allocator preserves application sequentiality.
    pub mean_extent: u64,
    /// Fraction of new extents placed far away (allocator groups/AGs,
    /// COW relocation) rather than immediately after the previous extent.
    pub placement_entropy: f64,
    /// Inject one small synchronous metadata read every this many data
    /// bytes (block-mapped file systems chasing indirect blocks do this
    /// constantly; extent trees rarely). `None` disables.
    pub metadata_read_interval: Option<u64>,
    /// Inject one synchronous journal commit write every this many
    /// *written* data bytes. `None` for non-journaling file systems.
    pub journal_commit_interval: Option<u64>,
    /// Full data journaling (`data=journal`): every written byte is first
    /// written to the journal region, doubling the write volume — the
    /// safest and slowest of ext3/4's journal modes. `false` models the
    /// default ordered mode, which journals metadata only.
    pub journal_data: bool,
    /// Requests the stack keeps outstanding at the device.
    pub queue_depth: u32,
    /// Seed component so different file systems fragment differently.
    pub seed: u64,
}

impl FsParams {
    /// Sanity-checks the parameters.
    pub fn validate(&self) -> Result<(), SimError> {
        let field = |f: &str| format!("{}.{f}", self.name);
        if self.block_size == 0 || !self.block_size.is_power_of_two() {
            return Err(SimError::invalid_config(
                field("block_size"),
                "must be a power of two",
            ));
        }
        if self.max_request < self.block_size {
            return Err(SimError::invalid_config(
                field("max_request"),
                "below block_size",
            ));
        }
        if self.mean_extent < u64::from(self.block_size) {
            return Err(SimError::invalid_config(
                field("mean_extent"),
                "below block_size",
            ));
        }
        if !(0.0..=1.0).contains(&self.placement_entropy) {
            return Err(SimError::invalid_config(
                field("placement_entropy"),
                "out of [0,1]",
            ));
        }
        if self.queue_depth == 0 {
            return Err(SimError::invalid_config(
                field("queue_depth"),
                "must be positive",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> FsParams {
        FsParams {
            name: "test",
            block_size: 4096,
            max_request: 131_072,
            mean_extent: 262_144,
            placement_entropy: 0.3,
            metadata_read_interval: Some(1 << 20),
            journal_commit_interval: None,
            journal_data: false,
            queue_depth: 8,
            seed: 1,
        }
    }

    #[test]
    fn valid_params_pass() {
        base().validate().unwrap();
    }

    #[test]
    fn rejects_non_power_of_two_block() {
        let mut p = base();
        p.block_size = 5000;
        assert!(p.validate().is_err());
    }

    #[test]
    fn rejects_tiny_max_request() {
        let mut p = base();
        p.max_request = 512;
        assert!(p.validate().is_err());
    }

    #[test]
    fn rejects_bad_entropy() {
        let mut p = base();
        p.placement_entropy = 1.5;
        assert!(p.validate().is_err());
    }
}
