//! Device-level configuration.

use crate::mapping::{Dim, DEFAULT_ORDER};
use flashsim::MediaConfig;
use interconnect::LinkChain;
use nvmtypes::{FaultPlan, Nanos};

/// How logical requests are translated to NVM transactions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FtlMode {
    /// A conventional in-device flash translation layer (Figure 4a):
    /// firmware latency per request, internal transaction-size splitting,
    /// log-structured write allocation with erase-before-write.
    Traditional {
        /// Firmware processing latency per host request, ns.
        firmware_ns: Nanos,
        /// Largest contiguous NVM transaction the controller issues;
        /// bigger requests are split and each split pays `firmware_ns`.
        max_transaction_bytes: u64,
    },
    /// The paper's Unified File System direct mode (Figure 4b): the FTL's
    /// roles are elevated to the host, requests pass through unsplit as raw
    /// NVM transactions with negligible device-side processing.
    Ufs {
        /// Residual per-request processing latency, ns.
        firmware_ns: Nanos,
    },
}

impl FtlMode {
    /// A typical traditional FTL: 20 µs of firmware work per request,
    /// 2 MiB internal transactions (the controller's DMA segment limit).
    pub fn traditional_default() -> FtlMode {
        FtlMode::Traditional {
            firmware_ns: 20_000,
            max_transaction_bytes: 2 << 20,
        }
    }

    /// UFS direct mode with 2 µs residual processing.
    pub fn ufs_default() -> FtlMode {
        FtlMode::Ufs { firmware_ns: 2_000 }
    }

    /// Per-request firmware latency.
    pub fn firmware_ns(&self) -> Nanos {
        match *self {
            FtlMode::Traditional { firmware_ns, .. } | FtlMode::Ufs { firmware_ns } => firmware_ns,
        }
    }

    /// Internal transaction-size cap, if any.
    pub fn max_transaction_bytes(&self) -> Option<u64> {
        match *self {
            FtlMode::Traditional {
                max_transaction_bytes,
                ..
            } => Some(max_transaction_bytes),
            FtlMode::Ufs { .. } => None,
        }
    }
}

/// Full configuration of a simulated SSD and its host attachment.
#[derive(Debug, Clone)]
pub struct SsdConfig {
    /// Media side (geometry, Table-1 timing, channel bus).
    pub media: MediaConfig,
    /// The data path between device buffers and the application's memory
    /// (PCIe; plus SATA bridge and/or cluster fabric hops as configured).
    pub host: LinkChain,
    /// Native-command-queueing depth the device sustains; the effective
    /// queue depth of a run is `min(ncq_depth, workload queue depth)`.
    pub ncq_depth: u32,
    /// Translation mode.
    pub ftl: FtlMode,
    /// Physical striping order.
    pub stripe_order: [Dim; 4],
    /// Physically-addressed queueing (PAQ, the paper's [22]): when `true`,
    /// die-ops of concurrent requests are serviced out of order across
    /// dies; when `false`, media service is serialised per request.
    pub paq: bool,
    /// Fault-injection plan. Defaults to [`FaultPlan::none`], under
    /// which every run is byte-identical to a build without fault
    /// hooks (pinned by `tests/determinism.rs`).
    pub fault_plan: FaultPlan,
}

impl SsdConfig {
    /// A device with defaults matching the paper's base CNL setup.
    pub fn new(media: MediaConfig, host: LinkChain) -> SsdConfig {
        SsdConfig {
            media,
            host,
            ncq_depth: 32,
            ftl: FtlMode::traditional_default(),
            stripe_order: DEFAULT_ORDER,
            paq: true,
            fault_plan: FaultPlan::none(),
        }
    }

    /// Switches the device to UFS direct mode.
    pub fn with_ufs(mut self) -> SsdConfig {
        self.ftl = FtlMode::ufs_default();
        self
    }

    /// Overrides the translation mode.
    pub fn with_ftl(mut self, ftl: FtlMode) -> SsdConfig {
        self.ftl = ftl;
        self
    }

    /// Disables PAQ (for the queueing ablation).
    pub fn without_paq(mut self) -> SsdConfig {
        self.paq = false;
        self
    }

    /// Installs a fault-injection plan (see `nvmtypes::fault`).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> SsdConfig {
        self.fault_plan = plan;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use interconnect::{pcie, PcieGen};
    use nvmtypes::{BusTiming, NvmKind};

    fn cfg() -> SsdConfig {
        let media = MediaConfig::tiny(
            NvmKind::Tlc,
            BusTiming {
                name: "t",
                bytes_per_ns: 0.4,
            },
        );
        SsdConfig::new(media, LinkChain::single(pcie(PcieGen::Gen2, 8)))
    }

    #[test]
    fn defaults() {
        let c = cfg();
        assert!(c.paq);
        assert_eq!(c.ncq_depth, 32);
        assert_eq!(c.ftl.max_transaction_bytes(), Some(2 << 20));
    }

    #[test]
    fn ufs_mode_removes_split_and_most_firmware() {
        let c = cfg().with_ufs();
        assert_eq!(c.ftl.max_transaction_bytes(), None);
        assert!(c.ftl.firmware_ns() < FtlMode::traditional_default().firmware_ns());
    }

    #[test]
    fn builders_compose() {
        let c = cfg().with_ufs().without_paq();
        assert!(!c.paq);
        assert!(matches!(c.ftl, FtlMode::Ufs { .. }));
    }
}
