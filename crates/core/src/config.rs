//! Table 2: the evaluated system configurations.

use flashsim::MediaConfig;
use interconnect::{
    infiniband_qdr_4x, pcie, sata_6g_bridge, Link, LinkChain, NvmBusSpeed, PcieGen,
};
use nvmtypes::NvmKind;
use oocfs::FsKind;
use ssd::{FtlMode, SsdConfig, SsdDevice};

/// Where the SSD lives relative to the computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Location {
    /// On the I/O nodes, reached over the cluster fabric (the prior-work
    /// baseline of Figure 2a).
    IonRemote,
    /// In the compute node, on its PCIe root complex (the paper's
    /// proposal, Figure 2b).
    ComputeLocal,
}

/// SSD internal controller architecture (Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Controller {
    /// SATA-era NAND controllers behind a PCIe endpoint: every request
    /// crosses a SATA-6G hop with 8b/10b framing (Figure 5a).
    Bridged,
    /// NAND controllers as native PCIe endpoints behind a switch
    /// (Figure 5b).
    Native,
}

/// One row of Table 2.
///
/// ```
/// use nvmtypes::{NvmKind, MIB};
/// use oocnvm_core::config::SystemConfig;
/// use oocnvm_core::experiment::ExperimentSpec;
/// use oocnvm_core::workload::synthetic_ooc_trace;
///
/// let trace = synthetic_ooc_trace(16 * MIB, 4 * MIB, 1);
/// let ion = ExperimentSpec::new(&SystemConfig::ion_gpfs(), NvmKind::Slc).run(&trace);
/// let cnl = ExperimentSpec::new(&SystemConfig::cnl_ufs(), NvmKind::Slc).run(&trace);
/// assert!(cnl.bandwidth_mb_s > ion.bandwidth_mb_s);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SystemConfig {
    /// Row label as the figures print it (e.g. `"CNL-NATIVE-16"`).
    pub label: &'static str,
    /// Storage location.
    pub location: Location,
    /// File system mutating the application's requests.
    pub fs: FsKind,
    /// Controller architecture.
    pub controller: Controller,
    /// PCIe generation of the host interface.
    pub pcie_gen: PcieGen,
    /// PCIe lanes.
    pub lanes: u32,
    /// NVM channel-bus speed.
    pub bus: NvmBusSpeed,
}

impl SystemConfig {
    /// The ION-remote GPFS baseline (bridged PCIe 2.0 x8, ONFi-3).
    pub fn ion_gpfs() -> SystemConfig {
        SystemConfig {
            label: "ION-GPFS",
            location: Location::IonRemote,
            fs: FsKind::IonGpfs,
            controller: Controller::Bridged,
            pcie_gen: PcieGen::Gen2,
            lanes: 8,
            bus: NvmBusSpeed::Sdr400,
        }
    }

    /// A compute-local configuration with a traditional file system on the
    /// base hardware (bridged PCIe 2.0 x8, ONFi-3).
    pub fn cnl(fs: FsKind) -> SystemConfig {
        assert!(!fs.is_ion(), "use ion_gpfs() for the ION configuration");
        SystemConfig {
            label: fs.label(),
            location: Location::ComputeLocal,
            fs,
            controller: Controller::Bridged,
            pcie_gen: PcieGen::Gen2,
            lanes: 8,
            bus: NvmBusSpeed::Sdr400,
        }
    }

    /// CNL-UFS: the paper's software fix on today's hardware.
    pub fn cnl_ufs() -> SystemConfig {
        SystemConfig::cnl(FsKind::Ufs)
    }

    /// CNL-BRIDGE-16: UFS with 16 PCIe-2.0 lanes, still bridged —
    /// demonstrating that lane count alone barely helps (§4.4).
    pub fn cnl_bridge16() -> SystemConfig {
        SystemConfig {
            label: "CNL-BRIDGE-16",
            lanes: 16,
            ..SystemConfig::cnl_ufs()
        }
    }

    /// CNL-NATIVE-8: UFS on a native PCIe-3.0 x8 controller with the
    /// DDR-800 NVM bus.
    pub fn cnl_native8() -> SystemConfig {
        SystemConfig {
            label: "CNL-NATIVE-8",
            controller: Controller::Native,
            pcie_gen: PcieGen::Gen3,
            lanes: 8,
            bus: NvmBusSpeed::Ddr800,
            ..SystemConfig::cnl_ufs()
        }
    }

    /// CNL-NATIVE-16: the full future stack — native PCIe 3.0 x16,
    /// DDR-800 NVM bus, UFS.
    pub fn cnl_native16() -> SystemConfig {
        SystemConfig {
            label: "CNL-NATIVE-16",
            lanes: 16,
            ..SystemConfig::cnl_native8()
        }
    }

    /// All thirteen rows of Table 2, in the paper's order.
    pub fn table2() -> Vec<SystemConfig> {
        let mut rows = vec![SystemConfig::ion_gpfs()];
        for fs in [
            FsKind::Jfs,
            FsKind::Btrfs,
            FsKind::Xfs,
            FsKind::ReiserFs,
            FsKind::Ext2,
            FsKind::Ext3,
            FsKind::Ext4,
            FsKind::Ext4L,
            FsKind::Ufs,
        ] {
            rows.push(SystemConfig::cnl(fs));
        }
        rows.push(SystemConfig::cnl_bridge16());
        rows.push(SystemConfig::cnl_native8());
        rows.push(SystemConfig::cnl_native16());
        rows
    }

    /// The ten configurations of Figure 7 (file-system study).
    pub fn figure7() -> Vec<SystemConfig> {
        SystemConfig::table2().into_iter().take(10).collect()
    }

    /// The four configurations of Figure 8 (device study).
    pub fn figure8() -> Vec<SystemConfig> {
        vec![
            SystemConfig::cnl_ufs(),
            SystemConfig::cnl_bridge16(),
            SystemConfig::cnl_native8(),
            SystemConfig::cnl_native16(),
        ]
    }

    /// The host-side data path of this configuration.
    pub fn host_chain(&self) -> LinkChain {
        let mut chain = LinkChain::default();
        if self.controller == Controller::Bridged {
            // Eight internal SATA-era controllers behind the endpoint.
            chain = chain.then(sata_6g_bridge(8));
        }
        chain = chain.then(pcie(self.pcie_gen, self.lanes));
        if self.location == Location::IonRemote {
            // The cluster fabric plus the parallel-file-system
            // client/server software path (NSD protocol, kernel copies).
            chain = chain.then(infiniband_qdr_4x());
            chain = chain.then(Link::from_mb_s("GPFS-NSD", 1750.0, 5_000));
        }
        chain
    }

    /// Concrete simulator configuration for a given NVM medium.
    pub fn device(&self, kind: NvmKind) -> SsdDevice {
        self.device_with_faults(kind, nvmtypes::FaultPlan::none())
    }

    /// Like [`SystemConfig::device`], but with a fault plan installed.
    /// `FaultPlan::none()` produces a device byte-identical to
    /// [`SystemConfig::device`].
    pub fn device_with_faults(&self, kind: NvmKind, plan: nvmtypes::FaultPlan) -> SsdDevice {
        let media = MediaConfig::paper(kind, self.bus.timing());
        let ftl = if self.fs == FsKind::Ufs {
            FtlMode::ufs_default()
        } else {
            FtlMode::traditional_default()
        };
        let cfg = SsdConfig::new(media, self.host_chain())
            .with_ftl(ftl)
            .with_fault_plan(plan);
        SsdDevice::new(cfg)
    }

    /// Table-2 style row text.
    pub fn table2_row(&self) -> String {
        format!(
            "{:<14} {:<8} {:>4}/{:<10} {:>2}",
            self.label,
            match self.controller {
                Controller::Bridged => "Bridged",
                Controller::Native => "Native",
            },
            match self.pcie_gen {
                PcieGen::Gen2 => "2.0",
                PcieGen::Gen3 => "3.0",
                PcieGen::Gen4 => "4.0",
            },
            self.bus.label(),
            self.lanes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_has_thirteen_rows() {
        let rows = SystemConfig::table2();
        assert_eq!(rows.len(), 13);
        assert_eq!(rows[0].label, "ION-GPFS");
        assert_eq!(rows[12].label, "CNL-NATIVE-16");
    }

    #[test]
    fn figure_subsets() {
        assert_eq!(SystemConfig::figure7().len(), 10);
        let f8: Vec<_> = SystemConfig::figure8().iter().map(|c| c.label).collect();
        assert_eq!(
            f8,
            ["CNL-UFS", "CNL-BRIDGE-16", "CNL-NATIVE-8", "CNL-NATIVE-16"]
        );
    }

    #[test]
    fn host_chains_have_expected_bottlenecks() {
        // Base CNL: PCIe 2.0 x8 (4 GB/s) under the 4.8 GB/s bridge.
        let base = SystemConfig::cnl_ufs().host_chain().effective();
        assert!((base.bytes_per_ns - 4.0).abs() < 1e-9);
        // BRIDGE-16 doubles lanes: now the SATA bridge aggregate binds.
        let b16 = SystemConfig::cnl_bridge16().host_chain().effective();
        assert!((b16.bytes_per_ns - 4.8).abs() < 1e-9);
        // NATIVE-16 runs at PCIe 3.0 x16.
        let n16 = SystemConfig::cnl_native16().host_chain().effective();
        assert!(n16.bytes_per_ns > 15.0);
        // ION is capped by the GPFS/NSD software path.
        let ion = SystemConfig::ion_gpfs().host_chain().effective();
        assert!(ion.bytes_per_ns < 1.8);
    }

    #[test]
    fn ufs_rows_use_ufs_translation() {
        for cfg in SystemConfig::figure8() {
            assert!(matches!(
                cfg.device(NvmKind::Tlc).config().ftl,
                FtlMode::Ufs { .. }
            ));
        }
        let ext4 = SystemConfig::cnl(FsKind::Ext4);
        assert!(matches!(
            ext4.device(NvmKind::Tlc).config().ftl,
            FtlMode::Traditional { .. }
        ));
    }

    #[test]
    #[should_panic(expected = "ion_gpfs")]
    fn cnl_rejects_gpfs() {
        SystemConfig::cnl(FsKind::IonGpfs);
    }

    #[test]
    fn table2_rows_render() {
        for cfg in SystemConfig::table2() {
            let row = cfg.table2_row();
            assert!(row.contains(cfg.label));
        }
    }
}
