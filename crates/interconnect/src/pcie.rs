//! PCI Express link models.
//!
//! The paper's second device-level observation (§3.3): PCIe 2.0 runs at
//! 5 GT/s per lane with the same 8b/10b encoding as SATA — a needless 20%
//! line overhead — while PCIe 3.0 runs 8 GT/s per lane with 128b/130b
//! encoding (~1.5% overhead). Typical contemporary PCIe SSDs used only 4–8
//! of the 16 available lanes.

use crate::link::Link;

/// PCIe generation (encoding + per-lane signalling rate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PcieGen {
    /// PCIe 2.0: 5 GT/s per lane, 8b/10b encoding.
    Gen2,
    /// PCIe 3.0: 8 GT/s per lane, 128b/130b encoding.
    Gen3,
    /// PCIe 4.0: 16 GT/s per lane, 128b/130b encoding (a further-future
    /// what-if beyond the paper's horizon).
    Gen4,
}

impl PcieGen {
    /// Raw signalling rate per lane in gigatransfers (bits) per second.
    pub fn gt_per_s(self) -> f64 {
        match self {
            PcieGen::Gen2 => 5.0,
            PcieGen::Gen3 => 8.0,
            PcieGen::Gen4 => 16.0,
        }
    }

    /// Encoding efficiency: payload bits per line bit.
    pub fn encoding_efficiency(self) -> f64 {
        match self {
            PcieGen::Gen2 => 8.0 / 10.0,
            PcieGen::Gen3 | PcieGen::Gen4 => 128.0 / 130.0,
        }
    }

    /// Effective payload bytes per nanosecond per lane.
    pub fn lane_bytes_per_ns(self) -> f64 {
        // GT/s are bits; /8 for bytes; 1 Gb/s == 0.125 B/ns.
        self.gt_per_s() * self.encoding_efficiency() / 8.0
    }

    /// Display name.
    pub fn label(self) -> &'static str {
        match self {
            PcieGen::Gen2 => "PCIe2.0",
            PcieGen::Gen3 => "PCIe3.0",
            PcieGen::Gen4 => "PCIe4.0",
        }
    }
}

/// Builds a PCIe link of `lanes` lanes.
///
/// Per-request cost covers DMA descriptor setup and completion signalling;
/// it is the same for both generations (the paper treats re-encoding
/// *computation* time as marginal and focuses on bandwidth).
pub fn pcie(gen: PcieGen, lanes: u32) -> Link {
    assert!(
        matches!(lanes, 1 | 2 | 4 | 8 | 16),
        "PCIe lane widths are powers of two up to 16"
    );
    let name: &'static str = match (gen, lanes) {
        (PcieGen::Gen2, 4) => "PCIe2.0x4",
        (PcieGen::Gen2, 8) => "PCIe2.0x8",
        (PcieGen::Gen2, 16) => "PCIe2.0x16",
        (PcieGen::Gen3, 4) => "PCIe3.0x4",
        (PcieGen::Gen3, 8) => "PCIe3.0x8",
        (PcieGen::Gen3, 16) => "PCIe3.0x16",
        (PcieGen::Gen4, 4) => "PCIe4.0x4",
        (PcieGen::Gen4, 8) => "PCIe4.0x8",
        (PcieGen::Gen4, 16) => "PCIe4.0x16",
        (PcieGen::Gen2, _) => "PCIe2.0",
        (PcieGen::Gen3, _) => "PCIe3.0",
        (PcieGen::Gen4, _) => "PCIe4.0",
    };
    Link {
        name,
        bytes_per_ns: gen.lane_bytes_per_ns() * f64::from(lanes),
        per_request_ns: 1_000,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen2_lane_is_500_mb_s() {
        // 5 GT/s * 0.8 / 8 = 0.5 B/ns = 500 MB/s per lane.
        assert!((PcieGen::Gen2.lane_bytes_per_ns() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn gen3_lane_is_about_985_mb_s() {
        let bw = PcieGen::Gen3.lane_bytes_per_ns() * 1e3;
        assert!((bw - 984.615).abs() < 0.01, "got {bw}");
    }

    #[test]
    fn gen2_x4_is_the_2_gb_s_ceiling_from_the_paper() {
        // §3.3: "since typical PCIe-based SSDs only provide four PCIe lanes,
        // this results in approximately a 2GBps maximum throughput".
        let l = pcie(PcieGen::Gen2, 4);
        assert!((l.bytes_per_ns - 2.0).abs() < 1e-9);
    }

    #[test]
    fn gen3_x16_is_nearly_16_gb_s() {
        let l = pcie(PcieGen::Gen3, 16);
        assert!(l.bytes_per_ns > 15.5 && l.bytes_per_ns < 16.0);
    }

    #[test]
    fn encoding_overhead_ordering() {
        // 8b/10b wastes far more than 128b/130b (25% extra vs 1.5%).
        assert!(PcieGen::Gen2.encoding_efficiency() < PcieGen::Gen3.encoding_efficiency());
    }

    #[test]
    fn gen4_doubles_gen3() {
        let r = PcieGen::Gen4.lane_bytes_per_ns() / PcieGen::Gen3.lane_bytes_per_ns();
        assert!((r - 2.0).abs() < 1e-12);
        assert!(pcie(PcieGen::Gen4, 16).bytes_per_ns > 31.0);
    }

    #[test]
    #[should_panic(expected = "lane widths")]
    fn rejects_bogus_lane_count() {
        pcie(PcieGen::Gen2, 3);
    }
}
