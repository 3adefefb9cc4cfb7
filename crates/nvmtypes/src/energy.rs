//! Per-operation energy parameters.
//!
//! The paper's introduction motivates NVM acceleration partly by power:
//! distributed DRAM + high-performance networks carry "high energy use
//! ... over time", while SSDs are "low-power". This module gives the
//! simulator the constants to quantify that argument. Values are
//! representative of published 2x-nm NAND and PCM prototype
//! characterisations (order-of-magnitude correct; the workspace's energy
//! results are comparative, not absolute).

use crate::kind::NvmKind;

/// Energy characteristics of one NVM medium.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MediaEnergy {
    /// Which medium.
    pub kind: NvmKind,
    /// Energy to sense one page, nanojoules.
    pub read_nj_per_page: f64,
    /// Energy to program one page (mean over page classes), nJ.
    pub program_nj_per_page: f64,
    /// Energy to erase one block, nJ.
    pub erase_nj_per_block: f64,
    /// Static power per die while idle, milliwatts.
    pub idle_mw_per_die: f64,
    /// Bus transfer energy, nJ per byte moved on a channel.
    pub bus_nj_per_byte: f64,
}

impl MediaEnergy {
    /// Representative energy figures per medium.
    ///
    /// NAND: sensing costs grow with bits/cell; programming is dominated
    /// by ISPP pulse counts (MSB pages need many); erase pulses are
    /// millijoule-class per block. PCM: reads are current-sense cheap,
    /// SET/RESET writes expensive per bit but pages are tiny.
    pub fn typical(kind: NvmKind) -> MediaEnergy {
        match kind {
            NvmKind::Slc => MediaEnergy {
                kind,
                read_nj_per_page: 6_000.0,
                program_nj_per_page: 30_000.0,
                erase_nj_per_block: 1_200_000.0,
                idle_mw_per_die: 3.0,
                bus_nj_per_byte: 0.04,
            },
            NvmKind::Mlc => MediaEnergy {
                kind,
                read_nj_per_page: 10_000.0,
                program_nj_per_page: 90_000.0,
                erase_nj_per_block: 1_600_000.0,
                idle_mw_per_die: 3.0,
                bus_nj_per_byte: 0.04,
            },
            NvmKind::Tlc => MediaEnergy {
                kind,
                read_nj_per_page: 18_000.0,
                program_nj_per_page: 250_000.0,
                erase_nj_per_block: 2_000_000.0,
                idle_mw_per_die: 3.0,
                bus_nj_per_byte: 0.04,
            },
            NvmKind::Pcm => MediaEnergy {
                kind,
                read_nj_per_page: 2.0,
                program_nj_per_page: 120.0,
                erase_nj_per_block: 15_000.0,
                idle_mw_per_die: 1.0,
                bus_nj_per_byte: 0.04,
            },
        }
    }

    /// Read energy per byte, nJ (page energy amortised over the page).
    pub fn read_nj_per_byte(&self, page_size: u32) -> f64 {
        self.read_nj_per_page / f64::from(page_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nand_read_energy_grows_with_density() {
        let slc = MediaEnergy::typical(NvmKind::Slc);
        let mlc = MediaEnergy::typical(NvmKind::Mlc);
        let tlc = MediaEnergy::typical(NvmKind::Tlc);
        assert!(slc.read_nj_per_page < mlc.read_nj_per_page);
        assert!(mlc.read_nj_per_page < tlc.read_nj_per_page);
    }

    #[test]
    fn pcm_reads_are_cheapest_per_byte() {
        use crate::latency::MediaTiming;
        for kind in [NvmKind::Slc, NvmKind::Mlc, NvmKind::Tlc] {
            let nand =
                MediaEnergy::typical(kind).read_nj_per_byte(MediaTiming::table1(kind).page_size);
            let pcm = MediaEnergy::typical(NvmKind::Pcm)
                .read_nj_per_byte(MediaTiming::table1(NvmKind::Pcm).page_size);
            assert!(pcm < nand, "{kind:?}");
        }
    }

    #[test]
    fn programs_cost_more_than_reads() {
        for kind in NvmKind::ALL {
            let e = MediaEnergy::typical(kind);
            assert!(e.program_nj_per_page > e.read_nj_per_page);
        }
    }
}
