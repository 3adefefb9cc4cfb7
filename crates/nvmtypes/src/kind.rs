//! NVM media kinds and page program classes.

/// The four NVM media evaluated by the paper (§2.3, Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NvmKind {
    /// Single-level-cell NAND flash: one bit per cell, 2 KiB pages,
    /// fast and uniform program latency, highest endurance.
    Slc,
    /// Multi-level-cell NAND flash: two bits per cell, 4 KiB pages,
    /// paired LSB/MSB pages with asymmetric program latency.
    Mlc,
    /// Triple-level-cell NAND flash: three bits per cell, 8 KiB pages,
    /// LSB/CSB/MSB page triples with strongly asymmetric program latency.
    Tlc,
    /// Phase-change memory (GST): 64-byte pages, near-DRAM read latency,
    /// writes via SET/RESET; managed behind a NOR-flash-like interface with
    /// emulated block erases (§2.3).
    Pcm,
}

impl NvmKind {
    /// All four kinds in the order the paper's figures list them.
    pub const ALL: [NvmKind; 4] = [NvmKind::Slc, NvmKind::Mlc, NvmKind::Tlc, NvmKind::Pcm];

    /// Short uppercase label as used in the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            NvmKind::Slc => "SLC",
            NvmKind::Mlc => "MLC",
            NvmKind::Tlc => "TLC",
            NvmKind::Pcm => "PCM",
        }
    }

    /// Number of bits stored per NAND cell; PCM is treated as 1 here
    /// (it has no shared-page program asymmetry).
    pub fn bits_per_cell(self) -> u32 {
        match self {
            NvmKind::Slc | NvmKind::Pcm => 1,
            NvmKind::Mlc => 2,
            NvmKind::Tlc => 3,
        }
    }

    /// Whether this medium is NAND flash (erase-before-write at block
    /// granularity, ONFi-style bus) as opposed to PCM.
    pub fn is_nand(self) -> bool {
        !matches!(self, NvmKind::Pcm)
    }
}

impl std::fmt::Display for NvmKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Program-latency class of a NAND page within its word line.
///
/// Multi-level NAND programs the bits of one physical cell through separate
/// logical pages: the LSB page programs quickly, the MSB (and, for TLC, the
/// CSB) pages require successively finer charge placement and are much
/// slower. This is the "intrinsic latency variation" NANDFlashSim models
/// (§4.1, [21]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageClass {
    /// Least-significant-bit page (fast program).
    Lsb,
    /// Center-significant-bit page (TLC only; medium program).
    Csb,
    /// Most-significant-bit page (slow program).
    Msb,
}

impl PageClass {
    /// Class of the `page_index`-th page of a block for a given medium.
    ///
    /// SLC and PCM have uniform program latency, so every page is `Lsb`.
    /// MLC alternates LSB/MSB; TLC cycles LSB/CSB/MSB.
    pub fn of_page(kind: NvmKind, page_index: u64) -> PageClass {
        match kind {
            NvmKind::Slc | NvmKind::Pcm => PageClass::Lsb,
            NvmKind::Mlc => {
                if page_index.is_multiple_of(2) {
                    PageClass::Lsb
                } else {
                    PageClass::Msb
                }
            }
            NvmKind::Tlc => {
                let r = page_index % 3;
                if r == 0 {
                    PageClass::Lsb
                } else if r == 1 {
                    PageClass::Csb
                } else {
                    PageClass::Msb
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        assert_eq!(NvmKind::Slc.label(), "SLC");
        assert_eq!(NvmKind::Pcm.to_string(), "PCM");
    }

    #[test]
    fn bits_per_cell() {
        assert_eq!(NvmKind::Slc.bits_per_cell(), 1);
        assert_eq!(NvmKind::Mlc.bits_per_cell(), 2);
        assert_eq!(NvmKind::Tlc.bits_per_cell(), 3);
    }

    #[test]
    fn slc_and_pcm_are_uniform() {
        for i in 0..16 {
            assert_eq!(PageClass::of_page(NvmKind::Slc, i), PageClass::Lsb);
            assert_eq!(PageClass::of_page(NvmKind::Pcm, i), PageClass::Lsb);
        }
    }

    #[test]
    fn mlc_alternates_lsb_msb() {
        assert_eq!(PageClass::of_page(NvmKind::Mlc, 0), PageClass::Lsb);
        assert_eq!(PageClass::of_page(NvmKind::Mlc, 1), PageClass::Msb);
        assert_eq!(PageClass::of_page(NvmKind::Mlc, 2), PageClass::Lsb);
    }

    #[test]
    fn tlc_cycles_three_classes() {
        let classes: Vec<_> = (0..6)
            .map(|i| PageClass::of_page(NvmKind::Tlc, i))
            .collect();
        assert_eq!(
            classes,
            [
                PageClass::Lsb,
                PageClass::Csb,
                PageClass::Msb,
                PageClass::Lsb,
                PageClass::Csb,
                PageClass::Msb
            ]
        );
    }

    #[test]
    fn nand_predicate() {
        assert!(NvmKind::Tlc.is_nand());
        assert!(!NvmKind::Pcm.is_nand());
    }
}
