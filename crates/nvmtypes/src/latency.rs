//! Table 1 of the paper: per-medium page sizes and operation latencies.
//!
//! | medium | page | read | write | erase |
//! |--------|------|------|-------|-------|
//! | SLC    | 2 KiB | 25 µs | 250 µs | 1.5 ms |
//! | MLC    | 4 KiB | 50 µs | 250–2200 µs | 2.5 ms |
//! | TLC    | 8 KiB | 150 µs | 440–6000 µs | 3 ms |
//! | PCM    | 64 B  | 0.115–0.135 µs | 35 µs | 35 µs |
//!
//! MLC and TLC write ranges are realised through [`PageClass`]: the LSB page
//! takes the low end, the MSB page the high end (CSB in between for TLC).
//! PCM read latency varies slightly with sensing position; we spread the
//! 115–135 ns range deterministically across page offsets.

use crate::kind::{NvmKind, PageClass};
use crate::time::Nanos;

const US: Nanos = 1_000;

/// Latency and page-size description of one NVM medium (one Table-1 row).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MediaTiming {
    /// Which medium this timing describes.
    pub kind: NvmKind,
    /// Page size in bytes (the unit of a read/program operation).
    pub page_size: u32,
    /// Base page read latency in ns.
    pub t_read: Nanos,
    /// Read latency jitter span in ns (PCM: 20 ns across the 115–135 ns
    /// datasheet range; NAND: 0).
    pub t_read_span: Nanos,
    /// Program latency of an LSB (fast) page in ns.
    pub t_write_lsb: Nanos,
    /// Program latency of a CSB page in ns (TLC only; equals LSB otherwise).
    pub t_write_csb: Nanos,
    /// Program latency of an MSB (slow) page in ns (equals LSB for SLC/PCM).
    pub t_write_msb: Nanos,
    /// Block erase latency in ns (PCM: emulated NOR-style block erase).
    pub t_erase: Nanos,
    /// Command/address/status overhead per die operation on the bus, ns.
    pub t_cmd: Nanos,
    /// Read-retry cadence: one extra sensing pass (shifted read-reference
    /// voltages) is amortised over every `read_retry_every` pages read.
    /// 0 disables (Table 1's nominal latencies). Denser, older NAND needs
    /// retries more often; enable via [`MediaTiming::with_read_retry`] for
    /// the endurance ablation.
    pub read_retry_every: u64,
}

impl MediaTiming {
    /// Table-1 timing for the given medium.
    pub fn table1(kind: NvmKind) -> MediaTiming {
        match kind {
            NvmKind::Slc => MediaTiming {
                kind,
                page_size: 2048,
                t_read: 25 * US,
                t_read_span: 0,
                t_write_lsb: 250 * US,
                t_write_csb: 250 * US,
                t_write_msb: 250 * US,
                t_erase: 1_500 * US,
                t_cmd: 300,
                read_retry_every: 0,
            },
            NvmKind::Mlc => MediaTiming {
                kind,
                page_size: 4096,
                t_read: 50 * US,
                t_read_span: 0,
                t_write_lsb: 250 * US,
                t_write_csb: 250 * US,
                t_write_msb: 2_200 * US,
                t_erase: 2_500 * US,
                t_cmd: 300,
                read_retry_every: 0,
            },
            NvmKind::Tlc => MediaTiming {
                kind,
                page_size: 8192,
                t_read: 150 * US,
                t_read_span: 0,
                t_write_lsb: 440 * US,
                t_write_csb: 3_220 * US,
                t_write_msb: 6_000 * US,
                t_erase: 3_000 * US,
                t_cmd: 300,
                read_retry_every: 0,
            },
            NvmKind::Pcm => MediaTiming {
                kind,
                page_size: 64,
                t_read: 115,
                t_read_span: 20,
                t_write_lsb: 35 * US,
                t_write_csb: 35 * US,
                t_write_msb: 35 * US,
                t_erase: 35 * US,
                t_cmd: 60,
                read_retry_every: 0,
            },
        }
    }

    /// Enables amortised read retries: one extra sense per `every` pages.
    pub fn with_read_retry(mut self, every: u64) -> MediaTiming {
        self.read_retry_every = every;
        self
    }

    /// Read latency for the page at `page_index` within its block.
    ///
    /// NAND reads are uniform; PCM reads are spread deterministically over
    /// the datasheet's 115–135 ns range by page offset.
    pub fn read_latency(&self, page_index: u64) -> Nanos {
        if self.t_read_span == 0 {
            self.t_read
        } else {
            self.t_read + (page_index % (self.t_read_span + 1))
        }
    }

    /// Program latency for a page of the given class.
    pub fn write_latency(&self, class: PageClass) -> Nanos {
        match class {
            PageClass::Lsb => self.t_write_lsb,
            PageClass::Csb => self.t_write_csb,
            PageClass::Msb => self.t_write_msb,
        }
    }

    /// Program latency of the page at `page_index` within its block,
    /// applying the medium's LSB/CSB/MSB pattern.
    pub fn write_latency_at(&self, page_index: u64) -> Nanos {
        self.write_latency(PageClass::of_page(self.kind, page_index))
    }

    /// Mean program latency across the medium's page classes, ns.
    pub fn mean_write_latency(&self) -> Nanos {
        match self.kind {
            NvmKind::Slc | NvmKind::Pcm => self.t_write_lsb,
            NvmKind::Mlc => (self.t_write_lsb + self.t_write_msb) / 2,
            NvmKind::Tlc => (self.t_write_lsb + self.t_write_csb + self.t_write_msb) / 3,
        }
    }

    /// Peak cell-level read bandwidth of a single die in bytes/ns, assuming
    /// all `planes` of the die stream reads concurrently (multi-plane mode).
    pub fn die_read_bw(&self, planes: u32) -> f64 {
        (f64::from(self.page_size) * f64::from(planes)) / crate::convert::approx_f64(self.t_read)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_page_sizes() {
        assert_eq!(MediaTiming::table1(NvmKind::Slc).page_size, 2048);
        assert_eq!(MediaTiming::table1(NvmKind::Mlc).page_size, 4096);
        assert_eq!(MediaTiming::table1(NvmKind::Tlc).page_size, 8192);
        assert_eq!(MediaTiming::table1(NvmKind::Pcm).page_size, 64);
    }

    #[test]
    fn table1_read_latencies() {
        assert_eq!(MediaTiming::table1(NvmKind::Slc).t_read, 25_000);
        assert_eq!(MediaTiming::table1(NvmKind::Mlc).t_read, 50_000);
        assert_eq!(MediaTiming::table1(NvmKind::Tlc).t_read, 150_000);
        // PCM: 115 ns base, up to 135 ns with span.
        let pcm = MediaTiming::table1(NvmKind::Pcm);
        assert_eq!(pcm.t_read, 115);
        for i in 0..64 {
            let l = pcm.read_latency(i);
            assert!((115..=135).contains(&l));
        }
    }

    #[test]
    fn table1_write_ranges() {
        let mlc = MediaTiming::table1(NvmKind::Mlc);
        assert_eq!(mlc.write_latency(PageClass::Lsb), 250_000);
        assert_eq!(mlc.write_latency(PageClass::Msb), 2_200_000);
        let tlc = MediaTiming::table1(NvmKind::Tlc);
        assert_eq!(tlc.write_latency(PageClass::Lsb), 440_000);
        assert_eq!(tlc.write_latency(PageClass::Msb), 6_000_000);
    }

    #[test]
    fn table1_erase_latencies() {
        assert_eq!(MediaTiming::table1(NvmKind::Slc).t_erase, 1_500_000);
        assert_eq!(MediaTiming::table1(NvmKind::Mlc).t_erase, 2_500_000);
        assert_eq!(MediaTiming::table1(NvmKind::Tlc).t_erase, 3_000_000);
        assert_eq!(MediaTiming::table1(NvmKind::Pcm).t_erase, 35_000);
    }

    #[test]
    fn write_latency_follows_page_pattern() {
        let tlc = MediaTiming::table1(NvmKind::Tlc);
        assert_eq!(tlc.write_latency_at(0), 440_000);
        assert_eq!(tlc.write_latency_at(1), 3_220_000);
        assert_eq!(tlc.write_latency_at(2), 6_000_000);
        assert_eq!(tlc.write_latency_at(3), 440_000);
    }

    #[test]
    fn pcm_reads_drastically_outperform_flash() {
        // §2.3: PCM "read performance drastically out-performs flash".
        let pcm = MediaTiming::table1(NvmKind::Pcm);
        let slc = MediaTiming::table1(NvmKind::Slc);
        // Per-byte read time, lower is faster.
        let pcm_per_byte = pcm.t_read as f64 / pcm.page_size as f64;
        let slc_per_byte = slc.t_read as f64 / slc.page_size as f64;
        assert!(pcm_per_byte < slc_per_byte);
    }

    #[test]
    fn mean_write_latency_is_between_extremes() {
        let tlc = MediaTiming::table1(NvmKind::Tlc);
        let m = tlc.mean_write_latency();
        assert!(m > tlc.t_write_lsb && m < tlc.t_write_msb);
    }

    #[test]
    fn read_retry_knob_defaults_off() {
        for kind in NvmKind::ALL {
            assert_eq!(MediaTiming::table1(kind).read_retry_every, 0);
        }
        let t = MediaTiming::table1(NvmKind::Tlc).with_read_retry(16);
        assert_eq!(t.read_retry_every, 16);
    }

    #[test]
    fn die_read_bw_scales_with_planes() {
        let tlc = MediaTiming::table1(NvmKind::Tlc);
        let one = tlc.die_read_bw(1);
        let two = tlc.die_read_bw(2);
        assert!((two / one - 2.0).abs() < 1e-12);
        // TLC single-plane: 8192 B / 150 µs ≈ 0.0546 B/ns ≈ 54.6 MB/s.
        assert!((one - 8192.0 / 150_000.0).abs() < 1e-12);
    }
}
