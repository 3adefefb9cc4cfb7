//! Die-level operations: the unit of work the media simulator executes.

use nvmtypes::convert::u64_from_usize;
use nvmtypes::{DieIndex, MediaTiming, Nanos};

/// Kind of a die-level operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Sense pages and stream them out over the channel.
    Read,
    /// Stream data in over the channel and program pages.
    Write,
    /// Erase one block (no data movement on the channel).
    Erase,
}

/// A multi-page, possibly multi-plane operation on a single die.
///
/// The SSD layer decomposes each host request into one `DieOp` per
/// `(die, contiguous page run)` it touches; pages within a `DieOp` are
/// physically contiguous in the die's plane-interleaved address order, so
/// up to `planes` of them are serviced per cell activation (multi-plane
/// mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DieOp {
    /// Target die.
    pub die: DieIndex,
    /// Distinct planes engaged (1..=geometry.planes_per_die).
    pub planes: u32,
    /// Number of pages moved (>= 1); for `Erase`, the number of blocks.
    pub pages: u64,
    /// Page index within the plane where the run starts — determines the
    /// LSB/CSB/MSB program classes and the PCM read-latency phase.
    pub start_page: u64,
    /// Operation kind.
    pub kind: OpKind,
}

impl DieOp {
    /// Read `pages` pages on `die` using `planes` planes.
    pub fn read(die: DieIndex, planes: u32, pages: u64, start_page: u64) -> DieOp {
        DieOp {
            die,
            planes,
            pages,
            start_page,
            kind: OpKind::Read,
        }
    }

    /// Program `pages` pages on `die` using `planes` planes.
    pub fn write(die: DieIndex, planes: u32, pages: u64, start_page: u64) -> DieOp {
        DieOp {
            die,
            planes,
            pages,
            start_page,
            kind: OpKind::Write,
        }
    }

    /// Erase `blocks` blocks on `die`.
    pub fn erase(die: DieIndex, blocks: u64) -> DieOp {
        DieOp {
            die,
            planes: 1,
            pages: blocks,
            start_page: 0,
            kind: OpKind::Erase,
        }
    }

    /// Number of cell activations: pages grouped `planes` at a time.
    pub fn batches(&self) -> u64 {
        debug_assert!(self.planes >= 1);
        self.pages.div_ceil(u64::from(self.planes))
    }

    /// Total cell time for this op's batches, honouring per-page-class
    /// program latencies and PCM read jitter.
    pub fn cell_time(&self, t: &MediaTiming) -> Nanos {
        let b = self.batches();
        match self.kind {
            OpKind::Read => {
                // Base latency per batch plus the deterministic jitter
                // spread (mean of the span across a long run), plus the
                // amortised read-retry overhead if enabled.
                let retries = (self.pages * t.t_read)
                    .checked_div(t.read_retry_every)
                    .unwrap_or(0);
                b * t.t_read + (b * t.t_read_span) / 2 + retries
            }
            OpKind::Write => sum_write_latency(t, self.start_page, b),
            OpKind::Erase => self.pages * t.t_erase,
        }
    }
}

/// Sum of program latencies for `count` consecutive batch page-offsets
/// starting at `start`, in closed form over the medium's page-class cycle.
pub fn sum_write_latency(t: &MediaTiming, start: u64, count: u64) -> Nanos {
    use nvmtypes::PageClass;
    if count == 0 {
        return 0;
    }
    let cycle: &[Nanos] = match t.kind {
        nvmtypes::NvmKind::Slc | nvmtypes::NvmKind::Pcm => &[t.t_write_lsb],
        nvmtypes::NvmKind::Mlc => &[t.t_write_lsb, t.t_write_msb],
        nvmtypes::NvmKind::Tlc => &[t.t_write_lsb, t.t_write_csb, t.t_write_msb],
    };
    let l = u64_from_usize(cycle.len());
    let cycle_sum: Nanos = cycle.iter().sum();
    let full = count / l;
    let mut total = full * cycle_sum;
    for i in 0..(count % l) {
        let page = start + full * l + i;
        total += t.write_latency(PageClass::of_page(t.kind, page));
    }
    // Phase invariance: any `full * l` consecutive pages cover each class
    // exactly `full` times, and the remainder loop above uses absolute page
    // indices, so the sum is exact for any starting phase.
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmtypes::NvmKind;

    fn tlc() -> MediaTiming {
        MediaTiming::table1(NvmKind::Tlc)
    }

    #[test]
    fn batches_round_up() {
        let d = DieIndex(0);
        assert_eq!(DieOp::read(d, 2, 4, 0).batches(), 2);
        assert_eq!(DieOp::read(d, 2, 5, 0).batches(), 3);
        assert_eq!(DieOp::read(d, 1, 5, 0).batches(), 5);
    }

    #[test]
    fn read_cell_time_nand() {
        let op = DieOp::read(DieIndex(0), 2, 4, 0);
        assert_eq!(op.cell_time(&tlc()), 2 * 150_000);
    }

    #[test]
    fn read_cell_time_pcm_includes_jitter_mean() {
        let t = MediaTiming::table1(NvmKind::Pcm);
        let op = DieOp::read(DieIndex(0), 1, 100, 0);
        // 100 * 115 + 100*20/2 = 11500 + 1000.
        assert_eq!(op.cell_time(&t), 12_500);
    }

    #[test]
    fn read_retries_add_amortised_cell_time() {
        let nominal = tlc();
        let worn = MediaTiming::table1(NvmKind::Tlc).with_read_retry(16);
        let op = DieOp::read(DieIndex(0), 2, 32, 0);
        let base = op.cell_time(&nominal);
        let with = op.cell_time(&worn);
        // 32 pages at one retry per 16 pages = 2 extra senses.
        assert_eq!(with - base, 2 * 150_000);
    }

    #[test]
    fn write_latency_sum_matches_naive() {
        let t = tlc();
        for start in 0..7u64 {
            for count in 0..10u64 {
                let naive: Nanos = (0..count).map(|i| t.write_latency_at(start + i)).sum();
                assert_eq!(
                    sum_write_latency(&t, start, count),
                    naive,
                    "start={start} count={count}"
                );
            }
        }
    }

    #[test]
    fn write_latency_sum_matches_naive_mlc() {
        let t = MediaTiming::table1(NvmKind::Mlc);
        for start in 0..5u64 {
            for count in 0..9u64 {
                let naive: Nanos = (0..count).map(|i| t.write_latency_at(start + i)).sum();
                assert_eq!(sum_write_latency(&t, start, count), naive);
            }
        }
    }

    #[test]
    fn erase_cell_time() {
        let op = DieOp::erase(DieIndex(3), 2);
        assert_eq!(op.cell_time(&tlc()), 2 * 3_000_000);
    }
}
