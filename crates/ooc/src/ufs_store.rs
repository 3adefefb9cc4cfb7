//! The journaled-UFS-backed panel store.
//!
//! [`UfsMatrix`] is the out-of-core Hamiltonian held in a *real*
//! filesystem: panel bytes live in a file of a mounted [`ufs::Ufs`] over
//! an in-memory block device, written through the journal's commit
//! protocol during preprocessing and read back through the filesystem on
//! every panel sweep. The serialised bytes and the recorded POSIX trace
//! are byte-identical to the in-memory [`OocMatrix`](crate::OocMatrix)
//! backing — the store switch is observable only through the device
//! underneath, which now also carries journal commits and survives
//! simulated power loss (see `ufs::harness`).

use crate::dense::DMatrix;
use crate::sparse::CsrMatrix;
use crate::store::{decode_panel, serialize_panels, spmm_streamed, CsrPanel, PanelMeta};
use nvmtypes::convert::usize_from;
use nvmtypes::{IoOp, SimError};
use ooctrace::TraceSink;
use ssd::SimBlockDevice;
use std::sync::{Mutex, PoisonError};
use ufs::{FileId, Ufs, UfsParams};

/// Name of the panel file inside the filesystem.
const PANEL_FILE: &str = "hamiltonian";

/// An operator stored out-of-core in a journaled UFS file.
///
/// The panel directory is the same as [`crate::OocMatrix`]'s; only the
/// backing differs. Reads lock the mounted filesystem (panel sweeps are
/// sequential, so the lock is uncontended in practice) and go through
/// `Ufs::read`, i.e. through real durable extents.
#[derive(Debug)]
pub struct UfsMatrix {
    /// Operator dimension.
    pub n: usize,
    /// Panel directory.
    pub panels: Vec<PanelMeta>,
    /// Trace file id panel reads are recorded under.
    pub file_id: u32,
    fs: Mutex<Ufs<SimBlockDevice>>,
    file: FileId,
    bytes: u64,
}

impl UfsMatrix {
    /// Serialises `matrix` into panels of `rows_per_panel` rows and makes
    /// them durable in a freshly formatted filesystem (one fsync — the
    /// preprocessing phase commits once). If `sink` is provided, the
    /// preprocessing writes are recorded exactly as the in-memory
    /// backing records them.
    pub fn build(
        matrix: &CsrMatrix,
        rows_per_panel: usize,
        file_id: u32,
        sink: Option<&dyn TraceSink>,
    ) -> Result<UfsMatrix, SimError> {
        let (data, panels) = serialize_panels(matrix, rows_per_panel);
        if let Some(s) = sink {
            for p in &panels {
                s.record(IoOp::Write, file_id, p.offset, p.len);
            }
        }
        let params = UfsParams {
            max_files: 8,
            journal_sectors: 16,
        };
        // Device sized for the panel bytes with copy-on-write headroom.
        let data_sectors = (data.len() as u64).div_ceil(ssd::SECTOR_BYTES) + 1;
        let meta = 1 + u64::from(params.max_files) + u64::from(params.journal_sectors);
        let total = meta + data_sectors * 2 + 8;
        let mut fs = Ufs::format(SimBlockDevice::new(total), params)?;
        let file = fs.create(PANEL_FILE)?;
        fs.write(file, 0, &data)?;
        fs.fsync(file)?;
        Ok(UfsMatrix {
            n: matrix.n,
            panels,
            file_id,
            fs: Mutex::new(fs),
            file,
            bytes: data.len() as u64,
        })
    }

    /// Total serialised size in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Reads and deserialises panel `idx` through the filesystem,
    /// recording the access.
    pub fn read_panel(&self, idx: usize, sink: &dyn TraceSink) -> Result<CsrPanel, SimError> {
        let meta = self.panels[idx];
        sink.record(IoOp::Read, self.file_id, meta.offset, meta.len);
        let mut buf = vec![0u8; usize_from(meta.len)];
        self.fs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .read(self.file, meta.offset, &mut buf)?;
        Ok(decode_panel(&buf, meta.row_start))
    }

    /// Out-of-core SpMM through the filesystem: streams every panel in
    /// storage order, like [`crate::OocMatrix::spmm_traced`].
    pub fn spmm_traced(&self, x: &DMatrix, sink: &dyn TraceSink) -> Result<DMatrix, SimError> {
        assert_eq!(x.nrows, self.n, "operand height mismatch");
        spmm_streamed(
            x,
            (0..self.panels.len()).map(|idx| self.read_panel(idx, sink)),
        )
    }

    /// Tears the store down to its raw device image (consuming it) — the
    /// hook crash tooling uses to remount and verify durability.
    pub fn into_media(self) -> Vec<u8> {
        self.fs
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .into_device()
            .into_media()
    }
}

/// A [`UfsMatrix`] applied through a trace sink, for driving LOBPCG:
/// the journaled twin of [`crate::lobpcg::TracedOperator`]. A filesystem
/// read error inside [`crate::lobpcg::Operator::apply`] (impossible on a
/// healthy store — the file was written by `build`) yields a zero block
/// rather than a panic, which a caller observes as a non-converging
/// solve.
pub struct UfsOperator<'a> {
    matrix: &'a UfsMatrix,
    sink: &'a dyn TraceSink,
    diag: Option<Vec<f64>>,
}

impl<'a> UfsOperator<'a> {
    /// Wraps a UFS-backed matrix with a sink.
    pub fn new(matrix: &'a UfsMatrix, sink: &'a dyn TraceSink) -> UfsOperator<'a> {
        UfsOperator {
            matrix,
            sink,
            diag: None,
        }
    }

    /// Supplies a precomputed diagonal (for preconditioning).
    pub fn with_diagonal(mut self, diag: Vec<f64>) -> UfsOperator<'a> {
        assert_eq!(diag.len(), self.matrix.n);
        self.diag = Some(diag);
        self
    }
}

impl crate::lobpcg::Operator for UfsOperator<'_> {
    fn dim(&self) -> usize {
        self.matrix.n
    }

    fn apply(&self, x: &DMatrix) -> DMatrix {
        self.matrix
            .spmm_traced(x, self.sink)
            .unwrap_or_else(|_| DMatrix::zeros(self.matrix.n, x.ncols))
    }

    fn diagonal(&self) -> Option<Vec<f64>> {
        self.diag.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hamiltonian::HamiltonianSpec;
    use crate::lobpcg::{Lobpcg, LobpcgOptions, TracedOperator};
    use crate::store::OocMatrix;
    use ooctrace::TraceCapture;
    use ufs::Ufs;

    #[test]
    fn panels_round_trip_through_the_filesystem() {
        let h = HamiltonianSpec::tiny(100).generate();
        let mem = OocMatrix::build(&h, 17, 0, None);
        let fsm = UfsMatrix::build(&h, 17, 0, None).expect("builds");
        assert_eq!(mem.panels, fsm.panels);
        assert_eq!(mem.bytes(), fsm.bytes());
        let cap = TraceCapture::new();
        for idx in 0..fsm.panels.len() {
            let a = mem.read_panel(idx, &cap);
            let b = fsm.read_panel(idx, &cap).expect("reads");
            assert_eq!(a, b);
        }
    }

    #[test]
    fn trace_is_byte_identical_to_the_memory_backing() {
        let h = HamiltonianSpec::tiny(120).generate();
        let (cap_mem, cap_fs) = (TraceCapture::new(), TraceCapture::new());
        let mem = OocMatrix::build(&h, 13, 4, Some(&cap_mem));
        let fsm = UfsMatrix::build(&h, 13, 4, Some(&cap_fs)).expect("builds");
        let x = DMatrix::zeros(120, 2);
        mem.spmm_traced(&x, &cap_mem);
        fsm.spmm_traced(&x, &cap_fs).expect("sweeps");
        assert_eq!(cap_mem.into_trace(), cap_fs.into_trace());
    }

    #[test]
    fn lobpcg_over_the_filesystem_matches_the_memory_backing() {
        let h = HamiltonianSpec::tiny(80).generate();
        let mem = OocMatrix::build(&h, 16, 0, None);
        let fsm = UfsMatrix::build(&h, 16, 0, None).expect("builds");
        let (cap_mem, cap_fs) = (TraceCapture::new(), TraceCapture::new());
        let opts = LobpcgOptions {
            block_size: 3,
            max_iters: 60,
            ..LobpcgOptions::default()
        };
        let a = Lobpcg::new(opts).solve(&TracedOperator::new(&mem, &cap_mem));
        let b = Lobpcg::new(opts).solve(&UfsOperator::new(&fsm, &cap_fs));
        // Bit-identical: both paths feed the solver the same panel bytes.
        assert_eq!(a.eigenvalues, b.eigenvalues);
        assert_eq!(cap_mem.into_trace(), cap_fs.into_trace());
    }

    #[test]
    fn store_survives_remount() {
        let h = HamiltonianSpec::tiny(64).generate();
        let fsm = UfsMatrix::build(&h, 16, 0, None).expect("builds");
        let bytes = fsm.bytes();
        let media = fsm.into_media();
        let (fs, report) =
            Ufs::mount(SimBlockDevice::from_media(media).expect("aligned")).expect("mounts");
        assert!(report.is_clean());
        let id = fs.open(PANEL_FILE).expect("file exists");
        assert_eq!(fs.size(id).expect("sized"), bytes);
    }
}
