//! The out-of-core matrix store.
//!
//! The paper's pipeline (§2.1): the Hamiltonian is preprocessed once and
//! stored in a capacity medium, then streamed back panel-by-panel on every
//! eigensolver iteration. This module owns the panel encoding, a
//! [`CsrMatrix`] serialised into fixed-row-count panels plus a
//! [`PanelMeta`] directory, and its one store, [`UfsMatrix`]: the panel
//! bytes live in a file of a mounted [`ufs::Ufs`] over an in-memory block
//! device, written through the journal's commit protocol during
//! preprocessing and read back through the filesystem on every panel
//! sweep. Every panel access goes through a [`TraceSink`], producing
//! exactly the POSIX-level trace the paper captures under its application
//! (§4.2). The device underneath also carries the journal commits and
//! survives simulated power loss (see `ufs::harness`).
//!
//! A sweep runs on every pool worker but claims, records and reads
//! panels in directory order under one lock, so its trace and request
//! log are the same at any thread count; decode and SpMM, into buffers
//! each worker reuses, run outside the lock (see
//! [`UfsMatrix::spmm_traced`]). There is one read path: `read_panel` is
//! an allocating wrapper over the same load and decode.

use crate::dense::DMatrix;
use crate::sparse::{spmm_rows, CsrMatrix};
use nvmtypes::convert::usize_from;
use nvmtypes::{IoOp, SimError};
use ooctrace::TraceSink;
use rayon::prelude::*;
use ssd::SimBlockDevice;
use std::sync::{MutexGuard, PoisonError};
use ufs::{FileId, Ufs, UfsParams};

/// Name of the panel file inside the filesystem.
const PANEL_FILE: &str = "hamiltonian";

/// Metadata of one serialised row panel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PanelMeta {
    /// First row of the panel.
    pub row_start: usize,
    /// One past the last row.
    pub row_end: usize,
    /// Byte offset within the store.
    pub offset: u64,
    /// Serialised length in bytes.
    pub len: u64,
}

/// A deserialised panel: rows `[row_start, row_end)` of the operator in
/// local CSR form.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrPanel {
    /// First global row.
    pub row_start: usize,
    /// Local row pointers (`len == rows + 1`).
    pub row_ptr: Vec<u64>,
    /// Column indices (global).
    pub col_idx: Vec<u32>,
    /// Values.
    pub values: Vec<f64>,
}

impl CsrPanel {
    /// An empty panel, for [`decode_panel_into`] to fill.
    fn empty() -> CsrPanel {
        CsrPanel {
            row_start: 0,
            row_ptr: Vec::new(),
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Rows in the panel.
    pub fn rows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// `Y[row_start..row_end, :] += panel * X` with both blocks row-major
    /// (`m` values per row): `x` holds every row of `X`, `y` only this
    /// panel's rows of `Y`. Runs the crate's one SpMM kernel (see
    /// [`crate::sparse`]).
    pub(crate) fn spmm_row_major(&self, x: &[f64], m: usize, y: &mut [f64]) {
        spmm_rows(&self.row_ptr, &self.col_idx, &self.values, x, m, y);
    }

    /// `Y[row_start..row_end, :] += panel * X` on column-major blocks: an
    /// adapter over the row-major panel kernel that transposes `X`,
    /// gathers this panel's rows of `Y`, runs the kernel and scatters the
    /// rows back. It pays an `n x m` transpose per panel; a panel sweep
    /// should transpose once and stream, as
    /// [`UfsMatrix::spmm_traced`] does.
    pub fn spmm_into(&self, x: &DMatrix, y: &mut DMatrix) {
        let m = x.ncols;
        let rows = self.row_start..self.row_start + self.rows();
        let mut y_rows = Vec::with_capacity(rows.len() * m);
        for i in rows.clone() {
            y_rows.extend((0..m).map(|c| y[(i, c)]));
        }
        self.spmm_row_major(&x.to_row_major(), m, &mut y_rows);
        for (i, row) in rows.zip(y_rows.chunks_exact(m.max(1))) {
            for (c, &v) in row.iter().enumerate() {
                y[(i, c)] = v;
            }
        }
    }
}

fn push_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Reads `N` little-endian bytes at `at`, zero-padding a short buffer.
/// The store only decodes buffers it serialised itself, so a short read
/// cannot occur on a healthy store; padding (instead of panicking) keeps
/// the decoder total under the `no_panic` invariant.
fn read_le_bytes<const N: usize>(buf: &[u8], at: usize) -> [u8; N] {
    let mut raw = [0u8; N];
    let end = buf.len().min(at.saturating_add(N));
    if at < end {
        raw[..end - at].copy_from_slice(&buf[at..end]);
    }
    raw
}

fn read_u64(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(read_le_bytes(buf, at))
}

/// Serialises `matrix` into the panel byte stream and its directory.
fn serialize_panels(matrix: &CsrMatrix, rows_per_panel: usize) -> (Vec<u8>, Vec<PanelMeta>) {
    assert!(rows_per_panel >= 1);
    let mut data: Vec<u8> = Vec::new();
    let mut panels = Vec::new();
    let mut r0 = 0;
    while r0 < matrix.n {
        let r1 = (r0 + rows_per_panel).min(matrix.n);
        let offset = data.len() as u64;
        let (lo, hi) = (matrix.row_ptr[r0] as usize, matrix.row_ptr[r1] as usize);
        let nrows = r1 - r0;
        push_u64(&mut data, nrows as u64);
        push_u64(&mut data, (hi - lo) as u64);
        // Local row pointers.
        for r in r0..=r1 {
            push_u64(&mut data, matrix.row_ptr[r] - matrix.row_ptr[r0]);
        }
        for &c in &matrix.col_idx[lo..hi] {
            data.extend_from_slice(&c.to_le_bytes());
        }
        // Pad to 8-byte alignment before the f64 values.
        while !data.len().is_multiple_of(8) {
            data.push(0);
        }
        for &v in &matrix.values[lo..hi] {
            data.extend_from_slice(&v.to_le_bytes());
        }
        let len = data.len() as u64 - offset;
        panels.push(PanelMeta {
            row_start: r0,
            row_end: r1,
            offset,
            len,
        });
        r0 = r1;
    }
    (data, panels)
}

/// Deserialises one panel's bytes into `out`, reusing its vectors;
/// inverse of [`serialize_panels`] for a single panel.
fn decode_panel_into(buf: &[u8], row_start: usize, out: &mut CsrPanel) {
    let nrows = usize_from(read_u64(buf, 0));
    let nnz = usize_from(read_u64(buf, 8));
    let ptr_at: usize = 16;
    let col_at = ptr_at.saturating_add(nrows.saturating_add(1).saturating_mul(8));
    let val_at = col_at.saturating_add(nnz.saturating_mul(4)).div_ceil(8) * 8;
    out.row_start = row_start;
    decode_le(
        buf,
        ptr_at,
        nrows.saturating_add(1),
        &mut out.row_ptr,
        u64::from_le_bytes,
    );
    decode_le(buf, col_at, nnz, &mut out.col_idx, u32::from_le_bytes);
    decode_le(buf, val_at, nnz, &mut out.values, f64::from_le_bytes);
}

/// Decodes `count` consecutive `N`-byte little-endian values starting at
/// byte `at` into `out` (replacing its contents), a whole slice at a
/// time; values past the end of `buf` are zero-padded like
/// [`read_le_bytes`]. `from` is a generic parameter, not a `fn` pointer,
/// so each converter is monomorphised and inlined into the loop.
fn decode_le<T, const N: usize>(
    buf: &[u8],
    at: usize,
    count: usize,
    out: &mut Vec<T>,
    from: impl Fn([u8; N]) -> T,
) {
    out.clear();
    let whole = buf.get(at..).unwrap_or_default();
    out.extend(whole.chunks_exact(N).take(count).map(|c| {
        let mut raw = [0u8; N];
        raw.copy_from_slice(c);
        from(raw)
    }));
    while out.len() < count {
        let offset = at.saturating_add(out.len().saturating_mul(N));
        out.push(from(read_le_bytes(buf, offset)));
    }
}

/// An operator stored out-of-core as serialised row panels in a
/// journaled UFS file.
///
/// Reads go through `Ufs::read`, i.e. through real durable extents, and
/// are recorded on the sink under the same lock that serialises access
/// to the mounted filesystem, so the trace and the UFS request log agree
/// on the order of reads. A panel sweep holds the filesystem for its
/// whole duration and hands it to its workers one claim at a time (see
/// [`UfsMatrix::spmm_traced`]).
#[derive(Debug)]
pub struct UfsMatrix {
    /// Operator dimension.
    pub n: usize,
    /// Panel directory.
    pub panels: Vec<PanelMeta>,
    /// Trace file id panel reads are recorded under.
    pub file_id: u32,
    fs: FsLock,
    file: FileId,
    bytes: u64,
}

impl UfsMatrix {
    /// Serialises `matrix` into panels of `rows_per_panel` rows and makes
    /// them durable in a freshly formatted filesystem (one fsync — the
    /// preprocessing phase commits once). If `sink` is provided, the
    /// preprocessing writes are recorded (the paper's pre-load phase), one
    /// `Write` per panel in directory order.
    ///
    /// # Errors
    /// [`SimError::InvalidConfig`] when `rows_per_panel` is zero, or the
    /// filesystem error that kept the store from being written.
    pub fn build(
        matrix: &CsrMatrix,
        rows_per_panel: usize,
        file_id: u32,
        sink: Option<&dyn TraceSink>,
    ) -> Result<UfsMatrix, SimError> {
        if rows_per_panel == 0 {
            return Err(SimError::invalid_config(
                "rows_per_panel",
                "a panel holds at least one row",
            ));
        }
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
            fs: FsLock::new(fs),
            file,
            bytes: data.len() as u64,
        })
    }

    /// Total serialised size in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Reads and deserialises panel `idx` through the filesystem,
    /// recording the access. An index past the directory is an
    /// [`SimError::InvalidConfig`] and records nothing. An allocating
    /// wrapper over the sweep's own read and decode path.
    pub fn read_panel(&self, idx: usize, sink: &dyn TraceSink) -> Result<CsrPanel, SimError> {
        let meta = self.panels.get(idx).ok_or_else(|| {
            SimError::invalid_config(
                "panel index",
                format!("{idx} is out of range for {} panels", self.panels.len()),
            )
        })?;
        let mut bytes = Vec::new();
        self.load(&mut self.lock_fs(), meta, sink, &mut bytes)?;
        let mut panel = CsrPanel::empty();
        decode_panel_into(&bytes, meta.row_start, &mut panel);
        Ok(panel)
    }

    /// Out-of-core SpMM through the filesystem: `Y = A * X`. Transposes
    /// `X` to row-major once, streams every panel in storage order (the
    /// large sequential read pattern of Figure 6's POSIX panel) through
    /// the row-major panel kernel into its rows of a row-major `Y`, and
    /// transposes `Y` back.
    ///
    /// The sweep runs on every pool worker. A worker claims the next
    /// panel, records it on `sink` and reads its bytes all under one
    /// lock, so the trace, its timestamps and the UFS request log are in
    /// directory order at any thread count; it then decodes the panel
    /// and multiplies it into that panel's own rows of `Y` outside the
    /// lock, into buffers it reuses for every panel it claims. Each
    /// output row is summed by the one kernel in the same order as a
    /// serial sweep, so `Y` is bit-identical too. The first read that
    /// fails stops further claims (no later panel is recorded) and is
    /// the error returned.
    pub fn spmm_traced(&self, x: &DMatrix, sink: &dyn TraceSink) -> Result<DMatrix, SimError> {
        assert_eq!(x.nrows, self.n, "operand height mismatch");
        let m = x.ncols;
        let x_rows = x.to_row_major();
        let mut y_rows = vec![0.0; x_rows.len()];
        let mut fs = self.lock_fs();
        let sweep = SweepLock::new(Sweep {
            fs: &mut fs,
            next: 0,
            rest: &mut y_rows,
            error: None,
        });
        let workers = rayon::current_num_threads().clamp(1, self.panels.len().max(1));
        (0..workers)
            .into_par_iter()
            .map(|_| self.sweep_worker(&sweep, &x_rows, m, sink))
            .collect::<(), ()>();
        let error = sweep
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .error;
        drop(fs);
        match error {
            Some(e) => Err(e),
            None => Ok(DMatrix::from_row_major(x.nrows, m, &y_rows)),
        }
    }

    /// One worker of [`UfsMatrix::spmm_traced`]: claims panels until the
    /// directory is exhausted or a read has failed.
    fn sweep_worker(
        &self,
        sweep: &SweepLock<'_, '_>,
        x_rows: &[f64],
        m: usize,
        sink: &dyn TraceSink,
    ) {
        let mut bytes = Vec::new();
        let mut panel = CsrPanel::empty();
        loop {
            let claimed = sweep
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .claim(self, m, sink, &mut bytes);
            let Some((row_start, y_own)) = claimed else {
                return;
            };
            decode_panel_into(&bytes, row_start, &mut panel);
            panel.spmm_row_major(x_rows, m, y_own);
        }
    }

    /// Records panel `meta`'s read on `sink` and reads its bytes into
    /// `bytes` through `fs`, which the caller has locked: the one read
    /// path of the store.
    fn load(
        &self,
        fs: &mut Ufs<SimBlockDevice>,
        meta: &PanelMeta,
        sink: &dyn TraceSink,
        bytes: &mut Vec<u8>,
    ) -> Result<(), SimError> {
        sink.record(IoOp::Read, self.file_id, meta.offset, meta.len);
        bytes.resize(usize_from(meta.len), 0);
        fs.read(self.file, meta.offset, bytes)
    }

    fn lock_fs(&self) -> MutexGuard<'_, Ufs<SimBlockDevice>> {
        self.fs.lock().unwrap_or_else(PoisonError::into_inner)
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

/// The store's filesystem lock, the first in the workspace lock order
/// (docs/CONCURRENCY.md): a sweep locks its [`SweepLock`] under it.
#[expect(
    clippy::disallowed_types,
    reason = "first in the lock order of docs/CONCURRENCY.md"
)]
type FsLock = std::sync::Mutex<Ufs<SimBlockDevice>>;

/// A sweep's claim lock, second in the workspace lock order
/// (docs/CONCURRENCY.md): taken only under [`FsLock`], whose guard the
/// [`Sweep`] holds, and under it only a sink's leaf lock is taken.
#[expect(
    clippy::disallowed_types,
    reason = "second in the lock order of docs/CONCURRENCY.md"
)]
type SweepLock<'f, 'y> = std::sync::Mutex<Sweep<'f, 'y>>;

/// The shared state of one [`UfsMatrix::spmm_traced`] sweep, behind the
/// one lock its workers claim panels under: the filesystem, the next
/// panel index and the rows of `Y` not yet handed out.
struct Sweep<'f, 'y> {
    fs: &'f mut Ufs<SimBlockDevice>,
    next: usize,
    rest: &'y mut [f64],
    error: Option<SimError>,
}

impl<'y> Sweep<'_, 'y> {
    /// Claims the next panel: records and reads it into `bytes` and
    /// splits its rows of `Y` off the front of the rest. `None` once the
    /// directory is exhausted or a read has failed; a failed read is
    /// kept as the sweep's error.
    fn claim(
        &mut self,
        store: &UfsMatrix,
        m: usize,
        sink: &dyn TraceSink,
        bytes: &mut Vec<u8>,
    ) -> Option<(usize, &'y mut [f64])> {
        if self.error.is_some() {
            return None;
        }
        let meta = store.panels.get(self.next)?;
        self.next += 1;
        if let Err(e) = store.load(self.fs, meta, sink, bytes) {
            self.error = Some(e);
            return None;
        }
        let rest = std::mem::take(&mut self.rest);
        let own = (meta.row_end - meta.row_start)
            .saturating_mul(m)
            .min(rest.len());
        let (y_own, rest) = rest.split_at_mut(own);
        self.rest = rest;
        Some((meta.row_start, y_own))
    }
}

/// A [`UfsMatrix`] applied through a trace sink, for driving LOBPCG:
/// every operator application streams the full serialised Hamiltonian
/// through the filesystem and records the POSIX-level reads. A filesystem
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
    use crate::lobpcg::{Lobpcg, LobpcgOptions};
    use ooctrace::TraceCapture;

    /// Rows `[r0, r1)` of `h` as the panel the store should decode.
    fn rows_of(h: &CsrMatrix, r0: usize, r1: usize) -> CsrPanel {
        let (lo, hi) = (h.row_ptr[r0] as usize, h.row_ptr[r1] as usize);
        CsrPanel {
            row_start: r0,
            row_ptr: h.row_ptr[r0..=r1]
                .iter()
                .map(|p| p - h.row_ptr[r0])
                .collect(),
            col_idx: h.col_idx[lo..hi].to_vec(),
            values: h.values[lo..hi].to_vec(),
        }
    }

    #[test]
    fn panels_round_trip_through_the_filesystem() {
        let h = HamiltonianSpec::tiny(100).generate();
        let fsm = UfsMatrix::build(&h, 17, 0, None).expect("builds");
        // The file holds exactly the serialised panel bytes.
        let (data, panels) = serialize_panels(&h, 17);
        assert_eq!(fsm.panels, panels);
        assert_eq!(fsm.bytes(), data.len() as u64);
        let mut stored = vec![0u8; data.len()];
        fsm.fs
            .lock()
            .expect("unpoisoned")
            .read(fsm.file, 0, &mut stored)
            .expect("reads");
        assert_eq!(stored, data);
        // Every panel decodes to its rows of the in-core matrix.
        let cap = TraceCapture::new();
        for (idx, meta) in fsm.panels.iter().enumerate() {
            let panel = fsm.read_panel(idx, &cap).expect("reads");
            assert_eq!(panel, rows_of(&h, meta.row_start, meta.row_end));
        }
    }

    #[test]
    fn read_panel_rejects_an_out_of_range_index() {
        let h = HamiltonianSpec::tiny(64).generate();
        let fsm = UfsMatrix::build(&h, 16, 0, None).expect("builds");
        let cap = TraceCapture::new();
        let err = fsm
            .read_panel(fsm.panels.len(), &cap)
            .expect_err("no such panel");
        assert!(matches!(err, SimError::InvalidConfig { .. }), "{err}");
        assert!(fsm.read_panel(usize::MAX, &cap).is_err());
        assert!(cap.into_trace().is_empty());
    }

    #[test]
    fn lobpcg_over_the_filesystem_matches_the_in_core_solve() {
        let h = HamiltonianSpec::tiny(80).generate();
        let fsm = UfsMatrix::build(&h, 16, 0, None).expect("builds");
        let cap = TraceCapture::new();
        // Unpreconditioned, so the in-core operator's diagonal is unused.
        let opts = LobpcgOptions {
            block_size: 3,
            max_iters: 60,
            precondition: false,
            ..LobpcgOptions::default()
        };
        let want = Lobpcg::new(opts).solve(&h);
        let got = Lobpcg::new(opts).solve(&UfsOperator::new(&fsm, &cap));
        // Bit-identical: the store feeds the solver the matrix's own bytes.
        assert_eq!(got.eigenvalues, want.eigenvalues);
        assert_eq!(got.operator_applies, want.operator_applies);
        // One read per panel per operator application, in directory order.
        let trace = cap.into_trace();
        assert_eq!(trace.len(), got.operator_applies * fsm.panels.len());
        for (r, meta) in trace.records.iter().zip(fsm.panels.iter().cycle()) {
            assert_eq!((r.op, r.offset, r.len), (IoOp::Read, meta.offset, meta.len));
        }
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
