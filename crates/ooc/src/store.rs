//! The out-of-core matrix store.
//!
//! The paper's pipeline (§2.1): the Hamiltonian is preprocessed once and
//! stored in a capacity medium, then streamed back panel-by-panel on every
//! eigensolver iteration. [`OocMatrix`] serialises a [`CsrMatrix`] into
//! fixed-row-count panels on a byte-addressed backing ([`OocStore`]), and
//! every panel read goes through a [`TraceSink`] — producing exactly the
//! POSIX-level trace the paper captures under its application (§4.2).

use crate::dense::DMatrix;
use crate::sparse::{spmm_rows, CsrMatrix};
use nvmtypes::convert::usize_from;
use nvmtypes::IoOp;
use ooctrace::TraceSink;
use std::convert::Infallible;
use std::sync::Arc;

/// Byte-addressed backing store standing in for the compute node's file;
/// panel bytes live in memory (the timing of the real device is supplied
/// later by replaying the captured trace through the SSD simulator).
#[derive(Debug, Clone)]
pub struct OocStore {
    data: Arc<Vec<u8>>,
}

impl OocStore {
    /// Wraps serialised bytes.
    pub fn new(data: Vec<u8>) -> OocStore {
        OocStore {
            data: Arc::new(data),
        }
    }

    /// Size in bytes.
    pub fn len(&self) -> u64 {
        self.data.len() as u64
    }

    /// `true` if the store is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Reads `[offset, offset+len)`, recording the access.
    pub fn read(&self, offset: u64, len: u64, file: u32, sink: &dyn TraceSink) -> &[u8] {
        sink.record(IoOp::Read, file, offset, len);
        &self.data[offset as usize..(offset + len) as usize]
    }
}

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
    /// [`crate::UfsMatrix::spmm_traced`] does.
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

/// The out-of-core SpMM shared by every backing: `Y = A * X` with `A`
/// supplied as a stream of panels. Transposes `X` to row-major once,
/// runs each panel through [`CsrPanel::spmm_row_major`] into its rows of
/// a row-major `Y`, and transposes `Y` back. Stops at the first panel
/// that fails to load.
pub(crate) fn spmm_streamed<E>(
    x: &DMatrix,
    panels: impl Iterator<Item = Result<CsrPanel, E>>,
) -> Result<DMatrix, E> {
    let m = x.ncols;
    let x_rows = x.to_row_major();
    let mut y_rows = vec![0.0; x_rows.len()];
    for panel in panels {
        let panel = panel?;
        let own = panel.row_start * m..(panel.row_start + panel.rows()) * m;
        panel.spmm_row_major(&x_rows, m, &mut y_rows[own]);
    }
    Ok(DMatrix::from_row_major(x.nrows, m, &y_rows))
}

/// An operator stored out-of-core as serialised row panels.
#[derive(Debug, Clone)]
pub struct OocMatrix {
    /// Operator dimension.
    pub n: usize,
    /// Panel directory.
    pub panels: Vec<PanelMeta>,
    store: OocStore,
    /// Trace file id panel reads are recorded under.
    pub file_id: u32,
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

/// Serialises `matrix` into the panel byte stream and its directory —
/// the single encoding shared by every backing (in-memory [`OocStore`]
/// and the journaled UFS store), so switching backings never changes a
/// byte of what is stored or traced.
pub(crate) fn serialize_panels(
    matrix: &CsrMatrix,
    rows_per_panel: usize,
) -> (Vec<u8>, Vec<PanelMeta>) {
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
        while data.len() % 8 != 0 {
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

/// Deserialises one panel's bytes; inverse of [`serialize_panels`] for a
/// single panel. Shared by every backing.
pub(crate) fn decode_panel(buf: &[u8], row_start: usize) -> CsrPanel {
    let nrows = usize_from(read_u64(buf, 0));
    let nnz = usize_from(read_u64(buf, 8));
    let ptr_at: usize = 16;
    let col_at = ptr_at.saturating_add(nrows.saturating_add(1).saturating_mul(8));
    let val_at = col_at.saturating_add(nnz.saturating_mul(4)).div_ceil(8) * 8;
    CsrPanel {
        row_start,
        row_ptr: decode_le(buf, ptr_at, nrows.saturating_add(1), u64::from_le_bytes),
        col_idx: decode_le(buf, col_at, nnz, u32::from_le_bytes),
        values: decode_le(buf, val_at, nnz, f64::from_le_bytes),
    }
}

/// Decodes `count` consecutive `N`-byte little-endian values starting at
/// byte `at`, a whole slice at a time; values past the end of `buf` are
/// zero-padded like [`read_le_bytes`].
fn decode_le<T, const N: usize>(
    buf: &[u8],
    at: usize,
    count: usize,
    from: fn([u8; N]) -> T,
) -> Vec<T> {
    let whole = buf.get(at..).unwrap_or_default();
    let mut out: Vec<T> = whole
        .chunks_exact(N)
        .take(count)
        .map(|c| {
            let mut raw = [0u8; N];
            raw.copy_from_slice(c);
            from(raw)
        })
        .collect();
    while out.len() < count {
        let offset = at.saturating_add(out.len().saturating_mul(N));
        out.push(from(read_le_bytes(buf, offset)));
    }
    out
}

impl OocMatrix {
    /// Serialises `matrix` into panels of `rows_per_panel` rows. If `sink`
    /// is provided, the preprocessing writes are recorded (the paper's
    /// pre-load phase).
    pub fn build(
        matrix: &CsrMatrix,
        rows_per_panel: usize,
        file_id: u32,
        sink: Option<&dyn TraceSink>,
    ) -> OocMatrix {
        let (data, panels) = serialize_panels(matrix, rows_per_panel);
        if let Some(s) = sink {
            for p in &panels {
                s.record(IoOp::Write, file_id, p.offset, p.len);
            }
        }
        OocMatrix {
            n: matrix.n,
            panels,
            store: OocStore::new(data),
            file_id,
        }
    }

    /// Total serialised size in bytes.
    pub fn bytes(&self) -> u64 {
        self.store.len()
    }

    /// Reads and deserialises panel `idx`, recording the access.
    pub fn read_panel(&self, idx: usize, sink: &dyn TraceSink) -> CsrPanel {
        let meta = self.panels[idx];
        let buf = self.store.read(meta.offset, meta.len, self.file_id, sink);
        decode_panel(buf, meta.row_start)
    }

    /// Out-of-core SpMM: streams every panel through `sink` and multiplies.
    /// The panel sweep is sequential in storage order — the large
    /// sequential read pattern of Figure 6's POSIX panel.
    pub fn spmm_traced(&self, x: &DMatrix, sink: &dyn TraceSink) -> DMatrix {
        assert_eq!(x.nrows, self.n, "operand height mismatch");
        let panels = (0..self.panels.len()).map(|idx| Ok(self.read_panel(idx, sink)));
        spmm_streamed(x, panels).unwrap_or_else(|never: Infallible| match never {})
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hamiltonian::HamiltonianSpec;
    use ooctrace::TraceCapture;

    #[test]
    fn panel_round_trip() {
        let h = HamiltonianSpec::tiny(100).generate();
        let ooc = OocMatrix::build(&h, 17, 0, None);
        let cap = TraceCapture::new();
        let mut nnz = 0;
        for idx in 0..ooc.panels.len() {
            let p = ooc.read_panel(idx, &cap);
            nnz += p.values.len();
            // Rows match the directory.
            assert_eq!(
                p.rows(),
                ooc.panels[idx].row_end - ooc.panels[idx].row_start
            );
        }
        assert_eq!(nnz, h.nnz());
    }

    #[test]
    fn traced_spmm_matches_in_memory() {
        let h = HamiltonianSpec::tiny(120).generate();
        let ooc = OocMatrix::build(&h, 13, 0, None);
        let mut x = DMatrix::zeros(120, 3);
        for (i, v) in x.data.iter_mut().enumerate() {
            *v = (i as f64 * 0.37).sin();
        }
        let cap = TraceCapture::new();
        let y = ooc.spmm_traced(&x, &cap);
        let want = h.spmm(&x);
        for i in 0..120 {
            for j in 0..3 {
                assert!((y[(i, j)] - want[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn sweep_trace_is_sequential_and_read_only() {
        let h = HamiltonianSpec::tiny(200).generate();
        let ooc = OocMatrix::build(&h, 20, 7, None);
        let cap = TraceCapture::new();
        let x = DMatrix::zeros(200, 2);
        ooc.spmm_traced(&x, &cap);
        let trace = cap.into_trace();
        assert_eq!(trace.len(), ooc.panels.len());
        assert!((trace.read_fraction() - 1.0).abs() < 1e-12);
        // Panel reads are back-to-back in device order.
        for w in trace.records.windows(2) {
            assert_eq!(w[1].offset, w[0].offset + w[0].len);
            assert_eq!(w[0].file, 7);
        }
        assert_eq!(trace.total_bytes(), ooc.bytes());
    }

    #[test]
    fn build_can_trace_the_preload_writes() {
        let h = HamiltonianSpec::tiny(64).generate();
        let cap = TraceCapture::new();
        let ooc = OocMatrix::build(&h, 16, 3, Some(&cap));
        let trace = cap.into_trace();
        assert_eq!(trace.len(), ooc.panels.len());
        assert_eq!(trace.read_fraction(), 0.0);
        assert_eq!(trace.total_bytes(), ooc.bytes());
    }

    #[test]
    fn panel_directory_covers_all_rows_exactly_once() {
        let h = HamiltonianSpec::tiny(101).generate();
        let ooc = OocMatrix::build(&h, 25, 0, None);
        let mut next = 0;
        for p in &ooc.panels {
            assert_eq!(p.row_start, next);
            next = p.row_end;
        }
        assert_eq!(next, 101);
    }
}
