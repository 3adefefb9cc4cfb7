//! Small dense linear-algebra kernels.
//!
//! Everything an LOBPCG implementation needs beyond the sparse operator:
//! column-major dense matrices, products, Cholesky, modified Gram–Schmidt,
//! and a cyclic Jacobi eigensolver for the (at most `3m x 3m`)
//! Rayleigh–Ritz problems.
//!
//! The cost is in the tall-skinny `n x m` operations, and there a dot
//! product over `n` rows is one dependent chain of additions: it runs at
//! the adder's latency, not its throughput. The kernels therefore stream
//! the rows once while keeping several independent chains in flight — a
//! 4×4 tile of outputs in [`DMatrix::transpose_mul`], one chain per
//! pending column in [`mgs_orthonormalize`]'s first pass. Each output
//! element still sums its terms in row order from the starting value of
//! `Iterator::<f64>::sum` (`-0.0`), so results are bit-identical to the
//! one-dot-at-a-time forms. Every kernel here is single-threaded; the
//! solver runs independent products side by side instead (see
//! [`crate::lobpcg::Lobpcg::step`]), which cannot change a bit.

/// Column-major dense matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct DMatrix {
    /// Rows.
    pub nrows: usize,
    /// Columns.
    pub ncols: usize,
    /// Column-major storage, `len == nrows * ncols`.
    pub data: Vec<f64>,
}

impl DMatrix {
    /// Zero matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> DMatrix {
        DMatrix {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// Identity matrix.
    pub fn eye(n: usize) -> DMatrix {
        let mut m = DMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds from a row-major nested-slice literal (for tests).
    pub fn from_rows(rows: &[&[f64]]) -> DMatrix {
        let nrows = rows.len();
        let ncols = if nrows == 0 { 0 } else { rows[0].len() };
        let mut m = DMatrix::zeros(nrows, ncols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), ncols, "ragged rows");
            for (j, &v) in r.iter().enumerate() {
                m[(i, j)] = v;
            }
        }
        m
    }

    /// Column `j` as a slice.
    pub fn col(&self, j: usize) -> &[f64] {
        &self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Column `j` as a mutable slice.
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        &mut self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Row-major copy: `ncols` contiguous values per row (the layout the
    /// SpMM kernel reads and writes).
    pub(crate) fn to_row_major(&self) -> Vec<f64> {
        let mut rows = vec![0.0; self.data.len()];
        if self.nrows == 0 {
            return rows;
        }
        let cols: Vec<&[f64]> = self.data.chunks_exact(self.nrows).collect();
        for (i, row) in rows.chunks_exact_mut(self.ncols).enumerate() {
            for (out, col) in row.iter_mut().zip(&cols) {
                *out = col[i];
            }
        }
        rows
    }

    /// Inverse of [`DMatrix::to_row_major`].
    pub(crate) fn from_row_major(nrows: usize, ncols: usize, rows: &[f64]) -> DMatrix {
        assert_eq!(rows.len(), nrows * ncols, "row-major length mismatch");
        let mut m = DMatrix::zeros(nrows, ncols);
        if nrows == 0 {
            return m;
        }
        for (c, col) in m.data.chunks_exact_mut(nrows).enumerate() {
            for (out, &v) in col.iter_mut().zip(rows.iter().skip(c).step_by(ncols)) {
                *out = v;
            }
        }
        m
    }

    /// `self * other` (naive, column-major friendly).
    pub fn matmul(&self, other: &DMatrix) -> DMatrix {
        assert_eq!(self.ncols, other.nrows, "dimension mismatch");
        let mut out = DMatrix::zeros(self.nrows, other.ncols);
        for j in 0..other.ncols {
            for k in 0..self.ncols {
                let b = other[(k, j)];
                if b == 0.0 {
                    continue;
                }
                let a_col = self.col(k);
                let o_col = out.col_mut(j);
                for i in 0..self.nrows {
                    o_col[i] += a_col[i] * b;
                }
            }
        }
        out
    }

    /// `self^T * other` — the Gram-type product. Outputs are computed a
    /// 4×4 tile at a time in one pass over the rows, each with its own
    /// accumulator summing in row order from `-0.0`. Edge tiles repeat
    /// the last column to fill the tile and drop the extra outputs.
    pub fn transpose_mul(&self, other: &DMatrix) -> DMatrix {
        assert_eq!(self.nrows, other.nrows, "dimension mismatch");
        let mut out = DMatrix::zeros(self.ncols, other.ncols);
        for j0 in (0..other.ncols).step_by(TILE) {
            let b = tile_cols(other, j0);
            for i0 in (0..self.ncols).step_by(TILE) {
                let acc = dot_tile(tile_cols(self, i0), b, self.nrows);
                for (q, j) in (j0..other.ncols.min(j0 + TILE)).enumerate() {
                    for (p, i) in (i0..self.ncols.min(i0 + TILE)).enumerate() {
                        out[(i, j)] = acc[p][q];
                    }
                }
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f64, other: &DMatrix) {
        assert_eq!(self.nrows, other.nrows);
        assert_eq!(self.ncols, other.ncols);
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Horizontal concatenation `[self | others...]`.
    pub fn hcat(blocks: &[&DMatrix]) -> DMatrix {
        assert!(!blocks.is_empty());
        let nrows = blocks[0].nrows;
        let ncols: usize = blocks.iter().map(|b| b.ncols).sum();
        let mut out = DMatrix::zeros(nrows, ncols);
        let mut at = 0;
        for b in blocks {
            assert_eq!(b.nrows, nrows, "row mismatch in hcat");
            for j in 0..b.ncols {
                out.col_mut(at + j).copy_from_slice(b.col(j));
            }
            at += b.ncols;
        }
        out
    }

    /// Copy of columns `lo..hi`.
    pub fn cols_range(&self, lo: usize, hi: usize) -> DMatrix {
        assert!(lo <= hi && hi <= self.ncols);
        let mut out = DMatrix::zeros(self.nrows, hi - lo);
        for j in lo..hi {
            out.col_mut(j - lo).copy_from_slice(self.col(j));
        }
        out
    }
}

impl std::ops::Index<(usize, usize)> for DMatrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[j * self.nrows + i]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DMatrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[j * self.nrows + i]
    }
}

/// Width of the output tiles [`DMatrix::transpose_mul`] and
/// [`mgs_orthonormalize`] keep in flight. A 4×4 tile of `f64` chains
/// measured fastest on x86-64 SSE2 (1×8 and 2×2 tiles ran 1.3–2× slower).
const TILE: usize = 4;

/// Columns `j0..j0 + TILE` of `m`, repeating the last column past the
/// edge. `m` must have a column `j0`.
fn tile_cols(m: &DMatrix, j0: usize) -> [&[f64]; TILE] {
    std::array::from_fn(|k| m.col((j0 + k).min(m.ncols - 1)))
}

/// Dot products of every `a` column with every `b` column over the first
/// `n` rows, in one pass: `acc[p][q] = Σ_r a[p][r] * b[q][r]`. Each of
/// the `R * C` outputs is its own chain, started at `-0.0` and summed in
/// row order — exactly `(0..n).map(|r| a[p][r] * b[q][r]).sum::<f64>()`,
/// but with the chains interleaved so they overlap in the pipeline.
///
/// Kept out of line: inlined into `transpose_mul`, its sixteen
/// accumulators spilled and the 10 000 × 24 Gram product took ~3.1 ms
/// instead of ~1.6 ms.
#[inline(never)]
fn dot_tile<const R: usize, const C: usize>(
    a: [&[f64]; R],
    b: [&[f64]; C],
    n: usize,
) -> [[f64; C]; R] {
    let a = a.map(|col| &col[..n]);
    let b = b.map(|col| &col[..n]);
    let mut acc = [[-0.0f64; C]; R];
    for r in 0..n {
        let bv: [f64; C] = std::array::from_fn(|q| b[q][r]);
        for (acc_p, a_p) in acc.iter_mut().zip(&a) {
            let av = a_p[r];
            for (acc_pq, &bq) in acc_p.iter_mut().zip(&bv) {
                *acc_pq += av * bq;
            }
        }
    }
    acc
}

/// Cholesky factorisation `A = L L^T` of a symmetric positive-definite
/// matrix; returns the lower-triangular `L`, or `None` if a pivot fails
/// (not positive definite to working precision).
pub fn cholesky(a: &DMatrix) -> Option<DMatrix> {
    assert_eq!(a.nrows, a.ncols, "cholesky needs a square matrix");
    let n = a.nrows;
    let mut l = DMatrix::zeros(n, n);
    for j in 0..n {
        let mut d = a[(j, j)];
        for k in 0..j {
            d -= l[(j, k)] * l[(j, k)];
        }
        if d <= 0.0 || !d.is_finite() {
            return None;
        }
        let dj = d.sqrt();
        l[(j, j)] = dj;
        for i in (j + 1)..n {
            let mut s = a[(i, j)];
            for k in 0..j {
                s -= l[(i, k)] * l[(j, k)];
            }
            l[(i, j)] = s / dj;
        }
    }
    Some(l)
}

/// Modified Gram–Schmidt orthonormalisation of the columns of `s`,
/// dropping columns whose residual norm falls below `tol` (rank
/// deficiency). Returns the orthonormal basis and the indices of the
/// original columns that survived.
///
/// Each column is projected twice against every accepted `q` before it,
/// for numerical robustness. The first pass runs ahead: the moment a
/// column is accepted as `q_k`, every later column is projected on it, in
/// one sweep over the rows per four pending columns, each with its own
/// dot chain. A column's first pass uses only the `q`s accepted
/// before it, in acceptance order, so this is the one-column-at-a-time
/// order exactly. The second pass and the norm are serial per column.
pub fn mgs_orthonormalize(s: &DMatrix, tol: f64) -> (DMatrix, Vec<usize>) {
    let n = s.nrows;
    let mut work = s.clone();
    let mut q = DMatrix::zeros(n, 0);
    q.data.reserve(s.data.len());
    let mut kept = Vec::with_capacity(s.ncols);
    for j in 0..s.ncols {
        let v = work.col_mut(j);
        for q_k in q.data.chunks_exact(n.max(1)) {
            project_out(v, q_k);
        }
        let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm > tol {
            for x in v.iter_mut() {
                *x /= norm;
            }
            q.data.extend_from_slice(v);
            q.ncols += 1;
            kept.push(j);
            project_pending(&mut work, j);
        }
    }
    (q, kept)
}

/// `v -= (q · v) q`, the dot summed in row order from `-0.0`.
fn project_out(v: &mut [f64], q: &[f64]) {
    let dot: f64 = q.iter().zip(v.iter()).map(|(a, b)| a * b).sum();
    for (x, &qr) in v.iter_mut().zip(q) {
        *x -= dot * qr;
    }
}

/// First-pass lookahead: projects every column after `j` of `work` on
/// column `j` (just accepted as a `q`), `TILE` columns per sweep.
fn project_pending(work: &mut DMatrix, j: usize) {
    let n = work.nrows;
    for p0 in (j + 1..work.ncols).step_by(TILE) {
        let dots = dot_tile([work.col(j)], tile_cols(work, p0), n)[0];
        for (p, dot) in (p0..work.ncols.min(p0 + TILE)).zip(dots) {
            let (head, tail) = work.data.split_at_mut(p * n);
            let q = &head[j * n..(j + 1) * n];
            for (x, &qr) in tail[..n].iter_mut().zip(q) {
                *x -= dot * qr;
            }
        }
    }
}

/// Cyclic Jacobi eigensolver for a symmetric matrix.
///
/// Returns `(eigenvalues, eigenvectors)` with eigenvalues ascending and
/// `eigenvectors` column `k` corresponding to eigenvalue `k`. Intended for
/// the small (≤ ~64x64) Rayleigh–Ritz matrices of LOBPCG.
pub fn jacobi_eigh(a: &DMatrix) -> (Vec<f64>, DMatrix) {
    assert_eq!(a.nrows, a.ncols, "jacobi_eigh needs a square matrix");
    let n = a.nrows;
    let mut m = a.clone();
    let mut v = DMatrix::eye(n);
    let max_sweeps = 64;
    for _ in 0..max_sweeps {
        let mut off = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                off += m[(i, j)] * m[(i, j)];
            }
        }
        if off.sqrt() < 1e-13 * (1.0 + m.fro_norm()) {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                let theta = (aqq - app) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Apply the rotation to rows/columns p and q.
                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, q)];
                    m[(k, p)] = c * mkp - s * mkq;
                    m[(k, q)] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mqk = m[(q, k)];
                    m[(p, k)] = c * mpk - s * mqk;
                    m[(q, k)] = s * mpk + c * mqk;
                }
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }
    let mut pairs: Vec<(f64, usize)> = (0..n).map(|i| (m[(i, i)], i)).collect();
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let vals: Vec<f64> = pairs.iter().map(|&(v, _)| v).collect();
    let mut vecs = DMatrix::zeros(n, n);
    for (k, &(_, src)) in pairs.iter().enumerate() {
        vecs.col_mut(k).copy_from_slice(v.col(src));
    }
    (vals, vecs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let a = DMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = DMatrix::eye(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = DMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = DMatrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, DMatrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn transpose_mul_is_gram() {
        let a = DMatrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[0.0, 2.0]]);
        let g = a.transpose_mul(&a);
        assert_eq!(g, DMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 5.0]]));
    }

    #[test]
    fn cholesky_round_trip() {
        let a = DMatrix::from_rows(&[&[4.0, 2.0, 0.0], &[2.0, 5.0, 1.0], &[0.0, 1.0, 3.0]]);
        let l = cholesky(&a).unwrap();
        // L * L^T == A.
        let mut lt = DMatrix::zeros(3, 3);
        for i in 0..3 {
            for j in 0..3 {
                lt[(i, j)] = l[(j, i)];
            }
        }
        let back = l.matmul(&lt);
        for i in 0..3 {
            for j in 0..3 {
                assert!((back[(i, j)] - a[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = DMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        assert!(cholesky(&a).is_none());
    }

    #[test]
    fn mgs_produces_orthonormal_columns() {
        let s = DMatrix::from_rows(&[
            &[1.0, 1.0, 0.5],
            &[1.0, 0.0, 0.5],
            &[0.0, 1.0, 0.5],
            &[0.0, 0.0, 0.5],
        ]);
        let (q, kept) = mgs_orthonormalize(&s, 1e-12);
        assert_eq!(kept.len(), 3);
        let g = q.transpose_mul(&q);
        for i in 0..3 {
            for j in 0..3 {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((g[(i, j)] - want).abs() < 1e-10, "G[{i}{j}]={}", g[(i, j)]);
            }
        }
    }

    #[test]
    fn mgs_drops_dependent_columns() {
        let s = DMatrix::from_rows(&[&[1.0, 2.0], &[1.0, 2.0], &[1.0, 2.0]]);
        let (q, kept) = mgs_orthonormalize(&s, 1e-10);
        assert_eq!(q.ncols, 1);
        assert_eq!(kept, vec![0]);
    }

    #[test]
    fn jacobi_diagonal_matrix() {
        let a = DMatrix::from_rows(&[&[3.0, 0.0], &[0.0, 1.0]]);
        let (vals, _) = jacobi_eigh(&a);
        assert!((vals[0] - 1.0).abs() < 1e-12);
        assert!((vals[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn jacobi_known_2x2() {
        // Eigenvalues of [[2,1],[1,2]] are 1 and 3.
        let a = DMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let (vals, vecs) = jacobi_eigh(&a);
        assert!((vals[0] - 1.0).abs() < 1e-10);
        assert!((vals[1] - 3.0).abs() < 1e-10);
        // A v = λ v for the first pair.
        let v0 = vecs.col(0);
        let av0 = [2.0 * v0[0] + v0[1], v0[0] + 2.0 * v0[1]];
        assert!((av0[0] - vals[0] * v0[0]).abs() < 1e-9);
        assert!((av0[1] - vals[0] * v0[1]).abs() < 1e-9);
    }

    #[test]
    fn jacobi_matches_laplacian_spectrum() {
        // Tridiagonal 1D Laplacian (n=8): λ_k = 2 - 2 cos(kπ/(n+1)).
        let n = 8;
        let mut a = DMatrix::zeros(n, n);
        for i in 0..n {
            a[(i, i)] = 2.0;
            if i + 1 < n {
                a[(i, i + 1)] = -1.0;
                a[(i + 1, i)] = -1.0;
            }
        }
        let (vals, _) = jacobi_eigh(&a);
        for (k, &v) in vals.iter().enumerate() {
            let analytic =
                2.0 - 2.0 * ((k + 1) as f64 * std::f64::consts::PI / (n as f64 + 1.0)).cos();
            assert!((v - analytic).abs() < 1e-9, "λ_{k}: {v} vs {analytic}");
        }
    }

    #[test]
    fn hcat_and_cols_range() {
        let a = DMatrix::from_rows(&[&[1.0], &[2.0]]);
        let b = DMatrix::from_rows(&[&[3.0], &[4.0]]);
        let c = DMatrix::hcat(&[&a, &b]);
        assert_eq!(c.ncols, 2);
        assert_eq!(c.cols_range(1, 2), b);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = DMatrix::zeros(2, 1);
        let b = DMatrix::from_rows(&[&[1.0], &[2.0]]);
        a.axpy(2.0, &b);
        assert_eq!(a, DMatrix::from_rows(&[&[2.0], &[4.0]]));
    }
}
