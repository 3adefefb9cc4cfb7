//! CSR sparse matrices and the one sparse × dense-block kernel.
//!
//! `spmm_rows` is the only SpMM kernel in the crate. It reads the dense
//! block row-major, so a nonzero `A[i, j]` costs contiguous reads of row
//! `j` of `X` instead of `m` loads strided by `n` through a column-major
//! block, and it keeps each output row's running sums in registers
//! across the row's nonzeros. [`CsrMatrix::spmm`] runs it over the
//! whole matrix; the out-of-core store runs it panel by panel (see
//! [`crate::store::CsrPanel`]). Both transpose `X` once per product and
//! `Y` once back, and every output element keeps the summation order of
//! a plain row-by-row CSR product.

use crate::dense::DMatrix;
use nvmtypes::convert::{usize_from, usize_from_u32};

/// Compressed-sparse-row matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    /// Rows (== columns; the workspace only needs square operators).
    pub n: usize,
    /// Row pointers, `len == n + 1`.
    pub row_ptr: Vec<u64>,
    /// Column indices, ascending within each row.
    pub col_idx: Vec<u32>,
    /// Values, parallel to `col_idx`.
    pub values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds from per-row `(col, value)` lists (must be sorted by column).
    pub fn from_rows(n: usize, rows: Vec<Vec<(u32, f64)>>) -> CsrMatrix {
        assert_eq!(rows.len(), n);
        let nnz: usize = rows.iter().map(|r| r.len()).sum();
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        row_ptr.push(0u64);
        for row in rows {
            let mut prev: Option<u32> = None;
            for (c, v) in row {
                assert!((c as usize) < n, "column out of range");
                if let Some(p) = prev {
                    assert!(c > p, "columns must be strictly ascending");
                }
                prev = Some(c);
                col_idx.push(c);
                values.push(v);
            }
            row_ptr.push(col_idx.len() as u64);
        }
        CsrMatrix {
            n,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Entry accessor (O(log row length)); 0.0 for structural zeros.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let lo = self.row_ptr[i] as usize;
        let hi = self.row_ptr[i + 1] as usize;
        match self.col_idx[lo..hi].binary_search(&(j as u32)) {
            Ok(k) => self.values[lo + k],
            Err(_) => 0.0,
        }
    }

    /// Checks structural validity (monotone pointers, sorted columns).
    pub fn validate(&self) -> Result<(), String> {
        if self.row_ptr.len() != self.n + 1 {
            return Err("row_ptr length".into());
        }
        if self.row_ptr.first() != Some(&0)
            || self.row_ptr.last().copied() != Some(self.nnz() as u64)
        {
            return Err("row_ptr endpoints".into());
        }
        for i in 0..self.n {
            let (lo, hi) = (self.row_ptr[i] as usize, self.row_ptr[i + 1] as usize);
            if lo > hi {
                return Err(format!("row {i}: non-monotone row_ptr"));
            }
            for w in self.col_idx[lo..hi].windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("row {i}: unsorted columns"));
                }
            }
            if let Some(&last) = self.col_idx[lo..hi].last() {
                if last as usize >= self.n {
                    return Err(format!("row {i}: column out of range"));
                }
            }
        }
        Ok(())
    }

    /// Is the matrix numerically symmetric?
    pub fn is_symmetric(&self, tol: f64) -> bool {
        for i in 0..self.n {
            let (lo, hi) = (self.row_ptr[i] as usize, self.row_ptr[i + 1] as usize);
            for k in lo..hi {
                let j = self.col_idx[k] as usize;
                if (self.values[k] - self.get(j, i)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Sparse × dense block: `Y = A * X`, through the row-major SpMM
    /// kernel over the whole matrix.
    pub fn spmm(&self, x: &DMatrix) -> DMatrix {
        assert_eq!(x.nrows, self.n, "operand height mismatch");
        let x_rows = x.to_row_major();
        let mut y_rows = vec![0.0; x_rows.len()];
        spmm_rows(
            &self.row_ptr,
            &self.col_idx,
            &self.values,
            &x_rows,
            x.ncols,
            &mut y_rows,
        );
        DMatrix::from_row_major(self.n, x.ncols, &y_rows)
    }

    /// Dense copy (tests only; O(n^2) memory).
    pub fn to_dense(&self) -> DMatrix {
        let mut d = DMatrix::zeros(self.n, self.n);
        for i in 0..self.n {
            let (lo, hi) = (self.row_ptr[i] as usize, self.row_ptr[i + 1] as usize);
            for k in lo..hi {
                d[(i, self.col_idx[k] as usize)] = self.values[k];
            }
        }
        d
    }
}

/// The SpMM kernel: `Y += A * X` over a block of CSR rows, with `X` and
/// `Y` row-major (`m` contiguous values per row).
///
/// `row_ptr` has one entry per row of `y` plus one and indexes `col_idx`
/// and `values`; column indices name rows of `x`. Each output row is
/// split into column chunks of 8, then 4, 2 and 1 for the remainder, and
/// [`spmm_chunk`] runs the row's nonzeros over one chunk at a time. Every
/// output element sums its nonzeros in storage order onto the value `y`
/// held, exactly as a plain row-by-row CSR product does.
pub(crate) fn spmm_rows(
    row_ptr: &[u64],
    col_idx: &[u32],
    values: &[f64],
    x: &[f64],
    m: usize,
    y: &mut [f64],
) {
    if m == 0 {
        return;
    }
    for (bounds, y_row) in row_ptr.windows(2).zip(y.chunks_exact_mut(m)) {
        let (lo, hi) = (usize_from(bounds[0]), usize_from(bounds[1]));
        let (cols, vals) = (&col_idx[lo..hi], &values[lo..hi]);
        let mut c0 = 0;
        while c0 < m {
            let out = &mut y_row[c0..];
            c0 += match m - c0 {
                8.. => spmm_chunk::<8>(cols, vals, x, m, c0, out),
                4.. => spmm_chunk::<4>(cols, vals, x, m, c0, out),
                2.. => spmm_chunk::<2>(cols, vals, x, m, c0, out),
                _ => spmm_chunk::<1>(cols, vals, x, m, c0, out),
            };
        }
    }
}

/// The one SpMM multiply-add loop: adds `v * X[j, c0..c0 + W]` for every
/// nonzero `(j, v)` of a row onto the first `W` values of `y`, holding
/// the `W` sums in registers across the row. Returns `W`.
#[inline(always)]
fn spmm_chunk<const W: usize>(
    cols: &[u32],
    vals: &[f64],
    x: &[f64],
    m: usize,
    c0: usize,
    y: &mut [f64],
) -> usize {
    let out = &mut y[..W];
    let mut acc = [0.0f64; W];
    acc.copy_from_slice(out);
    for (&j, &v) in cols.iter().zip(vals) {
        let at = usize_from_u32(j) * m + c0;
        for (a, &xv) in acc.iter_mut().zip(&x[at..at + W]) {
            *a += v * xv;
        }
    }
    out.copy_from_slice(&acc);
    W
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CsrMatrix {
        // [[2,-1,0],[-1,2,-1],[0,-1,2]]
        CsrMatrix::from_rows(
            3,
            vec![
                vec![(0, 2.0), (1, -1.0)],
                vec![(0, -1.0), (1, 2.0), (2, -1.0)],
                vec![(1, -1.0), (2, 2.0)],
            ],
        )
    }

    #[test]
    fn construction_and_validation() {
        let a = small();
        a.validate().unwrap();
        assert_eq!(a.nnz(), 7);
        assert_eq!(a.get(1, 2), -1.0);
        assert_eq!(a.get(0, 2), 0.0);
        assert!(a.is_symmetric(0.0));
    }

    #[test]
    fn spmm_matches_dense() {
        let a = small();
        let x = DMatrix::from_rows(&[&[1.0, 2.0], &[0.5, -1.0], &[0.0, 3.0]]);
        let y = a.spmm(&x);
        let want = a.to_dense().matmul(&x);
        for i in 0..3 {
            for j in 0..2 {
                assert!((y[(i, j)] - want[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn rejects_unsorted_columns() {
        CsrMatrix::from_rows(2, vec![vec![(1, 1.0), (0, 1.0)], vec![]]);
    }

    #[test]
    fn asymmetry_detected() {
        let a = CsrMatrix::from_rows(2, vec![vec![(1, 5.0)], vec![]]);
        assert!(!a.is_symmetric(1e-12));
    }
}
