//! Synthetic nuclear-CI Hamiltonian generator.
//!
//! The paper's matrices come from MFDn configuration-interaction
//! calculations (§2.1): huge, sparse, symmetric, with a strong diagonal,
//! dense-ish bands near the diagonal from single-particle excitations, and
//! scattered off-diagonal interaction blocks from two-body terms. This
//! generator reproduces that structure deterministically at any size, so
//! the out-of-core eigensolver exercises the same access patterns the
//! paper traces (large sequential panel sweeps, read-dominant).

use crate::sparse::CsrMatrix;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Parameters of the synthetic Hamiltonian.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HamiltonianSpec {
    /// Dimension of the many-body basis (matrix size).
    pub n: usize,
    /// Half-width of the dense band around the diagonal.
    pub band: usize,
    /// Scattered two-body couplings per row (symmetrised).
    pub couplings_per_row: usize,
    /// RNG seed.
    pub seed: u64,
}

impl HamiltonianSpec {
    /// A small spec for tests.
    pub fn tiny(n: usize) -> HamiltonianSpec {
        HamiltonianSpec {
            n,
            band: 4,
            couplings_per_row: 2,
            seed: 42,
        }
    }

    /// A medium spec whose serialised panels reach hundreds of MiB —
    /// enough to exercise out-of-core streaming.
    pub fn medium(n: usize) -> HamiltonianSpec {
        HamiltonianSpec {
            n,
            band: 16,
            couplings_per_row: 8,
            seed: 20130817,
        }
    }

    /// Generates the symmetric CSR matrix.
    ///
    /// The diagonal grows with the row index (shell structure), making the
    /// low eigenpairs well separated — the regime LOBPCG targets.
    pub fn generate(&self) -> CsrMatrix {
        assert!(self.n >= 2, "matrix must be at least 2x2");
        let n = self.n;
        let mut rng = SmallRng::seed_from_u64(self.seed);
        // Collect the strict upper triangle, then mirror.
        let mut upper: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        for (i, row) in upper.iter_mut().enumerate() {
            // Band coupling with decaying magnitude.
            for d in 1..=self.band {
                let j = i + d;
                if j >= n {
                    break;
                }
                let v = -1.0 / d as f64 * (1.0 + 0.1 * rng.gen_range(-1.0..1.0));
                row.push((j as u32, v));
            }
            // Scattered two-body couplings beyond the band.
            for _ in 0..self.couplings_per_row {
                let span = n - i - 1;
                if span <= self.band {
                    break;
                }
                let j = i + self.band + 1 + rng.gen_range(0..span - self.band);
                let v = 0.2 * rng.gen_range(-1.0..1.0);
                row.push((j as u32, v));
            }
            row.sort_by_key(|&(c, _)| c);
            row.dedup_by_key(|&mut (c, _)| c);
        }
        // Assemble full symmetric rows.
        let mut rows: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        for i in 0..n {
            for &(j, v) in &upper[i] {
                rows[i].push((j, v));
                rows[j as usize].push((i as u32, v));
            }
        }
        for (i, row) in rows.iter_mut().enumerate() {
            // Shell-structured diagonal keeps the matrix comfortably
            // diagonally dominant and the low spectrum well separated.
            let off_sum: f64 = row.iter().map(|&(_, v)| v.abs()).sum();
            let diag = 1.0 + 0.01 * i as f64 + off_sum;
            row.push((i as u32, diag));
            row.sort_by_key(|&(c, _)| c);
        }
        CsrMatrix::from_rows(n, rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_matrix_is_valid_and_symmetric() {
        let h = HamiltonianSpec::tiny(200).generate();
        h.validate().unwrap();
        assert!(h.is_symmetric(1e-12));
        assert_eq!(h.n, 200);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = HamiltonianSpec::tiny(100).generate();
        let b = HamiltonianSpec::tiny(100).generate();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut s = HamiltonianSpec::tiny(100);
        let a = s.generate();
        s.seed += 1;
        let b = s.generate();
        assert_ne!(a, b);
    }

    #[test]
    fn density_scales_with_parameters() {
        let sparse = HamiltonianSpec {
            n: 300,
            band: 2,
            couplings_per_row: 1,
            seed: 1,
        }
        .generate();
        let dense = HamiltonianSpec {
            n: 300,
            band: 12,
            couplings_per_row: 6,
            seed: 1,
        }
        .generate();
        assert!(dense.nnz() > 3 * sparse.nnz());
    }

    #[test]
    fn diagonal_dominance_holds() {
        let h = HamiltonianSpec::tiny(150).generate();
        for i in 0..h.n {
            let (lo, hi) = (h.row_ptr[i] as usize, h.row_ptr[i + 1] as usize);
            let mut diag = 0.0;
            let mut off = 0.0;
            for k in lo..hi {
                if h.col_idx[k] as usize == i {
                    diag = h.values[k];
                } else {
                    off += h.values[k].abs();
                }
            }
            assert!(diag > off, "row {i} not diagonally dominant");
        }
    }
}
