//! The locally optimal block preconditioned conjugate gradient eigensolver.
//!
//! LOBPCG [Knyazev '01, the paper's [42]] finds the lowest `m` eigenpairs
//! of a symmetric operator by Rayleigh–Ritz over the subspace
//! `span[X, W, P]` — current iterates, preconditioned residuals, and the
//! previous search directions. Its dominant cost, and the whole point of
//! the paper's I/O study, is the repeated application of the operator to a
//! tall skinny block (§2.1: "the most time-consuming part is the repeated
//! multiplication of H and Ψ").

use crate::dense::{jacobi_eigh, mgs_orthonormalize, DMatrix};
use crate::sparse::CsrMatrix;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simobs::Metric;

/// A symmetric linear operator LOBPCG can iterate with.
pub trait Operator {
    /// Dimension.
    fn dim(&self) -> usize;
    /// `Y = A * X`.
    fn apply(&self, x: &DMatrix) -> DMatrix;
    /// Diagonal of the operator, if cheaply available (enables the Jacobi
    /// preconditioner).
    fn diagonal(&self) -> Option<Vec<f64>> {
        None
    }
}

impl Operator for CsrMatrix {
    fn dim(&self) -> usize {
        self.n
    }

    fn apply(&self, x: &DMatrix) -> DMatrix {
        self.spmm(x)
    }

    fn diagonal(&self) -> Option<Vec<f64>> {
        Some((0..self.n).map(|i| self.get(i, i)).collect())
    }
}

/// Solver options.
#[derive(Debug, Clone, Copy)]
pub struct LobpcgOptions {
    /// Block size: number of eigenpairs sought (the paper's Ψ has "about
    /// 10-20 columns").
    pub block_size: usize,
    /// Iteration cap.
    pub max_iters: usize,
    /// Relative residual tolerance `||A x - θ x|| / (|θ| + 1) < tol`.
    pub tol: f64,
    /// Seed for the random initial block.
    pub seed: u64,
    /// Use the Jacobi (diagonal) preconditioner when the operator exposes
    /// its diagonal.
    pub precondition: bool,
}

impl Default for LobpcgOptions {
    fn default() -> Self {
        LobpcgOptions {
            block_size: 8,
            max_iters: 200,
            tol: 1e-8,
            seed: 7,
            precondition: true,
        }
    }
}

/// Solver outcome.
#[derive(Debug, Clone)]
pub struct LobpcgResult {
    /// Ritz values, ascending (`block_size` of them).
    pub eigenvalues: Vec<f64>,
    /// Ritz vectors, column `k` pairing with `eigenvalues[k]`.
    pub eigenvectors: DMatrix,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether every pair met the tolerance.
    pub converged: bool,
    /// Final relative residual norms.
    pub residuals: Vec<f64>,
    /// Operator applications performed (each streams the full matrix when
    /// running out-of-core).
    pub operator_applies: usize,
}

/// LOBPCG driver. See [`Lobpcg::solve`].
///
/// ```
/// use ooc::lobpcg::{Lobpcg, LobpcgOptions};
/// use ooc::CsrMatrix;
///
/// // 1-D Laplacian: lowest eigenvalue is 2 - 2 cos(pi/(n+1)).
/// let n = 100;
/// let rows = (0..n)
///     .map(|i| {
///         let mut row = Vec::new();
///         if i > 0 { row.push(((i - 1) as u32, -1.0)); }
///         row.push((i as u32, 2.0));
///         if i + 1 < n { row.push(((i + 1) as u32, -1.0)); }
///         row
///     })
///     .collect();
/// let a = CsrMatrix::from_rows(n, rows);
/// let result = Lobpcg::new(LobpcgOptions {
///     block_size: 2, max_iters: 300, tol: 1e-7, seed: 1, precondition: false,
/// }).solve(&a);
/// assert!(result.converged);
/// let analytic = 2.0 - 2.0 * (std::f64::consts::PI / 101.0).cos();
/// assert!((result.eigenvalues[0] - analytic).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Lobpcg {
    /// Options in force.
    pub options: LobpcgOptions,
}

/// Mid-solve state of the LOBPCG iteration.
///
/// [`Lobpcg::solve`] drives this through [`Lobpcg::step`] internally; it
/// is public so the crash/recovery harness in [`crate::checkpoint`] can
/// snapshot it between iterations and restart from a snapshot after a
/// simulated node loss.
#[derive(Debug, Clone)]
pub struct SolverState {
    pub(crate) x: DMatrix,
    pub(crate) ax: DMatrix,
    pub(crate) p: Option<DMatrix>,
    pub(crate) theta: Vec<f64>,
    pub(crate) residuals: Vec<f64>,
    pub(crate) iterations: usize,
    pub(crate) converged: bool,
    pub(crate) done: bool,
    pub(crate) applies: usize,
    pub(crate) inv_diag: Option<Vec<f64>>,
}

impl SolverState {
    /// Iterations performed so far.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// `true` once the iteration has converged or the subspace collapsed
    /// (no further [`Lobpcg::step`] will change the state).
    pub fn done(&self) -> bool {
        self.done
    }

    /// Consumes the state into a [`LobpcgResult`].
    pub fn into_result(self) -> LobpcgResult {
        LobpcgResult {
            eigenvalues: self.theta,
            eigenvectors: self.x,
            iterations: self.iterations,
            converged: self.converged,
            residuals: self.residuals,
            operator_applies: self.applies,
        }
    }
}

impl Lobpcg {
    /// New solver with options.
    pub fn new(options: LobpcgOptions) -> Lobpcg {
        Lobpcg { options }
    }

    /// Builds the seeded random orthonormal starting state (one operator
    /// application).
    ///
    /// # Panics
    /// Panics if `block_size` is zero or larger than a third of the
    /// operator dimension.
    pub fn init(&self, op: &dyn Operator) -> SolverState {
        let n = op.dim();
        let m = self.options.block_size;
        assert!(
            m >= 1 && 3 * m <= n,
            "block size {m} unusable for dimension {n}"
        );
        let mut rng = SmallRng::seed_from_u64(self.options.seed);
        let inv_diag: Option<Vec<f64>> = if self.options.precondition {
            op.diagonal().map(|d| {
                d.into_iter()
                    .map(|v| if v.abs() > 1e-12 { 1.0 / v } else { 1.0 })
                    .collect()
            })
        } else {
            None
        };

        // Random orthonormal start.
        let mut x = DMatrix::zeros(n, m);
        for v in x.data.iter_mut() {
            *v = rng.gen_range(-1.0..1.0);
        }
        let (q, _) = mgs_orthonormalize(&x, 1e-12);
        x = q;
        let ax = op.apply(&x);
        SolverState {
            x,
            ax,
            p: None,
            theta: vec![0.0; m],
            residuals: vec![f64::INFINITY; m],
            iterations: 0,
            converged: false,
            done: false,
            applies: 1,
            inv_diag,
        }
    }

    /// Advances the iteration by one step (at most one operator
    /// application). No-op once [`SolverState::done`] is set.
    pub fn step(&self, op: &dyn Operator, st: &mut SolverState) {
        if st.done {
            return;
        }
        let n = op.dim();
        let m = self.options.block_size;
        st.iterations += 1;
        // Rayleigh–Ritz within span(X) to get current estimates.
        let xtax = symmetrize(&st.x.transpose_mul(&st.ax));
        let (vals, c) = jacobi_eigh(&xtax);
        // The two products are independent: run them side by side. Each
        // is the one kernel, so the bits do not depend on the pairing.
        (st.x, st.ax) = rayon::join(|| st.x.matmul(&c), || st.ax.matmul(&c));
        st.theta.copy_from_slice(&vals[..m]);

        // Residuals R = AX - X diag(theta).
        let mut r = st.ax.clone();
        for k in 0..m {
            let xk = st.x.col(k);
            let rk = r.col_mut(k);
            for i in 0..n {
                rk[i] -= st.theta[k] * xk[i];
            }
        }
        for k in 0..m {
            let norm: f64 = r.col(k).iter().map(|v| v * v).sum::<f64>().sqrt();
            st.residuals[k] = norm / (st.theta[k].abs() + 1.0);
        }
        if st.residuals.iter().all(|&v| v < self.options.tol) {
            st.converged = true;
            st.done = true;
            return;
        }

        // Preconditioned residuals.
        let mut w = r;
        if let Some(inv) = &st.inv_diag {
            for k in 0..m {
                let col = w.col_mut(k);
                for i in 0..n {
                    col[i] *= inv[i];
                }
            }
        }

        // Trial subspace S = [X W P], orthonormalised.
        let s = match &st.p {
            Some(p) => DMatrix::hcat(&[&st.x, &w, p]),
            None => DMatrix::hcat(&[&st.x, &w]),
        };
        let (q, _) = mgs_orthonormalize(&s, 1e-10);
        if q.ncols < m {
            // Subspace collapsed (fully converged cluster); stop.
            st.converged = st.residuals.iter().all(|&v| v < self.options.tol);
            st.done = true;
            return;
        }
        let aq = op.apply(&q);
        st.applies += 1;
        let t = symmetrize(&q.transpose_mul(&aq));
        let (_, c) = jacobi_eigh(&t);
        let cm = c.cols_range(0, m);
        let (x_new, ax_new) = rayon::join(|| q.matmul(&cm), || aq.matmul(&cm));

        // New conjugate directions: the part of X_new outside span(X).
        let overlap = st.x.transpose_mul(&x_new);
        let mut p_new = x_new.clone();
        let correction = st.x.matmul(&overlap);
        p_new.axpy(-1.0, &correction);
        let (p_orth, kept) = mgs_orthonormalize(&p_new, 1e-10);
        st.p = if kept.is_empty() { None } else { Some(p_orth) };

        st.x = x_new;
        st.ax = ax_new;
    }

    /// Runs the iteration on `op`.
    ///
    /// # Panics
    /// Panics if `block_size` is zero or larger than the operator dimension.
    pub fn solve(&self, op: &dyn Operator) -> LobpcgResult {
        self.solve_observed(op, &mut simobs::Tracer::off())
    }

    /// [`Lobpcg::solve`] with an observer attached: when `obs` is
    /// enabled, each iteration emits a [`simobs::Layer::Solver`] span on
    /// the solver's *logical* clock — one iteration is one microsecond
    /// tick (iteration `k` spans `[k*1000, (k+1)*1000)` ns), since the
    /// numerical phase has no simulated-time cost of its own; the I/O its
    /// operator applications cause is timed by the device layers. The
    /// tracer reads iteration state only, so observing cannot change the
    /// solve.
    pub fn solve_observed(&self, op: &dyn Operator, obs: &mut simobs::Tracer) -> LobpcgResult {
        let mut st = self.init(op);
        while !st.done && st.iterations < self.options.max_iters {
            let before_applies = st.applies;
            let tick = nvmtypes::u64_from_usize(st.iterations);
            self.step(op, &mut st);
            if obs.enabled() {
                obs.span(
                    simobs::Layer::Solver,
                    "lobpcg_iter",
                    tick * 1_000,
                    (tick + 1) * 1_000,
                    [
                        ("iteration", nvmtypes::u64_from_usize(st.iterations)),
                        (
                            "applies",
                            nvmtypes::u64_from_usize(st.applies - before_applies),
                        ),
                    ],
                );
            }
        }
        if obs.enabled() {
            let iterations = nvmtypes::u64_from_usize(st.iterations);
            obs.count(Metric::SolverIterations, iterations);
            obs.count(Metric::SolverApplies, nvmtypes::u64_from_usize(st.applies));
            obs.count(Metric::SolverConverged, u64::from(st.converged));
            // Logical-clock total for the profiler's sim-domain rollup:
            // one iteration is one microsecond tick.
            obs.count(Metric::SolverSimNs, iterations.saturating_mul(1_000));
        }
        st.into_result()
    }
}

/// `(A + A^T) / 2` — guards the Ritz matrices against accumulated
/// asymmetry.
fn symmetrize(a: &DMatrix) -> DMatrix {
    let mut s = a.clone();
    for i in 0..a.nrows {
        for j in 0..a.ncols {
            s[(i, j)] = 0.5 * (a[(i, j)] + a[(j, i)]);
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn laplacian(n: usize) -> CsrMatrix {
        let mut rows = Vec::with_capacity(n);
        for i in 0..n {
            let mut row = Vec::new();
            if i > 0 {
                row.push(((i - 1) as u32, -1.0));
            }
            row.push((i as u32, 2.0));
            if i + 1 < n {
                row.push(((i + 1) as u32, -1.0));
            }
            rows.push(row);
        }
        CsrMatrix::from_rows(n, rows)
    }

    #[test]
    fn laplacian_lowest_eigenvalues() {
        let n = 200;
        let a = laplacian(n);
        let solver = Lobpcg::new(LobpcgOptions {
            block_size: 4,
            max_iters: 400,
            tol: 1e-7,
            seed: 3,
            precondition: false,
        });
        let res = solver.solve(&a);
        assert!(res.converged, "residuals {:?}", res.residuals);
        for k in 0..4 {
            let analytic =
                2.0 - 2.0 * ((k + 1) as f64 * std::f64::consts::PI / (n as f64 + 1.0)).cos();
            assert!(
                (res.eigenvalues[k] - analytic).abs() < 1e-6,
                "λ_{k}: {} vs {analytic}",
                res.eigenvalues[k]
            );
        }
    }

    #[test]
    fn diagonal_matrix_is_exact() {
        let n = 64;
        let rows: Vec<Vec<(u32, f64)>> = (0..n).map(|i| vec![(i as u32, (i + 1) as f64)]).collect();
        let a = CsrMatrix::from_rows(n, rows);
        let res = Lobpcg::new(LobpcgOptions {
            block_size: 3,
            max_iters: 200,
            tol: 1e-9,
            ..Default::default()
        })
        .solve(&a);
        assert!(res.converged);
        for k in 0..3 {
            assert!((res.eigenvalues[k] - (k + 1) as f64).abs() < 1e-7);
        }
    }

    #[test]
    fn eigenvectors_satisfy_definition() {
        let a = laplacian(100);
        let res = Lobpcg::new(LobpcgOptions {
            block_size: 3,
            max_iters: 300,
            tol: 1e-8,
            precondition: false,
            ..Default::default()
        })
        .solve(&a);
        assert!(res.converged);
        let av = a.spmm(&res.eigenvectors);
        for k in 0..3 {
            for i in 0..100 {
                let want = res.eigenvalues[k] * res.eigenvectors[(i, k)];
                assert!((av[(i, k)] - want).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn preconditioning_reduces_iterations_on_ill_conditioned_diag() {
        // Strongly graded diagonal: Jacobi preconditioning should help.
        let n = 150;
        let rows: Vec<Vec<(u32, f64)>> = (0..n)
            .map(|i| {
                let mut row = Vec::new();
                if i > 0 {
                    row.push(((i - 1) as u32, -0.5));
                }
                row.push((i as u32, 1.0 + i as f64));
                if i + 1 < n {
                    row.push(((i + 1) as u32, -0.5));
                }
                row
            })
            .collect();
        let a = CsrMatrix::from_rows(n, rows);
        let base = LobpcgOptions {
            block_size: 3,
            max_iters: 500,
            tol: 1e-7,
            seed: 11,
            precondition: false,
        };
        let plain = Lobpcg::new(base).solve(&a);
        let pre = Lobpcg::new(LobpcgOptions {
            precondition: true,
            ..base
        })
        .solve(&a);
        assert!(pre.converged);
        assert!(
            pre.iterations <= plain.iterations,
            "precond {} vs plain {}",
            pre.iterations,
            plain.iterations
        );
    }

    #[test]
    #[should_panic(expected = "unusable")]
    fn rejects_oversized_block() {
        let a = laplacian(8);
        Lobpcg::new(LobpcgOptions {
            block_size: 4,
            ..Default::default()
        })
        .solve(&a);
    }
}
