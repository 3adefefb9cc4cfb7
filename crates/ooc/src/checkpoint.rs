//! Checkpoint/restart for the LOBPCG solver under simulated node loss.
//!
//! The paper's application runs for hours on thousands of nodes, so the
//! fault model (docs/FAULT_MODEL.md) has to answer: what does losing a
//! node mid-solve cost, and how much does periodic checkpointing of the
//! solver block to compute-local NVM buy back? This module implements
//! the mechanism: [`SolverCheckpoint`] snapshots the expensive solver
//! state (`X`, `P`, Ritz values) between iterations, and
//! [`solve_with_recovery`] drives [`Lobpcg`] while sampling node crashes
//! from the deterministic fault stream, restoring from the latest
//! checkpoint (or restarting from scratch when none exists) and
//! accounting every nanosecond of overhead in [`RecoveryStats`].

use crate::dense::DMatrix;
use crate::lobpcg::{Lobpcg, LobpcgResult, Operator, SolverState};
use nvmtypes::fault::NodeFaultProfile;
use nvmtypes::{u64_from_usize, usize_from_u32, FaultRng, Nanos};

/// Simulated checkpoint write bandwidth to compute-local NVM, bytes per
/// nanosecond (3 B/ns = 3 GB/s, a PCIe-attached NVM write stream).
pub const CHECKPOINT_BYTES_PER_NS: u64 = 3;

/// A snapshot of the solver state taken between iterations.
///
/// Holds exactly what a restarted node cannot cheaply recompute: the
/// iterate block `X`, the conjugate directions `P` and the current Ritz
/// values/residuals. `AX` is *not* stored — restoring re-applies the
/// operator once, which is cheaper than doubling the checkpoint size.
#[derive(Debug, Clone)]
pub struct SolverCheckpoint {
    iteration: usize,
    x: DMatrix,
    p: Option<DMatrix>,
    theta: Vec<f64>,
    residuals: Vec<f64>,
    // Carried along (not counted in `bytes()`): recomputable from the
    // operator diagonal, but must survive restore or the post-crash
    // iteration would silently lose its preconditioner.
    inv_diag: Option<Vec<f64>>,
}

impl SolverCheckpoint {
    /// Snapshots `st` (cheap clone of the solver block; no operator work).
    pub fn capture(st: &SolverState) -> SolverCheckpoint {
        SolverCheckpoint {
            iteration: st.iterations,
            x: st.x.clone(),
            p: st.p.clone(),
            theta: st.theta.clone(),
            residuals: st.residuals.clone(),
            inv_diag: st.inv_diag.clone(),
        }
    }

    /// Iteration the snapshot was taken at.
    pub fn iteration(&self) -> usize {
        self.iteration
    }

    /// Serialised size of the snapshot (what a checkpoint write moves to
    /// NVM): every f64 payload plus a small fixed header.
    pub fn bytes(&self) -> u64 {
        let floats = self.x.data.len()
            + self.p.as_ref().map_or(0, |p| p.data.len())
            + self.theta.len()
            + self.residuals.len();
        8 * u64_from_usize(floats) + 32
    }

    /// Rebuilds a live [`SolverState`] from the snapshot, re-applying the
    /// operator to recover `AX` (counted in `total_applies + 1`).
    pub fn restore(&self, op: &dyn Operator, total_applies: usize) -> SolverState {
        let ax = op.apply(&self.x);
        SolverState {
            x: self.x.clone(),
            ax,
            p: self.p.clone(),
            theta: self.theta.clone(),
            residuals: self.residuals.clone(),
            iterations: self.iteration,
            converged: false,
            done: false,
            applies: total_applies + 1,
            inv_diag: self.inv_diag.clone(),
        }
    }
}

/// Overhead accounting for one recovered solve. All-zero when the node
/// profile is `none()`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Node crashes injected (capped at the profile's `max_crashes`).
    pub node_losses: u64,
    /// Checkpoints written to simulated NVM.
    pub checkpoints: u64,
    /// Total bytes of checkpoint state written.
    pub checkpoint_bytes: u64,
    /// Iterations of completed work discarded by crashes and redone.
    pub iterations_replayed: u64,
    /// Time spent writing checkpoints, ns.
    pub checkpoint_ns: Nanos,
    /// Time lost to node restarts (the profile's restart penalty), ns.
    pub restart_ns: Nanos,
}

impl RecoveryStats {
    /// Total overhead the fault plan added to the solve, ns.
    pub fn total_overhead_ns(&self) -> Nanos {
        self.checkpoint_ns + self.restart_ns
    }
}

/// A solve outcome together with its recovery overhead.
#[derive(Debug, Clone)]
pub struct RecoveredResult {
    /// The eigensolve outcome (same convergence contract as
    /// [`Lobpcg::solve`]).
    pub result: LobpcgResult,
    /// What surviving the fault plan cost.
    pub recovery: RecoveryStats,
}

/// Runs `solver` on `op` under the node-fault profile, drawing crash
/// events from `rng` (the caller passes the `STREAM_NODE` split of the
/// plan's root stream).
///
/// Before each iteration a crash is sampled with `crash_prob_per_iter`;
/// on a crash the solver loses its in-memory state, pays
/// `restart_penalty_ns`, and resumes from the latest checkpoint — or
/// from the seeded initial state when no checkpoint exists yet. Every
/// `checkpoint_every` iterations the block is written to simulated NVM
/// at [`CHECKPOINT_BYTES_PER_NS`]. A `none()` profile performs the exact
/// [`Lobpcg::solve`] instruction sequence and never touches `rng`.
pub fn solve_with_recovery(
    solver: &Lobpcg,
    op: &dyn Operator,
    profile: &NodeFaultProfile,
    rng: &mut FaultRng,
) -> RecoveredResult {
    if profile.is_none() {
        return RecoveredResult {
            result: solver.solve(op),
            recovery: RecoveryStats::default(),
        };
    }
    let mut st = solver.init(op);
    let mut stats = RecoveryStats::default();
    let mut checkpoint: Option<SolverCheckpoint> = None;
    let mut crashes: u32 = 0;
    while !st.done() && st.iterations() < solver.options.max_iters {
        if crashes < profile.max_crashes && rng.gen_bool(profile.crash_prob_per_iter) {
            crashes += 1;
            stats.node_losses += 1;
            stats.restart_ns += profile.restart_penalty_ns;
            match &checkpoint {
                Some(cp) => {
                    stats.iterations_replayed += u64_from_usize(st.iterations() - cp.iteration());
                    st = cp.restore(op, st.applies);
                }
                None => {
                    // No checkpoint yet: full restart from the seeded
                    // initial block; all completed work is redone.
                    stats.iterations_replayed += u64_from_usize(st.iterations());
                    let lost_applies = st.applies;
                    st = solver.init(op);
                    st.applies += lost_applies;
                }
            }
            continue;
        }
        solver.step(op, &mut st);
        let every = usize_from_u32(profile.checkpoint_every);
        if every > 0 && !st.done() && st.iterations().is_multiple_of(every) {
            let cp = SolverCheckpoint::capture(&st);
            stats.checkpoints += 1;
            stats.checkpoint_bytes += cp.bytes();
            stats.checkpoint_ns += cp.bytes() / CHECKPOINT_BYTES_PER_NS;
            checkpoint = Some(cp);
        }
    }
    RecoveredResult {
        result: st.into_result(),
        recovery: stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lobpcg::LobpcgOptions;
    use crate::sparse::CsrMatrix;
    use nvmtypes::fault::{FaultPlan, STREAM_NODE};

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

    fn solver() -> Lobpcg {
        Lobpcg::new(LobpcgOptions {
            block_size: 3,
            max_iters: 500,
            tol: 1e-7,
            seed: 3,
            precondition: false,
        })
    }

    fn node_rng(seed: u64) -> FaultRng {
        FaultPlan {
            seed,
            ..FaultPlan::none()
        }
        .rng()
        .split(STREAM_NODE)
    }

    #[test]
    fn none_profile_matches_plain_solve_exactly() {
        let a = laplacian(120);
        let plain = solver().solve(&a);
        let mut rng = node_rng(1);
        let before = rng.clone();
        let rec = solve_with_recovery(&solver(), &a, &NodeFaultProfile::none(), &mut rng);
        assert_eq!(rec.recovery, RecoveryStats::default());
        assert_eq!(rec.result.eigenvalues, plain.eigenvalues);
        assert_eq!(rec.result.iterations, plain.iterations);
        // A none() profile must not consume any randomness.
        assert_eq!(rng, before);
    }

    #[test]
    fn crashes_with_checkpoints_still_converge_to_same_eigenvalues() {
        let a = laplacian(120);
        let plain = solver().solve(&a);
        let profile = NodeFaultProfile {
            crash_prob_per_iter: 0.10,
            checkpoint_every: 5,
            restart_penalty_ns: 1_000_000,
            max_crashes: 8,
        };
        let mut rng = node_rng(2);
        let rec = solve_with_recovery(&solver(), &a, &profile, &mut rng);
        assert!(rec.result.converged, "residuals {:?}", rec.result.residuals);
        assert!(rec.recovery.node_losses > 0, "want at least one crash");
        assert!(rec.recovery.checkpoints > 0);
        assert!(rec.recovery.checkpoint_bytes > 0);
        assert_eq!(
            rec.recovery.restart_ns,
            rec.recovery.node_losses * 1_000_000
        );
        for (got, want) in rec.result.eigenvalues.iter().zip(&plain.eigenvalues) {
            assert!(
                (got - want).abs() < 1e-6,
                "eigenvalue drifted: {got} vs {want}"
            );
        }
        // Replayed work plus surviving iterations must cover the plain
        // solve's iteration count (crashes never shorten the math).
        assert!(
            rec.result.iterations + rec.recovery.iterations_replayed as usize >= plain.iterations
        );
    }

    #[test]
    fn crashes_without_checkpoints_restart_from_scratch() {
        let a = laplacian(90);
        let profile = NodeFaultProfile {
            crash_prob_per_iter: 0.05,
            checkpoint_every: 0, // checkpointing disabled
            restart_penalty_ns: 500,
            max_crashes: 4,
        };
        let mut rng = node_rng(3);
        let rec = solve_with_recovery(&solver(), &a, &profile, &mut rng);
        assert!(rec.result.converged);
        assert_eq!(rec.recovery.checkpoints, 0);
        assert!(rec.recovery.node_losses > 0);
        assert!(rec.recovery.iterations_replayed > 0);
    }

    #[test]
    fn recovery_is_deterministic_for_a_seed() {
        let a = laplacian(120);
        let profile = NodeFaultProfile {
            crash_prob_per_iter: 0.08,
            checkpoint_every: 6,
            restart_penalty_ns: 2_000,
            max_crashes: 8,
        };
        let mut r1 = node_rng(9);
        let mut r2 = node_rng(9);
        let a1 = solve_with_recovery(&solver(), &a, &profile, &mut r1);
        let a2 = solve_with_recovery(&solver(), &a, &profile, &mut r2);
        assert_eq!(a1.recovery, a2.recovery);
        assert_eq!(a1.result.eigenvalues, a2.result.eigenvalues);
        assert_eq!(a1.result.iterations, a2.result.iterations);
    }

    #[test]
    fn checkpoint_restore_replays_to_identical_iterate() {
        let a = laplacian(90);
        let s = solver();
        let mut st = s.init(&a);
        for _ in 0..6 {
            s.step(&a, &mut st);
        }
        let cp = SolverCheckpoint::capture(&st);
        assert_eq!(cp.iteration(), 6);
        assert!(cp.bytes() > 0);
        let restored = cp.restore(&a, st.applies);
        assert_eq!(restored.iterations(), 6);
        assert_eq!(restored.applies, st.applies + 1);
        // The restored X block is byte-identical to the snapshot source.
        assert_eq!(restored.x.data, st.x.data);
    }
}
