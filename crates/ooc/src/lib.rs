//! # ooc — the out-of-core application substrate
//!
//! The paper's workload (§2.1) is a configuration-interaction nuclear
//! structure calculation: a parallel iterative eigensolver — LOBPCG — whose
//! dominant cost is repeatedly multiplying the enormous sparse many-body
//! Hamiltonian `H` against a tall skinny block of vectors `Ψ` (10–20
//! columns), with `H` preprocessed once and streamed from capacity storage
//! every iteration. This crate builds that application for real:
//!
//! * [`dense`] — the small dense kernels an eigensolver needs (column-major
//!   matrices, Cholesky, modified Gram–Schmidt, a cyclic Jacobi symmetric
//!   eigensolver for the Rayleigh–Ritz step);
//! * [`sparse`] — CSR sparse matrices and the one row-major `SpMM` kernel;
//! * [`hamiltonian`] — a synthetic sparse symmetric "nuclear CI"
//!   Hamiltonian generator (banded many-body structure plus scattered
//!   interaction blocks), substituting for the MFDn matrices the paper
//!   reads from Carver's storage;
//! * [`store`] — the out-of-core matrix store: `H` is serialised into row
//!   panels held in one file of a journaled UFS ([`UfsMatrix`]) over a
//!   simulated block device, and every panel read is captured as a
//!   POSIX-level trace record (§4.2's tracing methodology);
//! * [`lobpcg`] — the locally optimal block preconditioned conjugate
//!   gradient eigensolver [Knyazev '01], reading `H` through the store
//!   each iteration;
//! * [`checkpoint`] — solver checkpoint/restart under simulated node
//!   loss, driven by the deterministic fault plan in `nvmtypes::fault`
//!   (docs/FAULT_MODEL.md).
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod dense;
pub mod hamiltonian;
pub mod lobpcg;
pub mod matrixmarket;
pub mod sparse;
pub mod store;

pub use checkpoint::{solve_with_recovery, RecoveredResult, RecoveryStats, SolverCheckpoint};
pub use dense::DMatrix;
pub use hamiltonian::HamiltonianSpec;
pub use lobpcg::{Lobpcg, LobpcgOptions, LobpcgResult, SolverState};
pub use matrixmarket::{from_matrix_market, to_matrix_market};
pub use sparse::CsrMatrix;
pub use store::{UfsMatrix, UfsOperator};
