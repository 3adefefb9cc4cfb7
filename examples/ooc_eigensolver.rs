//! The paper's whole pipeline, end to end:
//!
//! 1. generate a synthetic nuclear-CI Hamiltonian (the `H` of §2.1),
//! 2. serialise it into the out-of-core panel store, a file of the
//!    journaled UFS,
//! 3. run the LOBPCG block eigensolver against the store, capturing the
//!    POSIX-level I/O trace of every `H * Ψ` sweep,
//! 4. replay that trace through three storage architectures and report
//!    what the eigensolver's I/O phase would cost on each.
//!
//! Run with:
//! ```text
//! cargo run --release --example ooc_eigensolver
//! ```

use oocnvm::nvmtypes::SimError;
use oocnvm::ooc::lobpcg::{Lobpcg, LobpcgOptions};
use oocnvm::ooc::{HamiltonianSpec, UfsMatrix, UfsOperator};
use oocnvm::ooctrace::TraceCapture;
use oocnvm::prelude::*;

fn main() -> Result<(), SimError> {
    // 1. The Hamiltonian. (The paper's H has ~10^9 rows; we scale the
    //    dimension down but keep the structure — banded plus scattered
    //    two-body couplings, symmetric, diagonally dominant.)
    let spec = HamiltonianSpec::medium(6_000);
    let h = spec.generate();
    println!(
        "H: n={} nnz={} ({:.1} nnz/row), symmetric: {}",
        h.n,
        h.nnz(),
        h.nnz() as f64 / h.n as f64,
        h.is_symmetric(1e-12)
    );

    // 2. Out-of-core store: row panels in a UFS file on the (simulated)
    //    device.
    let diag: Vec<f64> = (0..h.n).map(|i| h.get(i, i)).collect();
    let ooc = UfsMatrix::build(&h, 250, 0, None)?;
    println!(
        "store: {} panels, {:.1} MiB serialised",
        ooc.panels.len(),
        ooc.bytes() as f64 / (1 << 20) as f64
    );

    // 3. LOBPCG with trace capture: every operator application streams the
    //    full store.
    let capture = TraceCapture::new();
    let operator = UfsOperator::new(&ooc, &capture).with_diagonal(diag);
    let solver = Lobpcg::new(LobpcgOptions {
        block_size: 8,
        max_iters: 30,
        tol: 1e-6,
        seed: 13,
        precondition: true,
    });
    let result = solver.solve(&operator);
    println!(
        "\nLOBPCG: {} iterations, {} operator applications, converged: {}",
        result.iterations, result.operator_applies, result.converged
    );
    println!(
        "lowest Ritz values: {:?}",
        &result.eigenvalues[..4.min(result.eigenvalues.len())]
    );

    let posix = capture.into_trace();
    println!(
        "captured I/O: {} records, {} MiB, {:.0}% reads",
        posix.len(),
        posix.total_bytes() >> 20,
        posix.read_fraction() * 100.0
    );

    // 4. What would this I/O cost on each architecture?
    println!("\n{:<16} {:>10} {:>12}", "architecture", "MB/s", "I/O time");
    let mut ufs_ms = 0.0;
    let mut ion_ms = 0.0;
    for config in [
        SystemConfig::ion_gpfs(),
        SystemConfig::cnl_ufs(),
        SystemConfig::cnl_native16(),
    ] {
        let report = ExperimentSpec::new(&config, NvmKind::Tlc).run(&posix);
        let ms = report.run.makespan as f64 / 1e6;
        println!(
            "{:<16} {:>10.0} {:>9.1} ms",
            report.label, report.bandwidth_mb_s, ms
        );
        if report.label == "CNL-UFS" {
            ufs_ms = ms;
        }
        if report.label == "ION-GPFS" {
            ion_ms = ms;
        }
    }
    println!(
        "\nper-iteration I/O saved by going compute-local with UFS: {:.1} ms ({:.1}x)",
        (ion_ms - ufs_ms) / result.operator_applies as f64,
        ion_ms / ufs_ms
    );
    Ok(())
}
