//! End-to-end pipeline tests: real eigensolver -> trace capture -> file
//! system mutation -> SSD simulation, exercising every crate in one flow.

use nvmtypes::NvmKind;
use ooc::lobpcg::{Lobpcg, LobpcgOptions, Operator};
use ooc::{CsrMatrix, HamiltonianSpec, UfsMatrix, UfsOperator};
use oocfs::FsKind;
use oocnvm_core::config::SystemConfig;
use oocnvm_core::experiment::ExperimentSpec;
use ooctrace::{AccessStats, TraceCapture};

fn hamiltonian(n: usize) -> CsrMatrix {
    HamiltonianSpec {
        n,
        band: 8,
        couplings_per_row: 4,
        seed: 99,
    }
    .generate()
}

#[test]
fn lobpcg_over_the_store_matches_in_memory_lobpcg() {
    let h = hamiltonian(800);
    let ooc = UfsMatrix::build(&h, 100, 0, None).unwrap();
    let cap = TraceCapture::new();
    let diag = h.diagonal().unwrap();
    let traced = UfsOperator::new(&ooc, &cap).with_diagonal(diag);

    let opts = LobpcgOptions {
        block_size: 6,
        max_iters: 120,
        tol: 1e-7,
        seed: 5,
        precondition: true,
    };
    let direct = Lobpcg::new(opts).solve(&h);
    let streamed = Lobpcg::new(opts).solve(&traced);

    assert!(direct.converged && streamed.converged);
    for k in 0..6 {
        assert!(
            (direct.eigenvalues[k] - streamed.eigenvalues[k]).abs() < 1e-6,
            "eigenvalue {k}: {} vs {}",
            direct.eigenvalues[k],
            streamed.eigenvalues[k]
        );
    }
    // The streamed solve really did go through storage.
    assert!(!cap.is_empty());
}

#[test]
fn eigenvectors_are_orthonormal_and_satisfy_rayleigh_quotient() {
    let h = hamiltonian(600);
    let res = Lobpcg::new(LobpcgOptions {
        block_size: 4,
        max_iters: 150,
        tol: 1e-7,
        seed: 1,
        precondition: true,
    })
    .solve(&h);
    assert!(res.converged, "residuals {:?}", res.residuals);
    let x = &res.eigenvectors;
    let gram = x.transpose_mul(x);
    for i in 0..4 {
        for j in 0..4 {
            let want = if i == j { 1.0 } else { 0.0 };
            assert!(
                (gram[(i, j)] - want).abs() < 1e-6,
                "gram[{i}{j}]={}",
                gram[(i, j)]
            );
        }
    }
    // Rayleigh quotients equal the eigenvalues.
    let ax = h.spmm(x);
    let xtax = x.transpose_mul(&ax);
    for k in 0..4 {
        assert!((xtax[(k, k)] - res.eigenvalues[k]).abs() < 1e-5);
    }
}

#[test]
fn solver_trace_has_the_papers_shape() {
    // §3.1/§4.2: heavily read-intensive, iterative, highly sequential.
    let (trace, _) = oocnvm_core::workload::lobpcg_posix_trace(1500, 6, 10, 150).unwrap();
    let stats = AccessStats::of_posix(&trace);
    assert!((trace.read_fraction() - 1.0).abs() < 1e-12, "not read-only");
    assert!(
        stats.sequentiality > 0.85,
        "sequentiality {}",
        stats.sequentiality
    );
    // Iterative: the same bytes are read many times over.
    let distinct: u64 = {
        let mut spans: Vec<(u64, u64)> =
            trace.records.iter().map(|r| (r.offset, r.end())).collect();
        spans.sort_unstable();
        let mut covered = 0;
        let mut cursor = 0;
        for (s, e) in spans {
            let s = s.max(cursor);
            if e > s {
                covered += e - s;
                cursor = e;
            }
        }
        covered
    };
    assert!(
        trace.total_bytes() > 3 * distinct,
        "total {} vs distinct {}",
        trace.total_bytes(),
        distinct
    );
}

#[test]
fn full_stack_replay_runs_on_every_architecture() {
    let (trace, eigs) = oocnvm_core::workload::lobpcg_posix_trace(1200, 4, 6, 120).unwrap();
    assert!(eigs.iter().all(|v| v.is_finite()));
    for config in SystemConfig::table2() {
        let report = ExperimentSpec::new(&config, NvmKind::Mlc).run(&trace);
        assert!(
            report.bandwidth_mb_s > 50.0,
            "{} too slow: {}",
            config.label,
            report.bandwidth_mb_s
        );
        assert!(report.run.makespan > 0);
        assert!((report.pal_pct.iter().sum::<f64>() - 100.0).abs() < 1e-6);
        assert!((report.breakdown_pct.iter().sum::<f64>() - 100.0).abs() < 1e-6);
    }
}

#[test]
fn preload_then_iterate_write_then_read() {
    // §3.1: "all required data should be able to be pre-loaded ... prior
    // to beginning the computation". Model the preload as traced writes,
    // then iterate reads; the CNL device must handle both phases.
    let h = hamiltonian(1000);
    let cap = TraceCapture::new();
    let ooc = UfsMatrix::build(&h, 125, 0, Some(&cap)).unwrap();
    // Two read sweeps after the preload.
    let x = ooc::DMatrix::zeros(h.n, 4);
    ooc.spmm_traced(&x, &cap).unwrap();
    ooc.spmm_traced(&x, &cap).unwrap();
    let trace = cap.into_trace();
    assert!(trace.read_fraction() > 0.6 && trace.read_fraction() < 0.7);

    let config = SystemConfig::cnl_ufs();
    let report = ExperimentSpec::new(&config, NvmKind::Slc).run(&trace);
    assert!(report.bandwidth_mb_s > 100.0);
    assert_eq!(report.run.total_bytes, trace.total_bytes());
}

#[test]
fn gpfs_mutation_of_the_real_trace_reproduces_figure6() {
    let (posix, _) = oocnvm_core::workload::lobpcg_posix_trace(1500, 4, 6, 100).unwrap();
    let gpfs = FsKind::IonGpfs.transform(&posix);
    let ufs = FsKind::Ufs.transform(&posix);
    let p = AccessStats::of_posix(&posix);
    let g = AccessStats::of_block(&gpfs);
    let u = AccessStats::of_block(&ufs);
    // GPFS destroys the sequentiality the application emitted; UFS keeps it.
    assert!(p.sequentiality > 0.85);
    assert!(g.sequentiality < 0.3 * p.sequentiality);
    assert!(u.sequentiality >= p.sequentiality * 0.9);
    // GPFS also fragments the requests.
    assert!(g.mean_size < u.mean_size);
}
