//! Pins the out-of-core solve bit for bit at the benchmark's block width.
//!
//! LOBPCG with block 8 over [`UfsOperator`] builds a 24-column trial
//! subspace `[X W P]` once `P` exists, so this solve runs every kernel
//! the ooc_solve workload runs (panel SpMM, the Gram products, modified
//! Gram–Schmidt, `matmul`) at the widths it runs them. The constants were
//! captured from the column-major kernels the row-major ones replaced:
//! a change to any summation order or accumulator starting value moves
//! bits here.

use ooc::lobpcg::{Lobpcg, LobpcgOptions};
use ooc::{HamiltonianSpec, UfsMatrix, UfsOperator};
use ooctrace::TraceCapture;

const EIGENVALUE_BITS: [u64; 8] = [
    0x4000_42cf_3765_e458,
    0x4004_8769_3fac_11db,
    0x4007_7d61_cc18_1fdf,
    0x4009_eda0_b4e0_46e8,
    0x400c_1846_68ce_f4a3,
    0x400e_4b06_4b08_4f0c,
    0x4010_10ce_7762_6989,
    0x4010_cd29_2a6c_90df,
];

const RESIDUAL_BITS: [u64; 8] = [
    0x3f31_f961_d4c9_a59a,
    0x3f33_f9ce_6211_06ab,
    0x3f51_a3ea_b5dd_97cc,
    0x3f60_174a_157c_e563,
    0x3f5b_5dbf_c07d_13e1,
    0x3f7a_e5c2_efa9_6dab,
    0x3f6f_2470_8197_6acf,
    0x3f91_223f_3a46_3efb,
];

/// FNV-1a over the little-endian bytes of every eigenvector entry.
const EIGENVECTOR_FNV: u64 = 0x4cee_7b68_87db_3c1a;

fn fnv(values: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn ufs_solve_at_block_eight_is_bit_identical_to_the_pin() {
    let h = HamiltonianSpec::medium(2_000).generate();
    let diag: Vec<f64> = (0..h.n).map(|i| h.get(i, i)).collect();
    let matrix = UfsMatrix::build(&h, 128, 0, None).expect("builds");
    let cap = TraceCapture::new();
    let op = UfsOperator::new(&matrix, &cap).with_diagonal(diag);
    let res = Lobpcg::new(LobpcgOptions {
        block_size: 8,
        max_iters: 12,
        tol: 1e-9,
        seed: 42,
        precondition: true,
    })
    .solve(&op);
    // The tolerance is out of reach: every iteration runs.
    assert_eq!((res.iterations, res.operator_applies), (12, 13));
    assert!(!res.converged);
    assert_eq!(cap.into_trace().len(), 13 * matrix.panels.len());
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&res.eigenvalues), EIGENVALUE_BITS);
    assert_eq!(bits(&res.residuals), RESIDUAL_BITS);
    assert_eq!(fnv(&res.eigenvectors.data), EIGENVECTOR_FNV);
}
