//! Pins the POSIX trace and eigenvalues of real LOBPCG runs bit for bit.
//!
//! `lobpcg_posix_trace` is what Figure 6 and `tracetool lobpcg` record.
//! The constants were captured while the trace still came from an
//! in-memory panel store, before it moved onto the journaled UFS store:
//! a store that reads a different panel, in a different order, or feeds
//! the solver different bytes moves the record count, the record digest
//! or an eigenvalue bit here.

use nvmtypes::IoOp;
use oocnvm_core::workload::lobpcg_posix_trace;
use ooctrace::PosixTrace;

/// FNV-1a over the little-endian bytes of every record's
/// `(op, file, offset, len)`, with `op` as one byte (0 read, 1 write).
fn record_digest(trace: &PosixTrace) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for r in &trace.records {
        eat(&[u8::from(r.op == IoOp::Write)]);
        eat(&r.file.to_le_bytes());
        eat(&r.offset.to_le_bytes());
        eat(&r.len.to_le_bytes());
    }
    h
}

/// Runs `lobpcg_posix_trace` and checks its record count, record digest
/// and eigenvalue bits against the pin.
fn assert_pinned(
    (n, block, iters, panel): (usize, usize, usize, usize),
    records: usize,
    digest: u64,
    eigenvalue_bits: &[u64],
) {
    let (trace, eigs) = lobpcg_posix_trace(n, block, iters, panel).expect("solves");
    assert_eq!(trace.len(), records);
    assert_eq!(record_digest(&trace), digest);
    let bits: Vec<u64> = eigs.iter().map(|v| v.to_bits()).collect();
    assert_eq!(bits, eigenvalue_bits);
}

#[test]
fn figure_six_trace_is_bit_identical_to_the_pin() {
    assert_pinned(
        (4000, 8, 6, 125),
        224,
        0x6339_89a8_51a5_d151,
        &[
            0x4000_b3ca_8917_d4c8,
            0x4004_f475_95d0_739b,
            0x4008_760a_510b_3cff,
            0x400c_8a79_9a13_704e,
            0x400d_827c_2f7b_9f5d,
            0x4010_d415_39de_1bee,
            0x4013_f28e_5661_6e87,
            0x4015_9144_6522_9070,
        ],
    );
}

#[test]
fn small_solve_trace_is_bit_identical_to_the_pin() {
    assert_pinned(
        (600, 4, 8, 100),
        54,
        0x9b3a_7937_24b9_7af8,
        &[
            0x4000_4061_d7e6_1b6d,
            0x4004_a036_e820_067c,
            0x4008_640d_30d1_a9a2,
            0x400c_f9b2_06a7_cfd6,
        ],
    );
}
