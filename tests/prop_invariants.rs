//! Property-based tests over the cross-crate invariants.

use nvmtypes::{BusTiming, HostRequest, IoOp, MediaTiming, NvmKind, SsdGeometry};
use ooc::dense::{cholesky, jacobi_eigh, mgs_orthonormalize, DMatrix};
use ooc::{HamiltonianSpec, OocMatrix};
use oocfs::FsKind;
use ooctrace::{BlockTrace, PosixTrace, TraceCapture, TraceRecord};
use proptest::prelude::*;
use ssd::StripeMap;

fn arb_posix_trace() -> impl Strategy<Value = PosixTrace> {
    // Records with block-aligned offsets/lengths so byte conservation is
    // exact through every local file system.
    prop::collection::vec((0u64..256, 1u64..64, prop::bool::ANY), 1..40).prop_map(|recs| {
        let mut t = PosixTrace::new();
        for (i, (block_off, blocks, is_read)) in recs.into_iter().enumerate() {
            t.push(TraceRecord {
                t: i as u64,
                op: if is_read { IoOp::Read } else { IoOp::Write },
                file: (i % 3) as u32,
                offset: block_off * 4096,
                len: blocks * 4096,
            });
        }
        t
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_fs_conserves_block_aligned_data_bytes(trace in arb_posix_trace()) {
        for kind in FsKind::ALL {
            let out = kind.transform(&trace);
            prop_assert_eq!(
                out.data_bytes(),
                trace.total_bytes(),
                "{} lost bytes", kind.label()
            );
        }
    }

    #[test]
    fn fs_transforms_are_deterministic(trace in arb_posix_trace()) {
        for kind in FsKind::ALL {
            prop_assert_eq!(kind.transform(&trace), kind.transform(&trace));
        }
    }

    #[test]
    fn stripe_decomposition_conserves_pages_and_respects_geometry(
        start in 0u64..100_000,
        count in 1u64..5_000,
    ) {
        let g = SsdGeometry::paper(NvmKind::Tlc);
        let map = StripeMap::default_order(g);
        let runs = map.decompose(start, count);
        let total: u64 = runs.iter().map(|r| r.pages).sum();
        prop_assert_eq!(total, count);
        for r in &runs {
            prop_assert!(r.die.0 < g.total_dies());
            prop_assert!(r.planes >= 1 && r.planes <= g.planes_per_die);
            prop_assert!(r.pages >= 1);
        }
        // No die repeats.
        let mut dies: Vec<u32> = runs.iter().map(|r| r.die.0).collect();
        dies.sort_unstable();
        dies.dedup();
        prop_assert_eq!(dies.len(), runs.len());
    }

    #[test]
    fn device_run_invariants(
        reqs in prop::collection::vec((0u64..1_000_000, 1u64..256), 1..40),
        qd in 1u32..32,
    ) {
        use interconnect::{pcie, LinkChain, PcieGen};
        use flashsim::MediaConfig;
        use ssd::{SsdConfig, SsdDevice};
        let requests: Vec<HostRequest> = reqs
            .into_iter()
            .map(|(off, kib)| HostRequest::read(off * 4096, kib * 1024))
            .collect();
        let trace = BlockTrace::from_requests(requests, qd);
        let media = MediaConfig::paper(NvmKind::Mlc, BusTiming { name: "t", bytes_per_ns: 0.4 });
        let dev = SsdDevice::new(SsdConfig::new(media, LinkChain::single(pcie(PcieGen::Gen2, 8))));
        let rep = dev.run(&trace);
        prop_assert!(rep.makespan > 0);
        // Media moved at least the payload (page rounding only adds).
        prop_assert!(rep.media.bytes >= rep.total_bytes);
        // Utilizations and percentages are well-formed.
        prop_assert!((0.0..=1.0).contains(&rep.media.channel_util));
        prop_assert!((0.0..=1.0).contains(&rep.media.package_util));
        prop_assert!((0.0..=1.0).contains(&rep.media.die_util));
        prop_assert!((rep.pal.percent().iter().sum::<f64>() - 100.0).abs() < 1e-6);
        let bp: f64 = rep.media.breakdown.percent().iter().sum();
        prop_assert!((bp - 100.0).abs() < 1e-6);
        // The device can never beat its host link or media bus.
        let ceiling_mb_s = 4_000.0f64.min(3_200.0) * 1.05;
        prop_assert!(rep.bandwidth_mb_s <= ceiling_mb_s, "bw {}", rep.bandwidth_mb_s);
        // Active span is within the makespan.
        prop_assert!(rep.media.active_span <= rep.makespan);
    }

    #[test]
    fn ooc_store_round_trips_any_panel_size(
        n in 10usize..400,
        rows_per_panel in 1usize..80,
    ) {
        let h = HamiltonianSpec::tiny(n.max(16)).generate();
        let ooc = OocMatrix::build(&h, rows_per_panel, 0, None);
        let cap = TraceCapture::new();
        let mut nnz = 0usize;
        let mut rows = 0usize;
        for idx in 0..ooc.panels.len() {
            let p = ooc.read_panel(idx, &cap);
            nnz += p.values.len();
            rows += p.rows();
        }
        prop_assert_eq!(nnz, h.nnz());
        prop_assert_eq!(rows, h.n);
    }

    #[test]
    fn traced_spmm_equals_in_memory_spmm(
        n in 16usize..200,
        cols in 1usize..5,
        panel in 5usize..60,
    ) {
        let h = HamiltonianSpec::tiny(n).generate();
        let ooc = OocMatrix::build(&h, panel, 0, None);
        let mut x = DMatrix::zeros(n, cols);
        for (i, v) in x.data.iter_mut().enumerate() {
            *v = ((i * 2654435761) % 1000) as f64 / 500.0 - 1.0;
        }
        let cap = TraceCapture::new();
        let y = ooc.spmm_traced(&x, &cap);
        let want = h.spmm(&x);
        for i in 0..n {
            for j in 0..cols {
                prop_assert!((y[(i, j)] - want[(i, j)]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn mgs_output_is_orthonormal(
        n in 4usize..30,
        m in 1usize..6,
        seed in 0u64..1000,
    ) {
        let mut s = DMatrix::zeros(n, m.min(n));
        let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        for v in s.data.iter_mut() {
            state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            *v = ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0;
        }
        let (q, kept) = mgs_orthonormalize(&s, 1e-10);
        prop_assert!(kept.len() <= s.ncols);
        let gram = q.transpose_mul(&q);
        for i in 0..q.ncols {
            for j in 0..q.ncols {
                let want = if i == j { 1.0 } else { 0.0 };
                prop_assert!((gram[(i, j)] - want).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn jacobi_eigh_reconstructs_the_matrix(
        n in 2usize..10,
        seed in 0u64..500,
    ) {
        // Random symmetric A: check A v_k = λ_k v_k for all pairs.
        let mut a = DMatrix::zeros(n, n);
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        for i in 0..n {
            for j in 0..=i {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let v = ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0;
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        let (vals, vecs) = jacobi_eigh(&a);
        // Eigenvalues ascending.
        for w in vals.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-12);
        }
        let av = a.matmul(&vecs);
        for k in 0..n {
            for i in 0..n {
                prop_assert!(
                    (av[(i, k)] - vals[k] * vecs[(i, k)]).abs() < 1e-7,
                    "A v != lambda v at ({i},{k})"
                );
            }
        }
    }

    #[test]
    fn cholesky_round_trips_spd_matrices(n in 1usize..8, seed in 0u64..200) {
        // Build SPD as B^T B + n*I.
        let mut b = DMatrix::zeros(n, n);
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(7);
        for v in b.data.iter_mut() {
            state = state.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(7);
            *v = ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0;
        }
        let mut a = b.transpose_mul(&b);
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        let l = cholesky(&a).expect("SPD");
        // L L^T == A.
        let mut lt = DMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                lt[(i, j)] = l[(j, i)];
            }
        }
        let back = l.matmul(&lt);
        for i in 0..n {
            for j in 0..n {
                prop_assert!((back[(i, j)] - a[(i, j)]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn hamiltonian_is_always_valid_symmetric(
        n in 2usize..300,
        band in 1usize..10,
        cpr in 0usize..6,
        seed in 0u64..100,
    ) {
        let h = HamiltonianSpec { n, band, couplings_per_row: cpr, seed }.generate();
        prop_assert!(h.validate().is_ok());
        prop_assert!(h.is_symmetric(1e-12));
    }

    #[test]
    fn write_latency_closed_form_matches_naive(
        start in 0u64..50,
        count in 0u64..200,
    ) {
        for kind in NvmKind::ALL {
            let t = MediaTiming::table1(kind);
            let naive: u64 = (0..count).map(|i| t.write_latency_at(start + i)).sum();
            prop_assert_eq!(flashsim::op::sum_write_latency(&t, start, count), naive);
        }
    }

    #[test]
    fn posix_text_round_trip(trace in arb_posix_trace()) {
        let text = trace.to_text();
        let back = PosixTrace::from_text(&text).unwrap();
        prop_assert_eq!(trace, back);
    }

    #[test]
    fn interval_union_bounds(
        iv in prop::collection::vec((0u64..1000, 1u64..100), 0..30),
    ) {
        use flashsim::intervals::{merge, union_len};
        let intervals: Vec<(u64, u64)> = iv.iter().map(|&(s, l)| (s, s + l)).collect();
        let sum: u64 = intervals.iter().map(|&(s, e)| e - s).sum();
        let union = union_len(intervals.clone());
        prop_assert!(union <= sum);
        let merged = merge(intervals);
        // Merged intervals are sorted and disjoint.
        for w in merged.windows(2) {
            prop_assert!(w[0].1 < w[1].0);
        }
    }
}

#[test]
fn csr_spmm_matches_dense_reference() {
    // Non-proptest cross-check on a structured case.
    let h = HamiltonianSpec::tiny(64).generate();
    let mut x = DMatrix::zeros(64, 3);
    for (i, v) in x.data.iter_mut().enumerate() {
        *v = (i as f64).sin();
    }
    let sparse = h.spmm(&x);
    let dense = h.to_dense().matmul(&x);
    for i in 0..64 {
        for j in 0..3 {
            assert!((sparse[(i, j)] - dense[(i, j)]).abs() < 1e-10);
        }
    }
}

#[test]
fn csr_validation_rejects_corruption() {
    let mut h = HamiltonianSpec::tiny(32).generate();
    h.row_ptr[5] = h.row_ptr[6] + 1; // non-monotone
    assert!(h.validate().is_err());
    let mut h2 = HamiltonianSpec::tiny(32).generate();
    if h2.col_idx.len() > 3 {
        h2.col_idx.swap(0, 1);
        assert!(h2.validate().is_err() || h2.col_idx[0] == h2.col_idx[1]);
    }
}
