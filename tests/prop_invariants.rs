//! Property-based tests over the cross-crate invariants.

use nvmtypes::{BusTiming, HostRequest, IoOp, MediaTiming, NvmKind, SsdGeometry};
use ooc::dense::{cholesky, jacobi_eigh, mgs_orthonormalize, DMatrix};
use ooc::store::CsrPanel;
use ooc::{CsrMatrix, HamiltonianSpec, UfsMatrix};
use oocfs::FsKind;
use ooctrace::{BlockTrace, PosixTrace, TraceCapture, TraceRecord};
use proptest::prelude::*;
use rayon::prelude::*;
use ssd::StripeMap;

/// The sort-based interval merge `RawStats::finalize` used before the
/// engine kept coalesced per-die spans: drop empty intervals, sort, and
/// join overlapping or touching neighbours. The reference the
/// incremental utilization accounting is checked against.
fn oracle_merge(mut intervals: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    intervals.retain(|&(s, e)| e > s);
    intervals.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(intervals.len());
    for (s, e) in intervals {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

fn covered_len(spans: &[(u64, u64)]) -> u64 {
    spans.iter().map(|&(s, e)| e - s).sum()
}

/// What the sort-based accounting reported for a die-op log of
/// `(die, start, end)` entries.
struct OracleUtil {
    busy: Vec<(u64, u64)>,
    active_span: u64,
    channel_util: f64,
    package_util: f64,
    die_util: f64,
}

/// Recomputes Figure 9's utilizations from the raw die-op log the way
/// the sort-based `finalize` did: one global merge, then one merge per
/// package (`die % packages`) and per channel (`die % channels`).
fn oracle_util(g: &SsdGeometry, ops: &[(u32, u64, u64)], makespan: u64) -> OracleUtil {
    let union_where = |keep: &dyn Fn(u32) -> bool| {
        covered_len(&oracle_merge(
            ops.iter()
                .filter(|o| keep(o.0))
                .map(|&(_, s, e)| (s, e))
                .collect(),
        ))
    };
    let busy = oracle_merge(ops.iter().map(|&(_, s, e)| (s, e)).collect());
    let active_span = covered_len(&busy);
    let pkg_total: u64 = (0..g.total_packages())
        .map(|p| union_where(&|d| d % g.total_packages() == p))
        .sum();
    let chan_total: u64 = (0..g.channels)
        .map(|c| union_where(&|d| d % g.channels == c))
        .sum();
    let ratio = |busy: u64, units: u32, span: u64| {
        if span == 0 {
            0.0
        } else {
            (busy as f64 / (u64::from(units) * span) as f64).min(1.0)
        }
    };
    let die_total: u64 = ops.iter().map(|&(_, s, e)| e - s).sum();
    OracleUtil {
        channel_util: ratio(chan_total, g.channels, active_span),
        package_util: ratio(pkg_total, g.total_packages(), active_span),
        die_util: ratio(die_total, g.total_dies(), makespan),
        busy,
        active_span,
    }
}

/// `CsrPanel::spmm_into` as it was before the row-major kernel, verbatim:
/// `m` strided loads per nonzero into a column-major `Y`. The reference
/// every SpMM entry point is checked against bit for bit.
fn oracle_spmm_into(panel: &CsrPanel, x: &DMatrix, y: &mut DMatrix) {
    for local in 0..panel.rows() {
        let i = panel.row_start + local;
        let (lo, hi) = (
            panel.row_ptr[local] as usize,
            panel.row_ptr[local + 1] as usize,
        );
        for k in lo..hi {
            let j = panel.col_idx[k] as usize;
            let v = panel.values[k];
            for c in 0..x.ncols {
                y.col_mut(c)[i] += v * x.col(c)[j];
            }
        }
    }
}

/// `DMatrix::transpose_mul` as it was before the tiled kernel, verbatim:
/// one `Iterator::sum` over all `n` rows per output entry.
fn oracle_transpose_mul(this: &DMatrix, other: &DMatrix) -> DMatrix {
    assert_eq!(this.nrows, other.nrows, "dimension mismatch");
    let n = this.nrows;
    let mut out = DMatrix::zeros(this.ncols, other.ncols);
    let cols: Vec<Vec<f64>> = (0..other.ncols)
        .into_par_iter()
        .map(|j| {
            let b = other.col(j);
            (0..this.ncols)
                .map(|i| {
                    let a = this.col(i);
                    (0..n).map(|r| a[r] * b[r]).sum()
                })
                .collect()
        })
        .collect();
    for (j, col) in cols.into_iter().enumerate() {
        out.col_mut(j).copy_from_slice(&col);
    }
    out
}

/// `mgs_orthonormalize` as it was before the first-pass lookahead,
/// verbatim: both passes run column by column.
fn oracle_mgs(s: &DMatrix, tol: f64) -> (DMatrix, Vec<usize>) {
    let n = s.nrows;
    let mut q_cols: Vec<Vec<f64>> = Vec::with_capacity(s.ncols);
    let mut kept = Vec::with_capacity(s.ncols);
    for j in 0..s.ncols {
        let mut v = s.col(j).to_vec();
        // Two MGS passes for numerical robustness.
        for _ in 0..2 {
            for q in &q_cols {
                let dot: f64 = (0..n).map(|r| q[r] * v[r]).sum();
                for r in 0..n {
                    v[r] -= dot * q[r];
                }
            }
        }
        let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm > tol {
            for x in &mut v {
                *x /= norm;
            }
            q_cols.push(v);
            kept.push(j);
        }
    }
    let mut q = DMatrix::zeros(n, q_cols.len());
    for (j, col) in q_cols.into_iter().enumerate() {
        q.col_mut(j).copy_from_slice(&col);
    }
    (q, kept)
}

/// A deterministic value stream for the kernel oracles: exact zeros of
/// both signs, small integers (whose products cancel to exact zeros) and
/// arbitrary reals.
struct Values(u64);

impl Values {
    fn next_u32(&mut self) -> u32 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 32) as u32
    }

    fn next(&mut self) -> f64 {
        let r = self.next_u32();
        let rest = r >> 3;
        match r & 7 {
            0 => 0.0,
            1 => -0.0,
            2 | 3 => f64::from(rest % 5) - 2.0,
            _ => f64::from(rest) / f64::from(1u32 << 28) - 1.0,
        }
    }

    fn block(&mut self, nrows: usize, ncols: usize) -> DMatrix {
        let mut m = DMatrix::zeros(nrows, ncols);
        for v in m.data.iter_mut() {
            *v = self.next();
        }
        m
    }

    /// A square CSR matrix with up to `per_row` entries per row; some
    /// rows come out empty.
    fn csr(&mut self, n: usize, per_row: usize) -> CsrMatrix {
        let rows = (0..n)
            .map(|_| {
                let mut cols: Vec<u32> = (0..per_row).map(|_| self.next_u32() % n as u32).collect();
                cols.sort_unstable();
                cols.dedup();
                cols.into_iter().map(|c| (c, self.next())).collect()
            })
            .collect();
        CsrMatrix::from_rows(n, rows)
    }

    /// A block whose columns include duplicates, scaled and summed copies,
    /// near-copies and zero columns of earlier ones, so Gram–Schmidt
    /// drops some.
    fn dependent_block(&mut self, nrows: usize, ncols: usize) -> DMatrix {
        let mut m = self.block(nrows, ncols);
        for j in 1..ncols {
            let a = self.next_u32() as usize % j;
            let b = self.next_u32() as usize % j;
            let (ca, cb) = (m.col(a).to_vec(), m.col(b).to_vec());
            let kind = self.next_u32() % 6;
            for (r, v) in m.col_mut(j).iter_mut().enumerate() {
                *v = match kind {
                    0 => ca[r],
                    1 => -0.5 * ca[r],
                    2 => ca[r] + cb[r],
                    3 => ca[r] * (1.0 + 1e-14),
                    4 => 0.0,
                    _ => *v,
                };
            }
        }
        m
    }
}

fn bits(m: &DMatrix) -> (usize, usize, Vec<u64>) {
    (
        m.nrows,
        m.ncols,
        m.data.iter().map(|v| v.to_bits()).collect(),
    )
}

fn media_config(kind: NvmKind, paper: bool, cache_registers: bool) -> flashsim::MediaConfig {
    let bus = BusTiming {
        name: "t",
        bytes_per_ns: 0.4,
    };
    let mut cfg = if paper {
        flashsim::MediaConfig::paper(kind, bus)
    } else {
        flashsim::MediaConfig::tiny(kind, bus)
    };
    cfg.cache_registers = cache_registers;
    cfg
}

fn arb_kind() -> impl Strategy<Value = NvmKind> {
    prop_oneof![
        Just(NvmKind::Slc),
        Just(NvmKind::Mlc),
        Just(NvmKind::Tlc),
        Just(NvmKind::Pcm)
    ]
}

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
        kind in 0usize..4,
        start in 0u64..100_000,
        count in 1u64..40_000,
    ) {
        // The paper geometry has the same 256-slot stripe on every medium
        // (only blocks per plane differ), so the medium changes the
        // capacity, not the walk. Counts reach past a 2 MiB piece of
        // PCM's 64 B pages: many whole stripes plus a remainder.
        let kind = [NvmKind::Slc, NvmKind::Mlc, NvmKind::Tlc, NvmKind::Pcm][kind];
        let g = SsdGeometry::paper(kind);
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
        let ooc = UfsMatrix::build(&h, rows_per_panel, 0, None).expect("builds");
        let cap = TraceCapture::new();
        let mut nnz = 0usize;
        let mut rows = 0usize;
        for idx in 0..ooc.panels.len() {
            let p = ooc.read_panel(idx, &cap).expect("reads");
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
        let ooc = UfsMatrix::build(&h, panel, 0, None).expect("builds");
        let mut x = DMatrix::zeros(n, cols);
        for (i, v) in x.data.iter_mut().enumerate() {
            *v = ((i * 2654435761) % 1000) as f64 / 500.0 - 1.0;
        }
        let cap = TraceCapture::new();
        let y = ooc.spmm_traced(&x, &cap).expect("sweeps");
        let want = h.spmm(&x);
        for i in 0..n {
            for j in 0..cols {
                prop_assert!((y[(i, j)] - want[(i, j)]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn store_traces_one_write_then_one_read_per_panel(
        n in 1usize..120,
        per_row in 0usize..6,
        rows_per_panel in 1usize..40,
        file in 0u32..4,
        seed in 0u64..1_000_000,
    ) {
        let mut vals = Values(seed);
        let a = vals.csr(n, per_row);
        let cap = TraceCapture::new();
        let fsm = UfsMatrix::build(&a, rows_per_panel, file, Some(&cap)).expect("builds");
        fsm.spmm_traced(&vals.block(n, 2), &cap).expect("sweeps");
        // The directory tiles the rows and the serialised bytes in order.
        let (mut row, mut offset) = (0, 0);
        for p in &fsm.panels {
            prop_assert_eq!((p.row_start, p.offset), (row, offset));
            prop_assert!(p.row_end > p.row_start && p.row_end - p.row_start <= rows_per_panel);
            (row, offset) = (p.row_end, p.offset + p.len);
        }
        prop_assert_eq!((row, offset), (n, fsm.bytes()));
        // Build writes every panel once, the sweep reads every panel once.
        let got: Vec<_> = cap.into_trace().records.iter().map(|r| (r.op, r.file, r.offset, r.len)).collect();
        let want: Vec<_> = [IoOp::Write, IoOp::Read]
            .into_iter()
            .flat_map(|op| fsm.panels.iter().map(move |p| (op, file, p.offset, p.len)))
            .collect();
        prop_assert_eq!(got, want);
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
    fn spmm_entry_points_are_bit_identical_to_the_column_major_oracle(
        n in 1usize..48,
        m in 1usize..27,
        per_row in 0usize..9,
        rows_per_panel in 1usize..20,
        seed in 0u64..1_000_000,
    ) {
        let mut vals = Values(seed);
        let a = vals.csr(n, per_row);
        let x = vals.block(n, m);
        let whole = CsrPanel {
            row_start: 0,
            row_ptr: a.row_ptr.clone(),
            col_idx: a.col_idx.clone(),
            values: a.values.clone(),
        };
        let mut want = DMatrix::zeros(n, m);
        oracle_spmm_into(&whole, &x, &mut want);
        prop_assert_eq!(bits(&a.spmm(&x)), bits(&want));

        let cap = TraceCapture::new();
        let fsm = UfsMatrix::build(&a, rows_per_panel, 0, None).expect("builds");
        let y = fsm.spmm_traced(&x, &cap).expect("sweeps");
        prop_assert_eq!(bits(&y), bits(&want));

        // The column-major adapter keeps its `+=` contract onto whatever
        // `Y` holds, zeros of either sign included.
        let y0 = vals.block(n, m);
        let (mut got, mut want) = (y0.clone(), y0);
        for idx in 0..fsm.panels.len() {
            let panel = fsm.read_panel(idx, &cap).expect("reads");
            panel.spmm_into(&x, &mut got);
            oracle_spmm_into(&panel, &x, &mut want);
        }
        prop_assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn transpose_mul_is_bit_identical_to_the_oracle(
        n in 0usize..40,
        p in 0usize..11,
        q in 0usize..11,
        seed in 0u64..1_000_000,
    ) {
        let mut vals = Values(seed);
        let a = vals.block(n, p);
        let b = vals.block(n, q);
        prop_assert_eq!(bits(&a.transpose_mul(&b)), bits(&oracle_transpose_mul(&a, &b)));
        prop_assert_eq!(bits(&a.transpose_mul(&a)), bits(&oracle_transpose_mul(&a, &a)));
    }

    #[test]
    fn mgs_is_bit_identical_to_the_oracle(
        n in 1usize..40,
        m in 1usize..14,
        tol_exp in -14i32..-6,
        seed in 0u64..1_000_000,
    ) {
        let mut vals = Values(seed);
        let s = vals.dependent_block(n, m);
        let tol = 10f64.powi(tol_exp);
        let (q, kept) = mgs_orthonormalize(&s, tol);
        let (want_q, want_kept) = oracle_mgs(&s, tol);
        prop_assert_eq!(kept, want_kept);
        prop_assert_eq!(bits(&q), bits(&want_q));
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
        // Sanity of the oracle the utilization tests below rely on.
        let intervals: Vec<(u64, u64)> = iv.iter().map(|&(s, l)| (s, s + l)).collect();
        let sum: u64 = intervals.iter().map(|&(s, e)| e - s).sum();
        let merged = oracle_merge(intervals);
        prop_assert!(covered_len(&merged) <= sum);
        // Merged intervals are sorted and disjoint.
        for w in merged.windows(2) {
            prop_assert!(w[0].1 < w[1].0);
        }
    }

    /// The coalesced per-die spans and the die → package → channel →
    /// device unions equal the sort-based oracle exactly, with cache
    /// registers off (a die's ops never overlap) and on (they may).
    /// An op flagged `chained` arrives when the previous op ended, so
    /// spans that touch across dies are common.
    #[test]
    fn finalize_matches_the_sort_based_oracle(
        ops in prop::collection::vec(
            (0u64..400_000, prop::bool::ANY, 0u32..128, 1u32..=2, 1u64..16, 0u8..3),
            1..120,
        ),
        kind in arb_kind(),
        paper in prop::bool::ANY,
        cache_registers in prop::bool::ANY,
    ) {
        use flashsim::{DieOp, MediaSim};
        use nvmtypes::DieIndex;
        let cfg = media_config(kind, paper, cache_registers);
        let g = cfg.geometry;
        let mut sim = MediaSim::new(cfg);
        let mut log: Vec<(u32, u64, u64)> = Vec::with_capacity(ops.len());
        for &(at, chained, die, planes, pages, op_kind) in &ops {
            let arrival = match log.last() {
                Some(&(_, _, end)) if chained => end,
                _ => at,
            };
            let die = DieIndex(die % g.total_dies());
            let op = match op_kind {
                0 => DieOp::read(die, planes, pages, 0),
                1 => DieOp::write(die, planes, pages, at % 7),
                _ => DieOp::erase(die, pages),
            };
            let out = sim.execute(arrival, &op);
            log.push((die.0, out.start, out.end));
        }
        let makespan = log.iter().map(|o| o.2).max().unwrap_or(0);
        let st = sim.stats();
        for (die, spans) in st.die_spans.iter().enumerate() {
            let want = oracle_merge(
                log.iter()
                    .filter(|o| o.0 as usize == die)
                    .map(|&(_, s, e)| (s, e))
                    .collect(),
            );
            prop_assert_eq!(spans, &want, "die {}", die);
        }
        let rep = st.finalize(&cfg, makespan, 0);
        let want = oracle_util(&g, &log, makespan);
        prop_assert_eq!(&rep.busy, &want.busy);
        prop_assert_eq!(rep.active_span, want.active_span);
        prop_assert_eq!(rep.channel_util.to_bits(), want.channel_util.to_bits());
        prop_assert_eq!(rep.package_util.to_bits(), want.package_util.to_bits());
        prop_assert_eq!(rep.die_util.to_bits(), want.die_util.to_bits());
    }

    /// Through `SsdDevice::run`: the traced die-op and host-DMA spans,
    /// fed to the oracle, reproduce the report's busy spans,
    /// utilizations and `dma_media_idle` exactly.
    #[test]
    fn device_run_utilization_matches_the_sort_based_oracle(
        reqs in prop::collection::vec((0u64..4096, 1u64..64, prop::bool::ANY), 1..40),
        qd in 1u32..32,
        kind in arb_kind(),
        paper in prop::bool::ANY,
        cache_registers in prop::bool::ANY,
    ) {
        use flashsim::intervals::uncovered_len;
        use interconnect::{pcie, LinkChain, PcieGen};
        use simobs::{EventKind, Layer, Tracer};
        use ssd::{SsdConfig, SsdDevice};
        let requests: Vec<HostRequest> = reqs
            .into_iter()
            .map(|(off, kib, read)| {
                if read {
                    HostRequest::read(off * 4096, kib * 1024)
                } else {
                    HostRequest::write(off * 4096, kib * 1024)
                }
            })
            .collect();
        let trace = BlockTrace::from_requests(requests, qd);
        let cfg = media_config(kind, paper, cache_registers);
        let dev = SsdDevice::new(SsdConfig::new(cfg, LinkChain::single(pcie(PcieGen::Gen2, 8))));
        let mut obs = Tracer::ring(1 << 20);
        let rep = dev.run_observed(&trace, &mut obs);
        let log = obs.finish();
        prop_assert_eq!(log.dropped, 0);
        let die_ops: Vec<(u32, u64, u64)> = log
            .events
            .iter()
            .filter(|e| e.layer == Layer::Media && e.kind == EventKind::Span)
            .map(|e| (e.args[0].1 as u32, e.ts, e.ts + e.dur))
            .collect();
        let dma: Vec<(u64, u64)> = log
            .events
            .iter()
            .filter(|e| e.layer == Layer::Link && e.name == "host_dma")
            .map(|e| (e.ts, e.ts + e.dur))
            .collect();
        prop_assert_eq!(dma.len(), trace.len());
        let want = oracle_util(&cfg.geometry, &die_ops, rep.makespan);
        prop_assert_eq!(&rep.media.busy, &want.busy);
        prop_assert_eq!(rep.media.active_span, want.active_span);
        prop_assert_eq!(rep.media.channel_util.to_bits(), want.channel_util.to_bits());
        prop_assert_eq!(rep.media.package_util.to_bits(), want.package_util.to_bits());
        prop_assert_eq!(rep.media.die_util.to_bits(), want.die_util.to_bits());
        let idle: u64 = dma.iter().map(|&(s, e)| uncovered_len(s, e, &want.busy)).sum();
        prop_assert_eq!(rep.dma_media_idle, idle);
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
