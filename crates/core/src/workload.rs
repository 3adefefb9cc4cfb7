//! Workload builders: synthetic out-of-core sweeps and real LOBPCG traces.

use nvmtypes::{IoOp, SimError, MIB};
use ooc::lobpcg::{Lobpcg, LobpcgOptions};
use ooc::{HamiltonianSpec, UfsMatrix, UfsOperator};
use ooctrace::{PosixTrace, TraceCapture, TraceRecord};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The most records a command line may ask [`synthetic_ooc_trace`] for,
/// counted as the workload's bytes over the record size (the ±12%
/// jitter adds at most a seventh more): 2^20 records.
pub const MAX_SYNTHETIC_RECORDS: u64 = 1 << 20;

/// Checks a command line's synthetic workload — `mib` MiB read in
/// `record_kib` KiB records — before any trace is built, and returns
/// the `(total_bytes, record_size)` pair [`synthetic_ooc_trace`] takes.
///
/// # Errors
/// [`SimError::InvalidConfig`] naming the flag when the workload is
/// empty, a record is below 4 KiB, a byte count overflows `u64`, or the
/// workload needs more than [`MAX_SYNTHETIC_RECORDS`] records.
pub fn synthetic_shape(mib: u64, record_kib: u64) -> Result<(u64, u64), SimError> {
    let bad = |field: &str, reason: String| Err(SimError::invalid_config(field, reason));
    let Some(total) = mib.checked_mul(MIB).filter(|&b| b > 0) else {
        return bad("--mib", format!("{mib} MiB is not a byte count above zero"));
    };
    let Some(record) = record_kib.checked_mul(1024).filter(|&b| b >= 4096) else {
        return bad(
            "--record-kib",
            format!("{record_kib} KiB is not a record of at least 4 KiB"),
        );
    };
    let records = total.div_ceil(record);
    if records > MAX_SYNTHETIC_RECORDS {
        return bad(
            "--mib",
            format!("{mib} MiB in {record_kib} KiB records is {records} records, above the cap of {MAX_SYNTHETIC_RECORDS}"),
        );
    }
    Ok((total, record))
}

/// The largest LOBPCG dimension a command line may ask for: the
/// generated Hamiltonian holds about 33 entries per row.
pub const MAX_SOLVE_DIM: usize = 1 << 20;

/// Checks a command line's LOBPCG sizes before any matrix is generated:
/// the dimension `n` must lie in `2..=`[`MAX_SOLVE_DIM`] and the block
/// size in `1..=n/3`, which is what [`Lobpcg`] needs for its `[X W P]`
/// trial basis.
///
/// # Errors
/// [`SimError::InvalidConfig`] naming the size that is out of range.
pub fn solve_shape(n: usize, block: usize) -> Result<(), SimError> {
    if !(2..=MAX_SOLVE_DIM).contains(&n) {
        return Err(SimError::invalid_config(
            "lobpcg",
            format!("--n {n} is outside 2..={MAX_SOLVE_DIM}"),
        ));
    }
    if block == 0 || block > n / 3 {
        return Err(SimError::invalid_config(
            "lobpcg",
            format!("--block {block} is outside 1..={}", n / 3),
        ));
    }
    Ok(())
}

/// A fast synthetic stand-in for the out-of-core eigensolver's I/O: a
/// read-only sequential panel sweep over one large file, repeated until
/// `total_bytes` have been read — the shape §3.1 describes ("most OoC
/// computations are heavily read-intensive and require many iterations").
///
/// `record_size` is the application's POSIX read granularity (one matrix
/// panel). `seed` perturbs record sizes by ±12% so traces are not
/// artificially uniform.
pub fn synthetic_ooc_trace(total_bytes: u64, record_size: u64, seed: u64) -> PosixTrace {
    assert!(record_size >= 4096, "panel reads are large");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut trace = PosixTrace::new();
    // The matrix file is a quarter of the volume: four sweeps on average.
    let file_len = (total_bytes / 4).max(record_size);
    let mut pos = 0u64;
    let mut moved = 0u64;
    let mut t = 0u64;
    while moved < total_bytes {
        let jitter = 1.0 + rng.gen_range(-0.12..0.12);
        let len = (((record_size as f64 * jitter) as u64).max(4096))
            .min(file_len - pos)
            .min(total_bytes - moved);
        trace.push(TraceRecord {
            t,
            op: IoOp::Read,
            file: 0,
            offset: pos,
            len,
        });
        t += 1;
        pos += len;
        if pos >= file_len {
            pos = 0;
        }
        moved += len;
    }
    trace
}

/// Captures the POSIX-level trace of a *real* LOBPCG run: builds a
/// synthetic nuclear-CI Hamiltonian, serialises it into the journaled-UFS
/// panel store, and records every panel read the eigensolver performs.
///
/// Returns the trace together with the solver's eigenvalues so callers can
/// assert the computation (not just the I/O) was real.
///
/// # Errors
/// [`SimError::InvalidConfig`] when [`solve_shape`] rejects `n` and
/// `block_size` or `rows_per_panel` is zero, or the filesystem error
/// that kept the store from being built.
pub fn lobpcg_posix_trace(
    n: usize,
    block_size: usize,
    max_iters: usize,
    rows_per_panel: usize,
) -> Result<(PosixTrace, Vec<f64>), SimError> {
    solve_shape(n, block_size)?;
    let h = HamiltonianSpec::medium(n).generate();
    let diag: Vec<f64> = (0..h.n).map(|i| h.get(i, i)).collect();
    let matrix = UfsMatrix::build(&h, rows_per_panel, 0, None)?;
    let cap = TraceCapture::new();
    let op = UfsOperator::new(&matrix, &cap).with_diagonal(diag);
    let solver = Lobpcg::new(LobpcgOptions {
        block_size,
        max_iters,
        tol: 1e-6,
        seed: 13,
        precondition: true,
    });
    let result = solver.solve(&op);
    Ok((cap.into_trace(), result.eigenvalues))
}

/// An out-of-core graph-analytics workload (the intro's other OoC family:
/// external-memory BFS and PageRank, the paper's [34]/[44]). Each
/// "superstep" streams a large sequential run of edge blocks (file 0) and
/// sprinkles small random reads into the vertex-state array (file 1);
/// `random_fraction` sets the byte share of the random component.
pub fn graph_ooc_trace(
    total_bytes: u64,
    edge_block: u64,
    random_fraction: f64,
    seed: u64,
) -> PosixTrace {
    assert!((0.0..=0.9).contains(&random_fraction));
    assert!(edge_block >= 64 * 1024);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9a17);
    let mut trace = PosixTrace::new();
    let edge_file = (total_bytes / 3).max(edge_block);
    let vertex_file = (edge_file / 8).max(1 << 20);
    let vertex_read = 8 * 1024u64;
    let mut edge_pos = 0u64;
    let mut moved = 0u64;
    let mut t = 0u64;
    while moved < total_bytes {
        // One edge block, sequential with wraparound.
        let len = edge_block.min(edge_file - edge_pos);
        trace.push(TraceRecord {
            t,
            op: IoOp::Read,
            file: 0,
            offset: edge_pos,
            len,
        });
        t += 1;
        edge_pos = (edge_pos + len) % edge_file;
        moved += len;
        // Random vertex-state touches to keep the byte ratio.
        let mut random_due = (len as f64 * random_fraction / (1.0 - random_fraction)) as u64;
        while random_due >= vertex_read && moved < total_bytes {
            let off = rng.gen_range(0..vertex_file / vertex_read) * vertex_read;
            trace.push(TraceRecord {
                t,
                op: IoOp::Read,
                file: 1,
                offset: off,
                len: vertex_read,
            });
            t += 1;
            random_due -= vertex_read;
            moved += vertex_read;
        }
    }
    trace
}

/// A key-value lookup workload: uniformly random point reads of
/// `value_size` bytes over a store file much larger than the bytes
/// moved, so there is essentially no spatial reuse. This is the
/// latency-sensitive tenant of the multi-tenant studies ([`crate::tenancy`]):
/// every request is small and independent, which makes its tail latency
/// the first casualty of a bandwidth-hungry co-tenant.
pub fn kv_lookup_trace(total_bytes: u64, value_size: u64, seed: u64) -> PosixTrace {
    assert!(value_size >= 4096, "values are at least one block");
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x51c7);
    let mut trace = PosixTrace::new();
    // The store is 8x the bytes read: lookups effectively never repeat.
    let slots = ((total_bytes * 8) / value_size).max(1);
    let mut moved = 0u64;
    let mut t = 0u64;
    while moved < total_bytes {
        let off = rng.gen_range(0..slots) * value_size;
        let len = value_size.min(total_bytes - moved).max(4096);
        trace.push(TraceRecord {
            t,
            op: IoOp::Read,
            file: 0,
            offset: off,
            len,
        });
        t += 1;
        moved += len;
    }
    trace
}

/// A hybrid-checkpointing workload (the related-work scenario of the
/// paper's [33]): the read-dominant OoC sweep interleaved with periodic
/// large sequential checkpoint writes to a separate file. Exercises the
/// device's program, erase-before-write and wear paths alongside reads.
pub fn checkpoint_trace(
    read_bytes: u64,
    ckpt_interval_bytes: u64,
    ckpt_bytes: u64,
    record_size: u64,
    seed: u64,
) -> PosixTrace {
    assert!(ckpt_interval_bytes >= record_size && ckpt_bytes >= 4096);
    let base = synthetic_ooc_trace(read_bytes, record_size, seed);
    let mut out = PosixTrace::new();
    let mut since_ckpt = 0u64;
    let mut ckpt_cursor = 0u64;
    let mut t = 0u64;
    for rec in base.records {
        out.push(TraceRecord { t, ..rec });
        t += 1;
        since_ckpt += rec.len;
        if since_ckpt >= ckpt_interval_bytes {
            since_ckpt -= ckpt_interval_bytes;
            // One checkpoint burst: sequential appends to file 1 in
            // record-size pieces.
            let mut left = ckpt_bytes;
            while left > 0 {
                let len = left.min(record_size);
                out.push(TraceRecord {
                    t,
                    op: IoOp::Write,
                    file: 1,
                    offset: ckpt_cursor,
                    len,
                });
                t += 1;
                ckpt_cursor += len;
                left -= len;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_trace_volume_and_shape() {
        let tr = synthetic_ooc_trace(64 << 20, 4 << 20, 1);
        assert!(tr.total_bytes() >= 64 << 20);
        assert!((tr.read_fraction() - 1.0).abs() < 1e-12);
        // Mostly sequential within the file.
        let stats = ooctrace::AccessStats::of_posix(&tr);
        assert!(
            stats.sequentiality > 0.7,
            "sequentiality {}",
            stats.sequentiality
        );
    }

    #[test]
    fn synthetic_trace_is_deterministic_per_seed() {
        assert_eq!(
            synthetic_ooc_trace(8 << 20, 1 << 20, 5),
            synthetic_ooc_trace(8 << 20, 1 << 20, 5)
        );
        assert_ne!(
            synthetic_ooc_trace(8 << 20, 1 << 20, 5),
            synthetic_ooc_trace(8 << 20, 1 << 20, 6)
        );
    }

    #[test]
    fn graph_trace_mixes_sequential_and_random() {
        let tr = graph_ooc_trace(64 << 20, 1 << 20, 0.25, 3);
        assert!(tr.total_bytes() >= 64 << 20);
        assert!((tr.read_fraction() - 1.0).abs() < 1e-12);
        // Random bytes land near the requested share.
        let random: u64 = tr
            .records
            .iter()
            .filter(|r| r.file == 1)
            .map(|r| r.len)
            .sum();
        let share = random as f64 / tr.total_bytes() as f64;
        assert!((0.15..0.35).contains(&share), "random share {share}");
        // Vertex touches are small, edge blocks large.
        assert!(tr
            .records
            .iter()
            .filter(|r| r.file == 1)
            .all(|r| r.len == 8192));
        assert!(tr
            .records
            .iter()
            .filter(|r| r.file == 0)
            .any(|r| r.len >= 1 << 20));
    }

    #[test]
    fn graph_trace_random_share_zero_is_pure_streaming() {
        let tr = graph_ooc_trace(16 << 20, 1 << 20, 0.0, 3);
        assert!(tr.records.iter().all(|r| r.file == 0));
    }

    #[test]
    fn checkpoint_trace_mixes_reads_and_writes() {
        let tr = checkpoint_trace(64 << 20, 16 << 20, 8 << 20, 4 << 20, 3);
        // Roughly one 8 MiB checkpoint per 16 MiB read: ~1/3 writes.
        let rf = tr.read_fraction();
        assert!((0.6..0.75).contains(&rf), "read fraction {rf}");
        // Checkpoint writes append sequentially in file 1.
        let writes: Vec<_> = tr.records.iter().filter(|r| !r.op.is_read()).collect();
        assert!(!writes.is_empty());
        for w in writes.windows(2) {
            assert_eq!(w[1].offset, w[0].offset + w[0].len);
            assert_eq!(w[0].file, 1);
        }
    }

    #[test]
    fn kv_lookup_trace_is_small_random_reads() {
        let tr = kv_lookup_trace(16 << 20, 8192, 7);
        assert!(tr.total_bytes() >= 16 << 20);
        assert!((tr.read_fraction() - 1.0).abs() < 1e-12);
        assert!(tr.records.iter().all(|r| r.len <= 8192));
        // Random point lookups: near-zero sequentiality.
        let stats = ooctrace::AccessStats::of_posix(&tr);
        assert!(
            stats.sequentiality < 0.2,
            "sequentiality {}",
            stats.sequentiality
        );
        // Deterministic per seed.
        assert_eq!(tr, kv_lookup_trace(16 << 20, 8192, 7));
        assert_ne!(tr, kv_lookup_trace(16 << 20, 8192, 8));
    }

    #[test]
    fn lobpcg_trace_is_read_only_panel_sweeps() {
        let (tr, eigs) = lobpcg_posix_trace(600, 4, 8, 100).expect("solves");
        assert!(!tr.is_empty());
        assert!((tr.read_fraction() - 1.0).abs() < 1e-12);
        // 6 panels per sweep; at least the initial apply plus iterations.
        assert!(tr.len() >= 12, "only {} records", tr.len());
        // Eigenvalues are finite and ascending.
        assert!(eigs.windows(2).all(|w| w[0] <= w[1]));
        assert!(eigs.iter().all(|v| v.is_finite()));
    }
}
