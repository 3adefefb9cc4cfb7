//! Regenerates Figure 6: block access patterns of the OoC workload at the
//! POSIX level (compute node) vs under GPFS (I/O nodes).
//!
//! The POSIX panel comes from a *real* LOBPCG run over the out-of-core
//! Hamiltonian store; the GPFS panel is the same trace after the striping
//! mutation. The paper's observation: "GPFS divides up what was
//! previously largely sequential in the compute-local trace".
use oocfs::FsKind;
use oocnvm_bench::banner;
use ooctrace::stats::{block_scatter, posix_scatter, ScatterPoint};
use ooctrace::AccessStats;
use std::process::ExitCode;

/// Renders points as a rows x cols ASCII scatter (sequence on x, address
/// on y, matching the paper's axes).
fn ascii_scatter(points: &[ScatterPoint], rows: usize, cols: usize) -> String {
    if points.is_empty() {
        return String::from("(empty)\n");
    }
    let max_seq = points.iter().map(|p| p.seq).max().unwrap_or(0).max(1);
    let min_addr = points.iter().map(|p| p.addr).min().unwrap_or(0);
    let max_addr = points
        .iter()
        .map(|p| p.addr)
        .max()
        .unwrap_or(0)
        .max(min_addr + 1);
    let mut grid = vec![vec![' '; cols]; rows];
    for p in points {
        let x = ((p.seq as f64 / max_seq as f64) * (cols - 1) as f64) as usize;
        let y = (((p.addr - min_addr) as f64 / (max_addr - min_addr) as f64) * (rows - 1) as f64)
            as usize;
        grid[rows - 1 - y][x] = '*';
    }
    let mut out = String::new();
    for row in grid {
        out.push('|');
        out.extend(row);
        out.push('\n');
    }
    out.push('+');
    out.push_str(&"-".repeat(cols));
    out.push_str("> access sequence\n");
    out
}

fn main() -> ExitCode {
    println!(
        "{}",
        banner(
            "Figure 6",
            "block access patterns: POSIX at the compute node vs sub-GPFS at the IONs",
        )
    );
    // A real eigensolver run: synthetic CI Hamiltonian, LOBPCG, traced
    // panel reads.
    let (posix, eigs) = match oocnvm_core::workload::lobpcg_posix_trace(4000, 8, 6, 125) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("fig6: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "LOBPCG produced {} POSIX records ({} MiB read), lowest Ritz value {:.4}\n",
        posix.len(),
        posix.total_bytes() >> 20,
        eigs[0]
    );

    let limit = 4800; // the paper plots the first ~4800 accesses
    let gpfs = FsKind::IonGpfs.transform(&posix);

    let ps = AccessStats::of_posix(&posix);
    let gs = AccessStats::of_block(&gpfs);
    println!("GPFS address space (top panel) — sub-GPFS block trace at the IONs:");
    print!("{}", ascii_scatter(&block_scatter(&gpfs, limit), 16, 64));
    println!(
        "  requests={} mean={:.0} B sequentiality={:.2}\n",
        gs.count, gs.mean_size, gs.sequentiality
    );
    println!("POSIX address space (bottom panel) — application trace at the CN:");
    print!("{}", ascii_scatter(&posix_scatter(&posix, limit), 16, 64));
    println!(
        "  requests={} mean={:.0} B sequentiality={:.2}",
        ps.count, ps.mean_size, ps.sequentiality
    );
    println!(
        "\nGPFS turned a {:.0}%-sequential stream into a {:.0}%-sequential one.",
        ps.sequentiality * 100.0,
        gs.sequentiality * 100.0
    );
    ExitCode::SUCCESS
}
