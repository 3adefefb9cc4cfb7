//! Trace inspection and generation utility.
//!
//! ```text
//! tracetool gen <mib> <record_kib> <seed> [out.trace]   synth OoC trace
//! tracetool lobpcg <n> <block> <iters> <panel> [out]    real solver trace
//! tracetool stats <file.trace>                          POSIX-level stats
//! tracetool fs <fs-name> <file.trace>                   mutate + block stats
//! ```
//!
//! Traces use the one-line-per-record text format of
//! [`ooctrace::PosixTrace::to_text`]. `gen` checks its workload with
//! [`synthetic_shape`] first: an empty workload, a record below 4 KiB,
//! a byte count that overflows `u64` or more than
//! [`MAX_SYNTHETIC_RECORDS`](oocnvm_core::workload::MAX_SYNTHETIC_RECORDS)
//! records is a usage error (exit 2). So is a `lobpcg` run that
//! [`lobpcg_posix_trace`] rejects before solving: a dimension or block
//! size outside what
//! [`solve_shape`](oocnvm_core::workload::solve_shape) allows, or a
//! panel of zero rows.
use nvmtypes::SimError;
use oocfs::FsKind;
use oocnvm_core::workload::{lobpcg_posix_trace, synthetic_ooc_trace, synthetic_shape};
use ooctrace::{AccessStats, PosixTrace};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  tracetool gen <mib> <record_kib> <seed> [out]\n  \
         tracetool lobpcg <n> <block> <iters> <panel> [out]\n  \
         tracetool stats <file>\n  tracetool fs <fs-name> <file>\n\
         fs names: gpfs jfs btrfs xfs reiserfs ext2 ext3 ext4 ext4-l ufs"
    );
    ExitCode::from(2)
}

fn fs_by_name(name: &str) -> Option<FsKind> {
    // Name table instead of a string match: `FsKind::ALL` keeps this
    // exhaustive as kinds are added (gpfs aliases IonGpfs; ext4-l/ext4l
    // both spell Ext4L).
    let lower = name.to_ascii_lowercase();
    let spelled = |k: FsKind| -> &'static str {
        match k {
            FsKind::IonGpfs => "gpfs",
            FsKind::Jfs => "jfs",
            FsKind::Btrfs => "btrfs",
            FsKind::Xfs => "xfs",
            FsKind::ReiserFs => "reiserfs",
            FsKind::Ext2 => "ext2",
            FsKind::Ext3 => "ext3",
            FsKind::Ext4 => "ext4",
            FsKind::Ext4L => "ext4-l",
            FsKind::Ufs => "ufs",
        }
    };
    if lower == "ext4l" {
        return Some(FsKind::Ext4L);
    }
    FsKind::ALL.into_iter().find(|&k| spelled(k) == lower)
}

fn emit(trace: &PosixTrace, out: Option<&str>) -> std::io::Result<()> {
    match out {
        Some(path) => std::fs::write(path, trace.to_text()),
        None => {
            print!("{}", trace.to_text());
            Ok(())
        }
    }
}

fn print_posix_stats(trace: &PosixTrace) {
    let s = AccessStats::of_posix(trace);
    println!("records:        {}", s.count);
    println!("bytes:          {} ({} MiB)", s.bytes, s.bytes >> 20);
    println!("read fraction:  {:.1}%", trace.read_fraction() * 100.0);
    println!("mean request:   {:.0} B", s.mean_size);
    println!("sequentiality:  {:.2}", s.sequentiality);
    println!("median size:    >= {} B", s.sizes.median_bucket_floor());
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parse = |s: &String| s.parse::<u64>().ok();
    match args.first().map(String::as_str) {
        Some("gen") if (4..=5).contains(&args.len()) => {
            let (Some(mib), Some(rec), Some(seed)) =
                (parse(&args[1]), parse(&args[2]), parse(&args[3]))
            else {
                return usage();
            };
            let (total, record) = match synthetic_shape(mib, rec) {
                Ok(shape) => shape,
                Err(e) => {
                    eprintln!("tracetool: {e}");
                    return usage();
                }
            };
            let trace = synthetic_ooc_trace(total, record, seed);
            if emit(&trace, args.get(4).map(String::as_str)).is_err() {
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Some("lobpcg") if args.len() >= 5 => {
            let (Some(n), Some(block), Some(iters), Some(panel)) = (
                parse(&args[1]),
                parse(&args[2]),
                parse(&args[3]),
                parse(&args[4]),
            ) else {
                return usage();
            };
            let (trace, eigs) = match lobpcg_posix_trace(
                n as usize,
                block as usize,
                iters as usize,
                panel as usize,
            ) {
                Ok(run) => run,
                Err(e @ SimError::InvalidConfig { .. }) => {
                    eprintln!("tracetool: {e}");
                    return usage();
                }
                Err(e) => {
                    eprintln!("tracetool: {e}");
                    return ExitCode::FAILURE;
                }
            };
            eprintln!("lowest Ritz values: {:?}", &eigs[..eigs.len().min(4)]);
            if emit(&trace, args.get(5).map(String::as_str)).is_err() {
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Some("stats") if args.len() == 2 => {
            let Ok(text) = std::fs::read_to_string(&args[1]) else {
                eprintln!("cannot read {}", args[1]);
                return ExitCode::FAILURE;
            };
            match PosixTrace::from_text(&text) {
                Ok(trace) => {
                    print_posix_stats(&trace);
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("parse error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("fs") if args.len() == 3 => {
            let Some(kind) = fs_by_name(&args[1]) else {
                return usage();
            };
            let Ok(text) = std::fs::read_to_string(&args[2]) else {
                eprintln!("cannot read {}", args[2]);
                return ExitCode::FAILURE;
            };
            match PosixTrace::from_text(&text) {
                Ok(trace) => {
                    let block = kind.transform(&trace);
                    let s = AccessStats::of_block(&block);
                    println!("file system:    {}", kind.label());
                    println!("requests:       {}", s.count);
                    println!("bytes:          {} (data {})", s.bytes, block.data_bytes());
                    println!("mean request:   {:.0} B", s.mean_size);
                    println!("sequentiality:  {:.2}", s.sequentiality);
                    println!("queue depth:    {}", block.queue_depth);
                    println!(
                        "sync requests:  {}",
                        block.requests.iter().filter(|r| r.sync).count()
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("parse error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some(_) | None => usage(),
    }
}
