//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. GPFS stripe-size sweep ("larger stripes combat this randomizing
//!    trend, but only to limited extents", §4.2);
//! 2. the block-layer coalescing cap (the ext4 -> ext4-L knob, §4.3);
//! 3. the FTL's physical page-allocation (striping) order;
//! 4. PAQ-style out-of-order die service vs serialised service;
//! 5. host queue depth;
//! 6. cache-register reads (die re-arms while the bus drains);
//! 8. worn-NAND read retries (endurance ablation).
//!
//! There is no ablation 7. Its prefetch-pool study read zero-filled
//! panels back from the pool it had just filled, so its 100% hit ratio
//! held by construction; it was removed, and ablation 8 keeps its number
//! so that its banner stays as printed.
use flashsim::MediaConfig;
use interconnect::sdr400;
use nvmtypes::{NvmKind, MIB};
use oocfs::{FileSystemModel, FsKind, FsModel, GpfsModel};
use oocnvm_bench::{banner, standard_trace};
use oocnvm_core::config::SystemConfig;
use oocnvm_core::format::Table;
use ooctrace::{BlockTrace, PosixTrace};
use rayon::prelude::*;
use ssd::{Dim, SsdConfig, SsdDevice};
use std::process::ExitCode;

fn tlc_run(device: &SsdDevice, block: &BlockTrace) -> f64 {
    device.run(block).bandwidth_mb_s
}

fn main() -> ExitCode {
    let posix = match standard_trace() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("ablations: {e}");
            return ExitCode::from(2);
        }
    };
    match run(posix) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ablations: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(posix: PosixTrace) -> Result<(), String> {
    println!(
        "{}",
        banner("Ablation 1", "GPFS stripe size (TLC, ION data path)")
    );
    let ion_dev = SystemConfig::ion_gpfs().device(NvmKind::Tlc);
    let mut t = Table::new(["stripe", "bandwidth MB/s", "device sequentiality"]);
    let rows: Vec<[String; 3]> = [128 * 1024, 256 * 1024, 512 * 1024, MIB, 4 * MIB]
        .into_par_iter()
        .map(|stripe| {
            let block = GpfsModel::new().with_stripe(stripe).transform(&posix);
            [
                format!("{} KiB", stripe >> 10),
                format!("{:.0}", tlc_run(&ion_dev, &block)),
                format!("{:.2}", block.sequentiality()),
            ]
        })
        .collect();
    for row in rows {
        t.row(row);
    }
    print!("{}", t.render());
    println!("-> gains flatten: striping itself, not the stripe size, is the problem.\n");

    println!(
        "{}",
        banner(
            "Ablation 2",
            "block-layer coalescing cap (the ext4-L knob, TLC)",
        )
    );
    let cnl_dev = SystemConfig::cnl(FsKind::Ext4).device(NvmKind::Tlc);
    let base = FsKind::Ext4
        .params()
        .ok_or("ext4 has no block-layer parameter set")?;
    let mut t = Table::new(["max request", "bandwidth MB/s"]);
    let rows: Vec<Result<[String; 2], String>> = [
        64 * 1024u32,
        128 * 1024,
        256 * 1024,
        512 * 1024,
        1 << 20,
        2 << 20,
    ]
    .into_par_iter()
    .map(|cap| {
        let params = oocfs::FsParams {
            max_request: cap,
            queue_depth: 12,
            ..base
        };
        let block = FsModel::new(params)
            .map_err(|e| format!("coalescing cap {cap}: {e}"))?
            .transform(&posix);
        Ok([
            format!("{} KiB", cap >> 10),
            format!("{:.0}", tlc_run(&cnl_dev, &block)),
        ])
    })
    .collect();
    for row in rows {
        t.row(row?);
    }
    print!("{}", t.render());
    println!("-> \"simply turning a few kernel knobs\" is worth ~1 GB/s (§4.3).\n");

    println!(
        "{}",
        banner(
            "Ablation 3",
            "FTL page-allocation (striping) order, UFS requests, TLC",
        )
    );
    let block = FsKind::Ufs.transform(&posix);
    let mut t = Table::new(["order", "bandwidth MB/s", "PAL4 %"]);
    let orders = [
        (
            "channel-plane-die-pkg (default)",
            [Dim::Channel, Dim::Plane, Dim::Die, Dim::Package],
        ),
        (
            "channel-die-plane-pkg",
            [Dim::Channel, Dim::Die, Dim::Plane, Dim::Package],
        ),
        (
            "plane-channel-die-pkg",
            [Dim::Plane, Dim::Channel, Dim::Die, Dim::Package],
        ),
        (
            "pkg-die-plane-channel",
            [Dim::Package, Dim::Die, Dim::Plane, Dim::Channel],
        ),
    ];
    let rows: Vec<[String; 3]> = orders
        .into_par_iter()
        .map(|(name, order)| {
            let media = MediaConfig::paper(NvmKind::Tlc, sdr400());
            let mut cfg = SsdConfig::new(media, SystemConfig::cnl_ufs().host_chain()).with_ufs();
            cfg.stripe_order = order;
            let rep = SsdDevice::new(cfg).run(&block);
            [
                name.to_string(),
                format!("{:.0}", rep.bandwidth_mb_s),
                format!("{:.0}", rep.pal.percent()[3]),
            ]
        })
        .collect();
    for row in rows {
        t.row(row);
    }
    print!("{}", t.render());
    println!("-> large UFS requests saturate every order; small-request configs care.\n");

    println!(
        "{}",
        banner(
            "Ablation 4",
            "PAQ out-of-order die service (ext2-shaped requests, TLC)",
        )
    );
    let block = FsKind::Ext2.transform(&posix);
    let mut t = Table::new(["queueing", "bandwidth MB/s"]);
    for (name, paq) in [("PAQ (out-of-order)", true), ("serialized", false)] {
        let media = MediaConfig::paper(NvmKind::Tlc, sdr400());
        let mut cfg = SsdConfig::new(media, SystemConfig::cnl_ufs().host_chain());
        cfg.paq = paq;
        t.row([
            name.to_string(),
            format!("{:.0}", SsdDevice::new(cfg).run(&block).bandwidth_mb_s),
        ]);
    }
    print!("{}", t.render());
    println!();

    println!(
        "{}",
        banner("Ablation 5", "host queue depth (512 KiB requests, TLC)")
    );
    let mut t = Table::new(["queue depth", "bandwidth MB/s"]);
    for qd in [1u32, 2, 4, 8, 16, 32] {
        let mut reqs = Vec::new();
        let mut off = 0u64;
        while off < 64 * MIB {
            reqs.push(nvmtypes::HostRequest::read(off, 512 * 1024));
            off += 512 * 1024;
        }
        let block = BlockTrace::from_requests(reqs, qd);
        let media = MediaConfig::paper(NvmKind::Tlc, sdr400());
        let dev = SsdDevice::new(SsdConfig::new(media, SystemConfig::cnl_ufs().host_chain()));
        t.row([
            qd.to_string(),
            format!("{:.0}", dev.run(&block).bandwidth_mb_s),
        ]);
    }
    print!("{}", t.render());
    println!();

    println!(
        "{}",
        banner(
            "Ablation 6",
            "cache-register reads (ext2-shaped requests, TLC)",
        )
    );
    let block7 = FsKind::Ext2.transform(&posix);
    let mut t = Table::new(["die registers", "bandwidth MB/s"]);
    for (name, cached) in [("single register", false), ("cache register", true)] {
        let mut media = MediaConfig::paper(NvmKind::Tlc, sdr400());
        media.cache_registers = cached;
        let cfg = SsdConfig::new(media, SystemConfig::cnl_ufs().host_chain());
        t.row([
            name.to_string(),
            format!("{:.0}", SsdDevice::new(cfg).run(&block7).bandwidth_mb_s),
        ]);
    }
    print!("{}", t.render());
    println!();

    println!(
        "{}",
        banner(
            "Ablation 8",
            "worn NAND: amortised read retries (CNL-NATIVE-16, cell-bound TLC)",
        )
    );
    let block8 = FsKind::Ufs.transform(&posix);
    let mut t = Table::new(["condition", "bandwidth MB/s"]);
    let rows: Vec<[String; 2]> = [
        ("fresh (no retries)", 0u64),
        ("mid-life (1/64)", 64),
        ("worn (1/16)", 16),
        ("end-of-life (1/4)", 4),
    ]
    .into_par_iter()
    .map(|(name, every)| {
        let mut media = MediaConfig::paper(NvmKind::Tlc, interconnect::ddr800());
        if every > 0 {
            media.timing = media.timing.with_read_retry(every);
        }
        let cfg = SsdConfig::new(media, SystemConfig::cnl_native16().host_chain()).with_ufs();
        [
            name.to_string(),
            format!("{:.0}", SsdDevice::new(cfg).run(&block8).bandwidth_mb_s),
        ]
    })
    .collect();
    for row in rows {
        t.row(row);
    }
    print!("{}", t.render());
    println!();

    Ok(())
}
