//! `oocnvm` — command-line front end for the workspace.
//!
//! ```text
//! oocnvm run --config <label> --media <slc|mlc|tlc|pcm> [--mib N] [--record-kib K]
//! oocnvm sweep [--mib N]                     full Table-2 x media sweep
//! oocnvm solve --n <dim> [--block B] [--iters I]   LOBPCG demo run
//! oocnvm list                                available configurations
//! ```
//!
//! Bad input exits 2 with the usage text before any work starts: an
//! unknown or repeated flag, a flag without its value, a number that
//! does not parse, a record below 4 KiB, a byte count that overflows
//! `u64`, a workload of more than
//! [`MAX_SYNTHETIC_RECORDS`](oocnvm::core::workload::MAX_SYNTHETIC_RECORDS)
//! records, or a `solve` dimension outside
//! `2..=`[`MAX_SOLVE_DIM`](oocnvm::core::workload::MAX_SOLVE_DIM) or block
//! size outside `1..=n/3`.

use oocnvm::core::config::SystemConfig;
use oocnvm::core::experiment::run_batch;
use oocnvm::core::format::Table;
use oocnvm::core::workload::{solve_shape, synthetic_shape};
use oocnvm::ooc::lobpcg::{Lobpcg, LobpcgOptions};
use oocnvm::ooc::HamiltonianSpec;
use oocnvm::prelude::*;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::str::FromStr;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  oocnvm run --config <label> --media <slc|mlc|tlc|pcm> [--mib N] [--record-kib K]\n  \
         oocnvm sweep [--mib N]\n  oocnvm solve --n <dim> [--block B] [--iters I]\n  oocnvm list"
    );
    ExitCode::from(2)
}

/// Reads `--key value` pairs, accepting each key in `takes` at most once.
fn flags<'a>(args: &'a [String], takes: &[&str]) -> Result<BTreeMap<&'a str, &'a str>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        if !takes.contains(&key.as_str()) {
            return Err(format!("unknown flag `{key}`"));
        }
        let Some(value) = it.next() else {
            return Err(format!("`{key}` needs a value"));
        };
        if out.insert(key.as_str(), value.as_str()).is_some() {
            return Err(format!("`{key}` given twice"));
        }
    }
    Ok(out)
}

/// The number given for `key`, or `default` when the flag is absent.
fn num<T: FromStr>(flags: &BTreeMap<&str, &str>, key: &str, default: T) -> Result<T, String> {
    flags.get(key).map_or(Ok(default), |v| {
        v.parse()
            .map_err(|_| format!("`{key}` takes a non-negative integer, got `{v}`"))
    })
}

fn media_by_name(name: &str) -> Option<NvmKind> {
    let lower = name.to_ascii_lowercase();
    NvmKind::ALL
        .into_iter()
        .find(|k| format!("{k:?}").eq_ignore_ascii_case(&lower))
}

fn config_by_label(label: &str) -> Option<SystemConfig> {
    SystemConfig::table2()
        .into_iter()
        .find(|c| c.label.eq_ignore_ascii_case(label))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("oocnvm: {msg}");
            usage()
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let rest = args.get(1..).unwrap_or_default();
    match args.first().map(String::as_str) {
        Some("list") if rest.is_empty() => {
            println!("available configurations (Table 2):");
            for c in SystemConfig::table2() {
                println!("  {}", c.table2_row());
            }
            Ok(ExitCode::SUCCESS)
        }
        Some("run") => {
            let f = flags(rest, &["--config", "--media", "--mib", "--record-kib"])?;
            let Some(cfg) = f.get("--config").and_then(|l| config_by_label(l)) else {
                return Err("unknown or missing --config (try `oocnvm list`)".into());
            };
            let Some(kind) = f.get("--media").and_then(|m| media_by_name(m)) else {
                return Err("unknown or missing --media".into());
            };
            let mib = num(&f, "--mib", 128u64)?;
            let (total, record) = synthetic_shape(mib, num(&f, "--record-kib", 6144u64)?)
                .map_err(|e| e.to_string())?;
            let trace = synthetic_ooc_trace(total, record, 42);
            let report = ExperimentSpec::new(&cfg, kind).run(&trace);
            println!("{} on {} ({mib} MiB workload):", report.label, kind.label());
            println!("  bandwidth:      {:>9.1} MB/s", report.bandwidth_mb_s);
            println!(
                "  makespan:       {:>9.2} ms",
                report.run.makespan as f64 / 1e6
            );
            println!("  channel util:   {:>9.1} %", report.channel_util * 100.0);
            println!("  package util:   {:>9.1} %", report.package_util * 100.0);
            println!(
                "  PAL1..4:        {:>5.1} / {:.1} / {:.1} / {:.1} %",
                report.pal_pct[0], report.pal_pct[1], report.pal_pct[2], report.pal_pct[3]
            );
            println!(
                "  latency:        p50 {:.2} ms / p99 {:.2} ms / max {:.2} ms",
                report.run.latency.p50 as f64 / 1e6,
                report.run.latency.p99 as f64 / 1e6,
                report.run.latency.max as f64 / 1e6
            );
            println!(
                "  energy:         {:>9.1} mJ ({:.2} nJ/B, {:.2} W mean)",
                report.run.energy.total_mj(),
                report.run.energy.nj_per_byte(),
                report.run.energy.mean_power_w(report.run.makespan)
            );
            if report.run.wear.erases > 0 {
                println!(
                    "  wear:           {} erases, WAF {:.2}",
                    report.run.wear.erases,
                    report.run.wear.waf()
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        Some("sweep") => {
            let f = flags(rest, &["--mib"])?;
            let (total, record) =
                synthetic_shape(num(&f, "--mib", 128u64)?, 6144).map_err(|e| e.to_string())?;
            let trace = synthetic_ooc_trace(total, record, 42);
            let configs = SystemConfig::table2();
            let specs = configs
                .iter()
                .flat_map(|c| NvmKind::ALL.iter().map(|&k| ExperimentSpec::new(c, k)))
                .collect();
            let reports = run_batch(specs, &trace);
            let mut t = Table::new(["config", "TLC", "MLC", "SLC", "PCM"]);
            for c in &configs {
                let get = |k| {
                    oocnvm::core::experiment::find(&reports, c.label, k)
                        .map(|r| format!("{:.0}", r.bandwidth_mb_s))
                        .unwrap_or_default()
                };
                t.row([
                    c.label.to_string(),
                    get(NvmKind::Tlc),
                    get(NvmKind::Mlc),
                    get(NvmKind::Slc),
                    get(NvmKind::Pcm),
                ]);
            }
            print!("{}", t.render());
            Ok(ExitCode::SUCCESS)
        }
        Some("solve") => {
            let f = flags(rest, &["--n", "--block", "--iters"])?;
            if !f.contains_key("--n") {
                return Err("missing --n".into());
            }
            let n = num(&f, "--n", 0usize)?;
            let block = num(&f, "--block", 8usize)?;
            let iters = num(&f, "--iters", 100usize)?;
            solve_shape(n, block).map_err(|e| e.to_string())?;
            let h = HamiltonianSpec::medium(n).generate();
            println!("H: n={} nnz={}", h.n, h.nnz());
            let result = Lobpcg::new(LobpcgOptions {
                block_size: block,
                max_iters: iters,
                tol: 1e-7,
                seed: 13,
                precondition: true,
            })
            .solve(&h);
            println!(
                "converged={} in {} iterations ({} operator applications)",
                result.converged, result.iterations, result.operator_applies
            );
            for (k, v) in result.eigenvalues.iter().enumerate() {
                println!(
                    "  lambda_{k} = {v:.8}  (residual {:.2e})",
                    result.residuals[k]
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        Some(cmd) => Err(format!("unknown command or arguments `{cmd}`")),
        None => Err("missing command".into()),
    }
}
