//! Regenerates Table 1: the NVM latency matrix.
use nvmtypes::{MediaTiming, NvmKind, PageClass};
use oocnvm_bench::banner;
use oocnvm_core::format::Table;

fn us(ns: u64) -> String {
    if ns.is_multiple_of(1000) {
        format!("{}", ns / 1000)
    } else {
        format!("{:.3}", ns as f64 / 1000.0)
    }
}

fn main() {
    println!(
        "{}",
        banner(
            "Table 1",
            "latency to complete page-size operations per NVM type",
        )
    );
    let mut t = Table::new(["", "SLC", "MLC", "TLC", "PCM"]);
    let timings: Vec<MediaTiming> = NvmKind::ALL
        .iter()
        .map(|&k| MediaTiming::table1(k))
        .collect();
    t.row(
        std::iter::once("Page Size".to_string())
            .chain(timings.iter().map(|m| {
                if m.page_size >= 1024 {
                    format!("{}kB", m.page_size / 1024)
                } else {
                    format!("{}B", m.page_size)
                }
            }))
            .collect::<Vec<_>>(),
    );
    t.row(
        std::iter::once("Read (us)".to_string())
            .chain(timings.iter().map(|m| {
                if m.t_read_span > 0 {
                    format!("{}-{}", us(m.t_read), us(m.t_read + m.t_read_span))
                } else {
                    us(m.t_read)
                }
            }))
            .collect::<Vec<_>>(),
    );
    t.row(
        std::iter::once("Write (us)".to_string())
            .chain(timings.iter().map(|m| {
                let lo = m.write_latency(PageClass::Lsb);
                let hi = m.write_latency(PageClass::Msb);
                if lo == hi {
                    us(lo)
                } else {
                    format!("{}-{}", us(lo), us(hi))
                }
            }))
            .collect::<Vec<_>>(),
    );
    t.row(
        std::iter::once("Erase (us)".to_string())
            .chain(timings.iter().map(|m| us(m.t_erase)))
            .collect::<Vec<_>>(),
    );
    print!("{}", t.render());
}
