//! Energy accounting over a finished run — the quantitative side of the
//! paper's power motivation (§1: distributed DRAM + networks cost "high
//! energy use ... over time"; SSDs are "low-power").

use crate::config::MediaConfig;
use crate::stats::RawStats;
use nvmtypes::convert::approx_f64;
use nvmtypes::{MediaEnergy, Nanos};

/// Energy totals for one run, all in millijoules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyReport {
    /// Sensing energy.
    pub read_mj: f64,
    /// Programming energy.
    pub program_mj: f64,
    /// Erase energy.
    pub erase_mj: f64,
    /// Channel-bus transfer energy.
    pub bus_mj: f64,
    /// Static (idle + background) energy of all dies over the makespan.
    pub static_mj: f64,
    /// Payload bytes the energy was spent on.
    pub bytes: u64,
}

impl EnergyReport {
    /// Dynamic + static total, mJ.
    pub fn total_mj(&self) -> f64 {
        self.read_mj + self.program_mj + self.erase_mj + self.bus_mj + self.static_mj
    }

    /// Energy efficiency, nanojoules per payload byte.
    pub fn nj_per_byte(&self) -> f64 {
        if self.bytes == 0 {
            0.0
        } else {
            self.total_mj() * 1e6 / approx_f64(self.bytes)
        }
    }

    /// Mean power over the run, watts.
    pub fn mean_power_w(&self, makespan: Nanos) -> f64 {
        if makespan == 0 {
            0.0
        } else {
            // mJ / ns = MW; convert to W.
            self.total_mj() / approx_f64(makespan) * 1e9 * 1e-3
        }
    }
}

/// Assesses the energy of a finished run from its raw media accounting.
pub fn assess(stats: &RawStats, cfg: &MediaConfig, makespan: Nanos) -> EnergyReport {
    let e = MediaEnergy::typical(cfg.timing.kind);
    let page = u64::from(cfg.timing.page_size);
    let pages_read = stats.bytes_read / page;
    let pages_written = stats.bytes_written / page;
    let moved = stats.bytes_read + stats.bytes_written;
    let dies = f64::from(cfg.geometry.total_dies());
    EnergyReport {
        read_mj: approx_f64(pages_read) * e.read_nj_per_page * 1e-6,
        program_mj: approx_f64(pages_written) * e.program_nj_per_page * 1e-6,
        erase_mj: approx_f64(stats.blocks_erased) * e.erase_nj_per_block * 1e-6,
        bus_mj: approx_f64(moved) * e.bus_nj_per_byte * 1e-6,
        // idle_mw_per_die * dies * seconds -> mJ.
        static_mj: e.idle_mw_per_die * dies * (approx_f64(makespan) * 1e-9),
        bytes: moved,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MediaSim;
    use crate::op::DieOp;
    use nvmtypes::{BusTiming, DieIndex, NvmKind};

    fn run_reads(kind: NvmKind, ops: u64) -> (RawStats, MediaConfig, Nanos) {
        let cfg = MediaConfig::tiny(
            kind,
            BusTiming {
                name: "t",
                bytes_per_ns: 0.4,
            },
        );
        let mut sim = MediaSim::new(cfg);
        let mut end = 0;
        for i in 0..ops {
            let out = sim.execute(0, &DieOp::read(DieIndex((i % 8) as u32), 2, 4, 0));
            end = end.max(out.end);
        }
        (sim.into_stats(), cfg, end)
    }

    #[test]
    fn read_energy_scales_with_pages() {
        let (s1, cfg, m1) = run_reads(NvmKind::Tlc, 4);
        let (s2, _, m2) = run_reads(NvmKind::Tlc, 8);
        let a = assess(&s1, &cfg, m1);
        let b = assess(&s2, &cfg, m2);
        assert!((b.read_mj / a.read_mj - 2.0).abs() < 1e-9);
        assert!(b.total_mj() > a.total_mj());
    }

    #[test]
    fn pcm_reads_use_less_dynamic_energy_than_tlc() {
        // Same payload bytes on both media.
        let (st, ct, mt) = run_reads(NvmKind::Tlc, 8); // 8 * 4 * 8 KiB
        let cfgp = MediaConfig::tiny(
            NvmKind::Pcm,
            BusTiming {
                name: "t",
                bytes_per_ns: 0.4,
            },
        );
        let mut simp = MediaSim::new(cfgp);
        let mut endp = 0;
        for i in 0..8u64 {
            // 512 PCM pages = 32 KiB, matching one TLC op's payload.
            let out = simp.execute(0, &DieOp::read(DieIndex((i % 8) as u32), 2, 512, 0));
            endp = endp.max(out.end);
        }
        let tlc = assess(&st, &ct, mt);
        let pcm = assess(&simp.into_stats(), &cfgp, endp);
        assert_eq!(tlc.bytes, pcm.bytes);
        let dyn_tlc = tlc.read_mj + tlc.bus_mj;
        let dyn_pcm = pcm.read_mj + pcm.bus_mj;
        assert!(dyn_pcm < dyn_tlc, "pcm {dyn_pcm} vs tlc {dyn_tlc}");
    }

    #[test]
    fn erase_energy_counted() {
        let cfg = MediaConfig::tiny(
            NvmKind::Slc,
            BusTiming {
                name: "t",
                bytes_per_ns: 0.4,
            },
        );
        let mut sim = MediaSim::new(cfg);
        let out = sim.execute(0, &DieOp::erase(DieIndex(0), 3));
        let rep = assess(sim.stats(), &cfg, out.end);
        assert!((rep.erase_mj - 3.0 * 1.2).abs() < 1e-9);
    }

    #[test]
    fn power_and_efficiency_are_finite_and_positive() {
        let (s, cfg, m) = run_reads(NvmKind::Mlc, 16);
        let rep = assess(&s, &cfg, m);
        assert!(rep.nj_per_byte() > 0.0 && rep.nj_per_byte().is_finite());
        assert!(rep.mean_power_w(m) > 0.0 && rep.mean_power_w(m).is_finite());
    }
}
