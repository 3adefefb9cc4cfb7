//! Media-side configuration of the simulated device.

use nvmtypes::{BusTiming, MediaTiming, NvmKind, SsdGeometry};

/// Complete description of the media side of a simulated SSD: structure,
/// Table-1 timing, and channel-bus speed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MediaConfig {
    /// Structural geometry (channels / packages / dies / planes).
    pub geometry: SsdGeometry,
    /// Per-medium operation latencies.
    pub timing: MediaTiming,
    /// Channel (ONFi-style) bus speed.
    pub bus: BusTiming,
    /// Cache-register reads: with a second page register, the die is free
    /// to start its next sense while the previous page drains over the
    /// bus (an SSD-architecture ablation; off by default, matching
    /// plain ONFi read timing).
    pub cache_registers: bool,
}

impl MediaConfig {
    /// The paper's device for a given medium on a given bus: 8 channels,
    /// 64 packages, 128 dies (§4.1).
    pub fn paper(kind: NvmKind, bus: BusTiming) -> MediaConfig {
        MediaConfig {
            geometry: SsdGeometry::paper(kind),
            timing: MediaTiming::table1(kind),
            bus,
            cache_registers: false,
        }
    }

    /// A tiny configuration for unit tests (2 channels, 8 dies).
    pub fn tiny(kind: NvmKind, bus: BusTiming) -> MediaConfig {
        MediaConfig {
            geometry: SsdGeometry::tiny(),
            timing: MediaTiming::table1(kind),
            bus,
            cache_registers: false,
        }
    }

    /// Time for one page to cross the channel bus, ns.
    pub fn page_transfer_ns(&self) -> nvmtypes::Nanos {
        self.bus.transfer_ns(u64::from(self.timing.page_size))
    }

    /// Aggregate cell-level read bandwidth of all dies with all planes
    /// streaming, bytes/ns. This is the "NVM media" capability that the
    /// bandwidth-remaining metric measures headroom against.
    pub fn cell_aggregate_read_bw(&self) -> f64 {
        self.timing.die_read_bw(self.geometry.planes_per_die)
            * f64::from(self.geometry.total_dies())
    }

    /// Aggregate channel-bus bandwidth, bytes/ns.
    pub fn bus_aggregate_bw(&self) -> f64 {
        self.bus.bytes_per_ns * f64::from(self.geometry.channels)
    }

    /// The device's deliverable media read bandwidth: the lesser of cell
    /// and bus aggregates.
    pub fn media_read_bw(&self) -> f64 {
        self.cell_aggregate_read_bw().min(self.bus_aggregate_bw())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sdr400() -> BusTiming {
        BusTiming {
            name: "ONFi3-SDR-400",
            bytes_per_ns: 0.4,
        }
    }

    #[test]
    fn paper_tlc_aggregates() {
        let cfg = MediaConfig::paper(NvmKind::Tlc, sdr400());
        // Cell: 128 dies * 2 planes * 8 KiB / 150 µs ≈ 13.98 B/ns ≈ 14 GB/s.
        let cell = cfg.cell_aggregate_read_bw();
        assert!((cell - 128.0 * 2.0 * 8192.0 / 150_000.0).abs() < 1e-9);
        // Bus: 8 * 0.4 = 3.2 B/ns; bus is the binding constraint for reads.
        assert!((cfg.bus_aggregate_bw() - 3.2).abs() < 1e-12);
        assert!((cfg.media_read_bw() - 3.2).abs() < 1e-12);
    }

    #[test]
    fn tlc_page_transfer_on_onfi3() {
        let cfg = MediaConfig::paper(NvmKind::Tlc, sdr400());
        assert_eq!(cfg.page_transfer_ns(), 20_480);
    }

    #[test]
    fn pcm_is_cell_rich() {
        let cfg = MediaConfig::paper(NvmKind::Pcm, sdr400());
        // PCM cell aggregate dwarfs any bus: media bw is bus-limited.
        assert!(cfg.cell_aggregate_read_bw() > 10.0 * cfg.bus_aggregate_bw());
        assert!((cfg.media_read_bw() - cfg.bus_aggregate_bw()).abs() < 1e-12);
    }
}
