//! NVM bus (channel) interface speeds.
//!
//! §3.3, third problem: even ONFi major-revision 3 "leaves bandwidth on the
//! table". ONFi 3 is a 400 MHz single-data-rate 8-bit bus (400 MB/s per
//! channel — only equal to 200 MHz DDR2). The paper evaluates a future
//! DDR3-1600-like bus, which we model as 800 MHz dual-data-rate
//! (1600 MB/s per channel).

use nvmtypes::BusTiming;

/// The two NVM bus speeds the paper evaluates (Table 2's
/// "Interface/Bus Speed" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NvmBusSpeed {
    /// ONFi-3: 400 MHz SDR, 8-bit — 400 MB/s per channel.
    Sdr400,
    /// Future DDR3-1600-like: 800 MHz DDR, 8-bit — 1600 MB/s per channel.
    Ddr800,
}

impl NvmBusSpeed {
    /// The concrete bus timing.
    pub fn timing(self) -> BusTiming {
        match self {
            NvmBusSpeed::Sdr400 => sdr400(),
            NvmBusSpeed::Ddr800 => ddr800(),
        }
    }

    /// Table-2 style label.
    pub fn label(self) -> &'static str {
        match self {
            NvmBusSpeed::Sdr400 => "SDR 400MHz",
            NvmBusSpeed::Ddr800 => "DDR 800MHz",
        }
    }
}

/// ONFi-3 bus: 400 MHz SDR x 8 bits = 400 MB/s (0.4 B/ns) per channel.
pub fn sdr400() -> BusTiming {
    BusTiming {
        name: "ONFi3-SDR-400",
        bytes_per_ns: 0.4,
    }
}

/// Future DDR bus: 800 MHz DDR x 8 bits = 1600 MB/s (1.6 B/ns) per channel.
pub fn ddr800() -> BusTiming {
    BusTiming {
        name: "DDR-800",
        bytes_per_ns: 1.6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sdr400_is_400_mb_s_per_channel() {
        assert!((sdr400().bytes_per_ns - 0.4).abs() < 1e-12);
    }

    #[test]
    fn ddr800_is_4x_onfi3() {
        assert!((ddr800().bytes_per_ns / sdr400().bytes_per_ns - 4.0).abs() < 1e-12);
    }

    #[test]
    fn page_transfer_times() {
        // An 8 KiB TLC page takes 20.48 µs on ONFi-3, 5.12 µs on DDR-800.
        assert_eq!(sdr400().transfer_ns(8192), 20_480);
        assert_eq!(ddr800().transfer_ns(8192), 5_120);
    }

    #[test]
    fn speed_enum_round_trip() {
        assert_eq!(NvmBusSpeed::Sdr400.timing(), sdr400());
        assert_eq!(NvmBusSpeed::Ddr800.timing(), ddr800());
        assert_eq!(NvmBusSpeed::Sdr400.label(), "SDR 400MHz");
    }
}
