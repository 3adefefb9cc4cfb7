//! NVM channel-bus timing (the ONFi-style bus shared by the packages of a
//! channel). Constructors for concrete standards (ONFi-3 SDR-400, future
//! DDR-800) live in the `interconnect` crate; this is just the data.

/// Transfer-rate description of one NVM channel bus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusTiming {
    /// Human-readable standard name (e.g. `"ONFi3-SDR-400"`).
    pub name: &'static str,
    /// Payload rate in bytes per nanosecond (== GB/s).
    pub bytes_per_ns: f64,
}

impl BusTiming {
    /// Time in ns (rounded up) to move `bytes` over this bus.
    pub fn transfer_ns(&self, bytes: u64) -> crate::time::Nanos {
        crate::time::transfer_time(bytes, self.bytes_per_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_ns_matches_rate() {
        let bus = BusTiming {
            name: "test",
            bytes_per_ns: 0.4,
        };
        // 8192 bytes at 0.4 B/ns = 20480 ns.
        assert_eq!(bus.transfer_ns(8192), 20_480);
    }
}
