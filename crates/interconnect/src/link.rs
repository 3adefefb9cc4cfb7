//! Generic link model and end-to-end composition.

use nvmtypes::{transfer_time, Nanos};

/// A point-to-point data link with an effective payload bandwidth and a
/// fixed per-request cost.
///
/// `bytes_per_ns` is the *post-encoding* payload rate: constructors fold
/// line-encoding overheads (8b/10b, 128b/130b) and protocol framing
/// efficiency into it, so the simulator never needs to know about encodings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Human-readable name, e.g. `"PCIe2.0x8"`.
    pub name: &'static str,
    /// Effective payload bandwidth in bytes per nanosecond (== GB/s).
    pub bytes_per_ns: f64,
    /// Fixed per-request cost in ns (DMA setup, protocol round trip,
    /// bridge conversion, switch traversal...).
    pub per_request_ns: Nanos,
}

impl Link {
    /// Constructs a link directly from an effective MB/s figure.
    pub fn from_mb_s(name: &'static str, mb_s: f64, per_request_ns: Nanos) -> Link {
        Link {
            name,
            bytes_per_ns: nvmtypes::bytes_per_ns_from_mb_s(mb_s),
            per_request_ns,
        }
    }

    /// Time to move one request of `bytes` across the link, including the
    /// per-request cost.
    pub fn request_ns(&self, bytes: u64) -> Nanos {
        self.per_request_ns + transfer_time(bytes, self.bytes_per_ns)
    }

    /// Effective bandwidth in MB/s (for reporting).
    pub fn mb_s(&self) -> f64 {
        self.bytes_per_ns * 1e3
    }
}

/// A path composed of several links crossed in sequence (e.g. device DMA,
/// then a cluster fabric hop for ION-remote storage).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LinkChain {
    /// Links in traversal order.
    pub links: Vec<Link>,
}

impl LinkChain {
    /// A chain of one link.
    pub fn single(link: Link) -> LinkChain {
        LinkChain { links: vec![link] }
    }

    /// Appends a hop to the chain.
    pub fn then(mut self, link: Link) -> LinkChain {
        self.links.push(link);
        self
    }

    /// Collapses the chain into one effective link: bandwidth of the
    /// narrowest hop, per-request latency of all hops summed.
    ///
    /// This is the store-and-forward approximation the simulator uses; it
    /// is exact for bandwidth and conservative (additive) for latency.
    ///
    /// # Panics
    /// Panics if the chain is empty.
    pub fn effective(&self) -> Link {
        assert!(
            !self.links.is_empty(),
            "cannot collapse an empty link chain"
        );
        let bytes_per_ns = self
            .links
            .iter()
            .map(|l| l.bytes_per_ns)
            .fold(f64::INFINITY, f64::min);
        let per_request_ns = self.links.iter().map(|l| l.per_request_ns).sum();
        Link {
            name: "chain",
            bytes_per_ns,
            per_request_ns,
        }
    }

    /// Name of the narrowest hop — the bottleneck of the path.
    pub fn bottleneck(&self) -> &'static str {
        self.links
            .iter()
            .min_by(|a, b| a.bytes_per_ns.total_cmp(&b.bytes_per_ns))
            .map(|l| l.name)
            .unwrap_or("empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_time_includes_setup() {
        let l = Link {
            name: "t",
            bytes_per_ns: 1.0,
            per_request_ns: 100,
        };
        assert_eq!(l.request_ns(1000), 1100);
    }

    #[test]
    fn from_mb_s_round_trips() {
        let l = Link::from_mb_s("t", 4000.0, 0);
        assert!((l.mb_s() - 4000.0).abs() < 1e-9);
        assert!((l.bytes_per_ns - 4.0).abs() < 1e-12);
    }

    #[test]
    fn chain_takes_min_bandwidth_and_sums_latency() {
        let fast = Link {
            name: "fast",
            bytes_per_ns: 4.0,
            per_request_ns: 500,
        };
        let slow = Link {
            name: "slow",
            bytes_per_ns: 1.0,
            per_request_ns: 1300,
        };
        let eff = LinkChain::single(fast).then(slow).effective();
        assert!((eff.bytes_per_ns - 1.0).abs() < 1e-12);
        assert_eq!(eff.per_request_ns, 1800);
    }

    #[test]
    fn bottleneck_names_narrowest_hop() {
        let fast = Link {
            name: "fast",
            bytes_per_ns: 4.0,
            per_request_ns: 0,
        };
        let slow = Link {
            name: "slow",
            bytes_per_ns: 1.0,
            per_request_ns: 0,
        };
        let chain = LinkChain::single(fast).then(slow);
        assert_eq!(chain.bottleneck(), "slow");
    }

    #[test]
    #[should_panic(expected = "empty link chain")]
    fn empty_chain_panics() {
        LinkChain::default().effective();
    }
}
