//! Device-level block traces: what a file system emits and what the SSD
//! simulator consumes.

use nvmtypes::HostRequest;

/// An ordered sequence of device-level requests, together with the issue
/// discipline the emitting layer sustains.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockTrace {
    /// Requests in issue order.
    pub requests: Vec<HostRequest>,
    /// How many requests the emitting software stack keeps outstanding at
    /// the device. Well-plugged stacks (UFS) sustain deep queues; stacks
    /// that serialise on metadata or journal commits sustain shallow ones.
    pub queue_depth: u32,
}

impl BlockTrace {
    /// New trace with the given queue depth.
    pub fn new(queue_depth: u32) -> BlockTrace {
        BlockTrace {
            requests: Vec::new(),
            queue_depth: queue_depth.max(1),
        }
    }

    /// Builds a trace from parts.
    pub fn from_requests(requests: Vec<HostRequest>, queue_depth: u32) -> BlockTrace {
        BlockTrace {
            requests,
            queue_depth: queue_depth.max(1),
        }
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// `true` when the trace has no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Total bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.requests.iter().map(|r| r.len).sum()
    }

    /// Bytes moved by data (non-sync) requests — i.e. excluding metadata
    /// and journal traffic injected by the file system.
    pub fn data_bytes(&self) -> u64 {
        self.requests
            .iter()
            .filter(|r| !r.sync)
            .map(|r| r.len)
            .sum()
    }

    /// Mean request size in bytes (0 for an empty trace).
    pub fn mean_request_size(&self) -> f64 {
        if self.requests.is_empty() {
            0.0
        } else {
            self.total_bytes() as f64 / self.requests.len() as f64
        }
    }

    /// Fraction of requests that directly follow their predecessor in the
    /// device address space (sequentiality, in `[0, 1]`; 1.0 for traces of
    /// length < 2).
    pub fn sequentiality(&self) -> f64 {
        if self.requests.len() < 2 {
            return 1.0;
        }
        let seq = self
            .requests
            .windows(2)
            .filter(|w| w[1].offset == w[0].offset + w[0].len)
            .count();
        seq as f64 / (self.requests.len() - 1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmtypes::HostRequest as R;

    #[test]
    fn totals_and_mean() {
        let t = BlockTrace::from_requests(vec![R::read(0, 100), R::read(100, 300)], 8);
        assert_eq!(t.total_bytes(), 400);
        assert!((t.mean_request_size() - 200.0).abs() < 1e-12);
    }

    #[test]
    fn queue_depth_clamped_to_one() {
        assert_eq!(BlockTrace::new(0).queue_depth, 1);
    }

    #[test]
    fn sequentiality_fully_sequential() {
        let t =
            BlockTrace::from_requests(vec![R::read(0, 10), R::read(10, 10), R::read(20, 10)], 1);
        assert!((t.sequentiality() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sequentiality_random() {
        let t =
            BlockTrace::from_requests(vec![R::read(0, 10), R::read(100, 10), R::read(50, 10)], 1);
        assert_eq!(t.sequentiality(), 0.0);
    }

    #[test]
    fn data_bytes_excludes_sync_traffic() {
        let t = BlockTrace::from_requests(vec![R::read(0, 100), R::write(500, 8).synchronous()], 4);
        assert_eq!(t.total_bytes(), 108);
        assert_eq!(t.data_bytes(), 100);
    }

    #[test]
    fn short_traces_are_sequential_by_convention() {
        assert_eq!(BlockTrace::new(1).sequentiality(), 1.0);
        let t = BlockTrace::from_requests(vec![R::read(0, 10)], 1);
        assert_eq!(t.sequentiality(), 1.0);
    }
}
