//! Access-pattern statistics and the Figure-6 scatter data.

use crate::block::BlockTrace;
use crate::record::PosixTrace;

/// One point of the Figure-6 style access-pattern scatter:
/// the `seq`-th request in the trace touched byte address `addr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScatterPoint {
    /// Position of the access in issue order.
    pub seq: u64,
    /// Starting byte address of the access.
    pub addr: u64,
    /// Length of the access in bytes.
    pub len: u64,
}

/// Power-of-two request-size histogram.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SizeHistogram {
    /// `buckets[i]` counts requests with `2^i <= len < 2^(i+1)`
    /// (bucket 0 also holds zero-length requests).
    pub buckets: Vec<u64>,
}

impl SizeHistogram {
    /// Builds a histogram from request lengths.
    pub fn from_lengths<I: IntoIterator<Item = u64>>(lens: I) -> SizeHistogram {
        let mut buckets = vec![0u64; 64];
        for len in lens {
            let b = if len <= 1 {
                0
            } else {
                63 - len.leading_zeros() as usize
            };
            buckets[b] += 1;
        }
        while buckets.len() > 1 && buckets.last() == Some(&0) {
            buckets.pop();
        }
        SizeHistogram { buckets }
    }

    /// Total number of requests counted.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Median request size, as the lower bound of the bucket containing the
    /// median request (0 for an empty histogram).
    pub fn median_bucket_floor(&self) -> u64 {
        let total = self.total();
        if total == 0 {
            return 0;
        }
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen * 2 >= total {
                return 1u64 << i;
            }
        }
        0
    }
}

/// Aggregate shape statistics of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessStats {
    /// Number of requests.
    pub count: u64,
    /// Total bytes.
    pub bytes: u64,
    /// Mean request size in bytes.
    pub mean_size: f64,
    /// Fraction of back-to-back sequential requests.
    pub sequentiality: f64,
    /// Request-size distribution.
    pub sizes: SizeHistogram,
}

impl AccessStats {
    /// Statistics of a device-level block trace.
    pub fn of_block(trace: &BlockTrace) -> AccessStats {
        AccessStats {
            count: trace.len() as u64,
            bytes: trace.total_bytes(),
            mean_size: trace.mean_request_size(),
            sequentiality: trace.sequentiality(),
            sizes: SizeHistogram::from_lengths(trace.requests.iter().map(|r| r.len)),
        }
    }

    /// Statistics of a POSIX-level trace (per-file sequentiality is not
    /// distinguished; offsets are compared across consecutive records of
    /// the same file only).
    pub fn of_posix(trace: &PosixTrace) -> AccessStats {
        let n = trace.len() as u64;
        let mut seq = 0u64;
        let mut comparable = 0u64;
        for w in trace.records.windows(2) {
            if w[0].file == w[1].file {
                comparable += 1;
                if w[1].offset == w[0].end() {
                    seq += 1;
                }
            }
        }
        let sequentiality = if comparable == 0 {
            1.0
        } else {
            seq as f64 / comparable as f64
        };
        AccessStats {
            count: n,
            bytes: trace.total_bytes(),
            mean_size: if n == 0 {
                0.0
            } else {
                trace.total_bytes() as f64 / n as f64
            },
            sequentiality,
            sizes: SizeHistogram::from_lengths(trace.records.iter().map(|r| r.len)),
        }
    }
}

/// Figure-6 scatter for a POSIX trace: address vs. access sequence as the
/// application emitted it (bottom panel of the figure). At most `limit`
/// points are returned.
pub fn posix_scatter(trace: &PosixTrace, limit: usize) -> Vec<ScatterPoint> {
    trace
        .records
        .iter()
        .take(limit)
        .enumerate()
        .map(|(i, r)| ScatterPoint {
            seq: i as u64,
            addr: r.offset,
            len: r.len,
        })
        .collect()
}

/// Figure-6 scatter for a block trace: address vs. access sequence as it
/// arrives at the device after the file system mutated it (top panel).
pub fn block_scatter(trace: &BlockTrace, limit: usize) -> Vec<ScatterPoint> {
    trace
        .requests
        .iter()
        .take(limit)
        .enumerate()
        .map(|(i, r)| ScatterPoint {
            seq: i as u64,
            addr: r.offset,
            len: r.len,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmtypes::{HostRequest, IoOp};

    #[test]
    fn histogram_buckets() {
        let h = SizeHistogram::from_lengths([1, 2, 3, 4, 1024, 1025]);
        assert_eq!(h.buckets[0], 1); // 1
        assert_eq!(h.buckets[1], 2); // 2, 3
        assert_eq!(h.buckets[2], 1); // 4
        assert_eq!(h.buckets[10], 2); // 1024, 1025
        assert_eq!(h.total(), 6);
    }

    #[test]
    fn histogram_median() {
        let h = SizeHistogram::from_lengths([4096; 10]);
        assert_eq!(h.median_bucket_floor(), 4096);
        assert_eq!(SizeHistogram::from_lengths([]).median_bucket_floor(), 0);
    }

    #[test]
    fn posix_stats_sequentiality_ignores_cross_file_gaps() {
        let mut tr = PosixTrace::new();
        for (f, off) in [(0u32, 0u64), (0, 100), (1, 0), (1, 100)] {
            tr.push(crate::record::TraceRecord {
                t: 0,
                op: IoOp::Read,
                file: f,
                offset: off,
                len: 100,
            });
        }
        let st = AccessStats::of_posix(&tr);
        // Three comparable pairs: (0,0)-(0,100) seq, (0,100)-(1,0) not
        // comparable, (1,0)-(1,100) seq => 2/2 comparable sequential.
        assert!((st.sequentiality - 1.0).abs() < 1e-12);
        assert_eq!(st.count, 4);
    }

    #[test]
    fn scatter_respects_limit() {
        let t =
            BlockTrace::from_requests((0..100).map(|i| HostRequest::read(i * 10, 10)).collect(), 8);
        let pts = block_scatter(&t, 10);
        assert_eq!(pts.len(), 10);
        assert_eq!(pts[9].addr, 90);
        assert_eq!(pts[9].seq, 9);
    }

    #[test]
    fn block_stats_roll_up() {
        let t =
            BlockTrace::from_requests(vec![HostRequest::read(0, 10), HostRequest::read(10, 30)], 8);
        let st = AccessStats::of_block(&t);
        assert_eq!(st.count, 2);
        assert_eq!(st.bytes, 40);
        assert!((st.mean_size - 20.0).abs() < 1e-12);
        assert!((st.sequentiality - 1.0).abs() < 1e-12);
    }
}
