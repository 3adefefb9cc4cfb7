//! Thread-safe POSIX-level trace capture.
//!
//! The out-of-core application (the `ooc` crate) performs its reads and
//! writes through a [`TraceSink`]; [`TraceCapture`] is the standard sink
//! that timestamps and records every call, mirroring the paper's
//! POSIX-level trace collection on the Carver compute nodes (§4.2).

use crate::record::{PosixTrace, TraceRecord};
use nvmtypes::{IoOp, Nanos};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Anything that can observe POSIX-level I/O calls.
pub trait TraceSink: Send + Sync {
    /// Records one I/O call of `len` bytes at `offset` within `file`.
    fn record(&self, op: IoOp, file: u32, offset: u64, len: u64);
}

/// A sink that discards everything (used when tracing is off).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&self, _op: IoOp, _file: u32, _offset: u64, _len: u64) {}
}

/// Thread-safe trace recorder with a deterministic logical clock.
///
/// Real capture would use wall-clock timestamps; for reproducibility the
/// simulator-facing capture advances a logical clock by a configurable
/// amount per recorded byte (default: 0, i.e. pure ordering). The
/// downstream SSD simulator imposes its own closed-loop timing, so only the
/// order and shape of requests matter.
#[derive(Debug)]
pub struct TraceCapture {
    records: Mutex<PosixTrace>,
    clock: AtomicU64,
    ns_per_call: u64,
}

impl Default for TraceCapture {
    fn default() -> Self {
        TraceCapture::new()
    }
}

impl TraceCapture {
    /// New capture whose logical clock ticks 1 ns per call.
    pub fn new() -> TraceCapture {
        TraceCapture {
            records: Mutex::new(PosixTrace::new()),
            clock: AtomicU64::new(0),
            ns_per_call: 1,
        }
    }

    /// New capture advancing the logical clock by `ns_per_call` per event.
    pub fn with_tick(ns_per_call: u64) -> TraceCapture {
        TraceCapture {
            records: Mutex::new(PosixTrace::new()),
            clock: AtomicU64::new(0),
            ns_per_call,
        }
    }

    /// Number of events captured so far.
    pub fn len(&self) -> usize {
        self.records
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// `true` when nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consumes the capture, returning the trace sorted by timestamp
    /// (stable, so same-timestamp events keep capture order).
    pub fn into_trace(self) -> PosixTrace {
        let mut tr = self
            .records
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        tr.records.sort_by_key(|r| r.t);
        tr
    }

    /// Clones the current contents without consuming the capture.
    pub fn snapshot(&self) -> PosixTrace {
        let mut tr = self
            .records
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        tr.records.sort_by_key(|r| r.t);
        tr
    }
}

impl TraceSink for TraceCapture {
    fn record(&self, op: IoOp, file: u32, offset: u64, len: u64) {
        let t: Nanos = self.clock.fetch_add(self.ns_per_call, Ordering::Relaxed);
        let mut guard = self.records.lock().unwrap_or_else(PoisonError::into_inner);
        guard.records.push(TraceRecord {
            t,
            op,
            file,
            offset,
            len,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn records_in_order() {
        let cap = TraceCapture::new();
        cap.record(IoOp::Read, 0, 0, 10);
        cap.record(IoOp::Read, 0, 10, 10);
        let tr = cap.into_trace();
        assert_eq!(tr.len(), 2);
        assert!(tr.records[0].t < tr.records[1].t);
        assert_eq!(tr.records[1].offset, 10);
    }

    #[test]
    fn null_sink_discards() {
        // Compile-time check that NullSink is a TraceSink; nothing observable.
        let s = NullSink;
        s.record(IoOp::Write, 0, 0, 4096);
    }

    #[test]
    fn concurrent_capture_loses_nothing() {
        let cap = Arc::new(TraceCapture::new());
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let cap = Arc::clone(&cap);
            handles.push(std::thread::spawn(move || {
                for i in 0..100u64 {
                    cap.record(IoOp::Read, t, i * 100, 100);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let tr = Arc::try_unwrap(cap).unwrap().into_trace();
        assert_eq!(tr.len(), 800);
        assert_eq!(tr.total_bytes(), 800 * 100);
        // Timestamps are unique (atomic clock) and sorted.
        for w in tr.records.windows(2) {
            assert!(w[0].t < w[1].t);
        }
    }

    #[test]
    fn snapshot_does_not_consume() {
        let cap = TraceCapture::new();
        cap.record(IoOp::Read, 0, 0, 10);
        assert_eq!(cap.snapshot().len(), 1);
        cap.record(IoOp::Read, 0, 10, 10);
        assert_eq!(cap.snapshot().len(), 2);
    }
}
