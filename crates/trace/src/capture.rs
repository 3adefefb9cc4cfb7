//! Thread-safe POSIX-level trace capture.
//!
//! The out-of-core application (the `ooc` crate) performs its reads and
//! writes through a [`TraceSink`]; [`TraceCapture`] is the standard sink
//! that timestamps and records every call, mirroring the paper's
//! POSIX-level trace collection on the Carver compute nodes (§4.2).

use crate::record::{PosixTrace, TraceRecord};
use nvmtypes::{IoOp, Nanos};
use std::sync::{MutexGuard, PoisonError};

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
/// amount per recorded *call*, whatever its length (default: 1 ns per
/// call). The clock ticks under the same lock that pushes the record, so
/// records are in strictly increasing timestamp order in push order,
/// with no sort needed, however many threads record. The downstream SSD
/// simulator imposes its own closed-loop timing, so only the order and
/// shape of requests matter.
#[derive(Debug)]
pub struct TraceCapture {
    state: StateLock,
    ns_per_call: u64,
}

/// The capture's one lock, the last in the workspace lock order
/// (docs/CONCURRENCY.md): nothing is locked while it is held.
#[expect(
    clippy::disallowed_types,
    reason = "a leaf of the lock order in docs/CONCURRENCY.md"
)]
type StateLock = std::sync::Mutex<Captured>;

/// The records and the logical clock, behind one lock.
#[derive(Debug, Default)]
struct Captured {
    trace: PosixTrace,
    clock: Nanos,
}

impl Default for TraceCapture {
    fn default() -> Self {
        TraceCapture::new()
    }
}

impl TraceCapture {
    /// New capture whose logical clock ticks 1 ns per call.
    pub fn new() -> TraceCapture {
        TraceCapture::with_tick(1)
    }

    /// New capture advancing the logical clock by `ns_per_call` per call.
    pub fn with_tick(ns_per_call: u64) -> TraceCapture {
        TraceCapture {
            state: StateLock::new(Captured::default()),
            ns_per_call,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Captured> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of events captured so far.
    pub fn len(&self) -> usize {
        self.lock().trace.len()
    }

    /// `true` when nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consumes the capture, returning the trace in capture order (which
    /// is timestamp order).
    pub fn into_trace(self) -> PosixTrace {
        self.state
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .trace
    }

    /// Clones the current contents without consuming the capture.
    pub fn snapshot(&self) -> PosixTrace {
        self.lock().trace.clone()
    }
}

impl TraceSink for TraceCapture {
    fn record(&self, op: IoOp, file: u32, offset: u64, len: u64) {
        let mut state = self.lock();
        let t = state.clock;
        state.clock = t.saturating_add(self.ns_per_call);
        state.trace.records.push(TraceRecord {
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
        // Timestamps are unique and in capture order.
        for w in tr.records.windows(2) {
            assert!(w[0].t < w[1].t);
        }
    }

    #[test]
    fn racing_recorders_push_in_timestamp_order() {
        // The clock ticks under the lock that pushes the record, so no
        // interleaving of recorders can push a later tick first. Nothing
        // sorts the snapshot: push order itself must be timestamp order.
        let cap = TraceCapture::new();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let (cap, start) = (&cap, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..5_000u64 {
                        cap.record(IoOp::Read, t, i, 1);
                    }
                });
            }
        });
        let tr = cap.snapshot();
        assert_eq!(tr.len(), 20_000);
        for (i, w) in tr.records.windows(2).enumerate() {
            assert!(
                w[0].t < w[1].t,
                "record {} pushed out of order: {w:?}",
                i + 1
            );
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
