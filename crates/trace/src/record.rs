//! POSIX-level trace records.

use nvmtypes::{IoOp, Nanos, SimError};

/// One POSIX-level I/O event captured directly under the application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Timestamp of the call (ns since trace start).
    pub t: Nanos,
    /// Read or write.
    pub op: IoOp,
    /// Identifier of the file the call targeted.
    pub file: u32,
    /// Byte offset within the file.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
}

impl TraceRecord {
    /// The largest [`TraceRecord::end`] a parsed record may have. POSIX
    /// file offsets (`off_t`) are signed 64-bit, so no file reaches past
    /// `i64::MAX`; the bound also leaves room to round any end up to a
    /// whole file-system block in a `u64`.
    pub const MAX_END: u64 = u64::MAX >> 1;

    /// Exclusive end offset.
    pub fn end(&self) -> u64 {
        self.offset + self.len
    }
}

/// An ordered POSIX-level trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PosixTrace {
    /// Events in capture order.
    pub records: Vec<TraceRecord>,
}

impl PosixTrace {
    /// Empty trace.
    pub fn new() -> PosixTrace {
        PosixTrace::default()
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when no events were captured.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total bytes moved (reads + writes).
    pub fn total_bytes(&self) -> u64 {
        self.records.iter().map(|r| r.len).sum()
    }

    /// Bytes moved by reads only.
    pub fn read_bytes(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| r.op.is_read())
            .map(|r| r.len)
            .sum()
    }

    /// Fraction of bytes that are reads, in `[0, 1]`; 0 for an empty trace.
    ///
    /// OoC solver workloads are heavily read-intensive (§3.1), so this is
    /// near 1 for the traces the paper studies.
    pub fn read_fraction(&self) -> f64 {
        let total = self.total_bytes();
        if total == 0 {
            0.0
        } else {
            self.read_bytes() as f64 / total as f64
        }
    }

    /// Appends a record, keeping timestamps monotonically non-decreasing
    /// by clamping regressions to the previous timestamp.
    pub fn push(&mut self, mut rec: TraceRecord) {
        if let Some(last) = self.records.last() {
            if rec.t < last.t {
                rec.t = last.t;
            }
        }
        self.records.push(rec);
    }

    /// Serialises to a simple one-line-per-record text form
    /// (`t op file offset len`), handy for eyeballing and for feeding
    /// external plotting tools.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(self.records.len() * 32);
        for r in &self.records {
            let op = if r.op.is_read() { 'R' } else { 'W' };
            out.push_str(&format!(
                "{} {} {} {} {}\n",
                r.t, op, r.file, r.offset, r.len
            ));
        }
        out
    }

    /// Parses the [`PosixTrace::to_text`] format. Lines that are empty or
    /// start with `#` are skipped. A line with fields past `len`, or whose
    /// `offset + len` exceeds [`TraceRecord::MAX_END`], is a parse error
    /// naming that line.
    pub fn from_text(text: &str) -> Result<PosixTrace, SimError> {
        let mut trace = PosixTrace::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fail = |reason: String| SimError::parse("posix trace", i + 1, reason);
            let mut it = line.split_whitespace();
            let mut next = |what: &str| {
                it.next()
                    .ok_or_else(|| SimError::parse("posix trace", i + 1, format!("missing {what}")))
            };
            let t: Nanos = next("t")?.parse().map_err(|e| fail(format!("{e}")))?;
            let op = match next("op")? {
                "R" => IoOp::Read,
                "W" => IoOp::Write,
                other => return Err(fail(format!("bad op `{other}`"))),
            };
            let file: u32 = next("file")?.parse().map_err(|e| fail(format!("{e}")))?;
            let offset: u64 = next("offset")?.parse().map_err(|e| fail(format!("{e}")))?;
            let len: u64 = next("len")?.parse().map_err(|e| fail(format!("{e}")))?;
            if let Some(extra) = it.next() {
                return Err(fail(format!("unexpected field `{extra}` after len")));
            }
            let end = offset.checked_add(len);
            if end.filter(|&end| end <= TraceRecord::MAX_END).is_none() {
                return Err(fail(format!(
                    "offset {offset} + len {len} ends past the largest file offset {}",
                    TraceRecord::MAX_END
                )));
            }
            trace.push(TraceRecord {
                t,
                op,
                file,
                offset,
                len,
            });
        }
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t: Nanos, offset: u64, len: u64) -> TraceRecord {
        TraceRecord {
            t,
            op: IoOp::Read,
            file: 0,
            offset,
            len,
        }
    }

    #[test]
    fn totals() {
        let mut tr = PosixTrace::new();
        tr.push(rec(0, 0, 100));
        tr.push(TraceRecord {
            t: 1,
            op: IoOp::Write,
            file: 0,
            offset: 100,
            len: 50,
        });
        assert_eq!(tr.total_bytes(), 150);
        assert_eq!(tr.read_bytes(), 100);
        assert!((tr.read_fraction() - 100.0 / 150.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_read_fraction_is_zero() {
        assert_eq!(PosixTrace::new().read_fraction(), 0.0);
    }

    #[test]
    fn push_clamps_time_regressions() {
        let mut tr = PosixTrace::new();
        tr.push(rec(100, 0, 1));
        tr.push(rec(50, 1, 1)); // regression -> clamped to 100
        assert_eq!(tr.records[1].t, 100);
    }

    #[test]
    fn text_round_trip() {
        let mut tr = PosixTrace::new();
        tr.push(rec(0, 4096, 65536));
        tr.push(TraceRecord {
            t: 10,
            op: IoOp::Write,
            file: 2,
            offset: 0,
            len: 512,
        });
        let text = tr.to_text();
        let back = PosixTrace::from_text(&text).unwrap();
        assert_eq!(tr, back);
    }

    #[test]
    fn from_text_skips_comments_and_rejects_garbage() {
        let t = "# header\n0 R 0 0 10\n\n5 W 1 10 20\n";
        let tr = PosixTrace::from_text(t).unwrap();
        assert_eq!(tr.len(), 2);
        assert!(PosixTrace::from_text("0 X 0 0 10").is_err());
        assert!(PosixTrace::from_text("0 R 0 0").is_err());
    }

    #[test]
    fn from_text_rejects_an_end_past_the_largest_file_offset() {
        for line in [
            "0 R 0 18446744073709551615 4096",
            "0 R 0 18446744073709547519 4096",
            "0 R 0 9223372036854771712 4096",
        ] {
            let err = PosixTrace::from_text(&format!("0 R 0 0 4096\n{line}\n"))
                .unwrap_err()
                .to_string();
            assert!(err.contains("line 2"), "{err}");
            assert!(err.contains("largest file offset"), "{err}");
        }
        // An end of exactly `MAX_END` still parses, and rounds up to any
        // power-of-two `u32` block size without overflow.
        let tr = PosixTrace::from_text("0 R 0 9223372036854771711 4096").unwrap();
        assert_eq!(tr.records[0].end(), TraceRecord::MAX_END);
        assert_eq!(
            TraceRecord::MAX_END.checked_next_multiple_of(1 << 31),
            Some(1 << 63)
        );
    }

    #[test]
    fn from_text_rejects_extra_fields() {
        let err = PosixTrace::from_text("# header\n0 R 0 0 4096 extra junk\n")
            .unwrap_err()
            .to_string();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("`extra`"), "{err}");
    }
}
