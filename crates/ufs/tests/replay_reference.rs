//! `JournaledUfs` against the replay loop it replaced.
//!
//! [`reference_replay`] is the earlier replay loop, kept verbatim apart
//! from its device: it reads every POSIX read record into a full
//! `r.len`-byte window and formats a fresh [`SimBlockDevice`], which
//! stores every byte written. The replay under test reads an empty
//! window at the record's offset and formats a private device that
//! stores no byte and reads every sector as zeros, on which `Ufs`
//! stages window lengths instead of bytes. The block trace
//! takes only the whole-file walk a durable read logs, and `Ufs` never
//! branches on data bytes, so both must emit the same requests and the
//! same write amplification on every trace. A `Ufs` change that makes
//! the output depend on data bytes fails here, and then the replay must
//! go back onto a content device.

use nvmtypes::convert::{u32_from, u64_from_usize, usize_from};
use nvmtypes::{IoOp, SimError};
use ooctrace::{BlockTrace, PosixTrace, TraceRecord};
use proptest::prelude::*;
use ssd::blockdev::SECTOR_BYTES as SECTOR;
use ssd::SimBlockDevice;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use ufs::{FileId, JournaledUfs, Ufs, UfsParams, WriteAmp};

/// The replay loop `JournaledUfs::transform_with_stats` ran before its
/// reads took empty windows, on a fresh device.
fn reference_replay(
    model: &JournaledUfs,
    posix: &PosixTrace,
) -> Result<(BlockTrace, WriteAmp), SimError> {
    let mut high: BTreeMap<u32, u64> = BTreeMap::new();
    for r in &posix.records {
        let e = high.entry(r.file).or_insert(0);
        *e = (*e).max(r.end());
    }
    let params = UfsParams {
        max_files: model
            .params
            .max_files
            .max(u32_from(u64_from_usize(high.len()))),
        ..model.params
    };
    let data_sectors: u64 = high.values().map(|b| b.div_ceil(SECTOR) + 1).sum();
    let meta = 1 + u64::from(params.max_files) + u64::from(params.journal_sectors);
    let total = meta + data_sectors * 2 + 8;
    let mut fs = Ufs::format(SimBlockDevice::new(total), params)?;
    fs.enable_request_log();

    let mut ids: BTreeMap<u32, FileId> = BTreeMap::new();
    let mut dirty: BTreeSet<u32> = BTreeSet::new();
    let mut name = String::new();
    let mut payload: Vec<u8> = Vec::new();
    let mut scratch: Vec<u8> = Vec::new();
    for r in &posix.records {
        let id = match ids.get(&r.file) {
            Some(&id) => id,
            None => {
                name.clear();
                write!(name, "f{}", r.file).map_err(|_| {
                    SimError::invalid_config("ufs.replay", "file-name format failed")
                })?;
                let id = fs.create(&name)?;
                ids.insert(r.file, id);
                id
            }
        };
        if r.op.is_read() {
            let have = fs.size(id)?;
            if have < r.end() {
                scratch.clear();
                scratch.resize(usize_from(r.end() - have), 0);
                fs.write(id, have, &scratch)?;
                dirty.insert(r.file);
            }
            if dirty.remove(&r.file) {
                fs.fsync(id)?;
            }
            scratch.resize(usize_from(r.len), 0);
            fs.read(id, r.offset, &mut scratch)?;
        } else {
            if payload.len() != usize_from(r.len) {
                payload.clear();
                payload.resize(usize_from(r.len), 0xA5);
            }
            fs.write(id, r.offset, &payload)?;
            dirty.insert(r.file);
        }
    }
    fs.sync_all()?;
    let wa = fs.write_amp();
    let block = BlockTrace::from_requests(fs.take_request_log(), model.queue_depth);
    Ok((block, wa))
}

/// Asserts that the replay and the reference agree on `posix`, and
/// returns the replay's block trace.
fn assert_replays_like_reference(posix: &PosixTrace) -> Result<BlockTrace, SimError> {
    let model = JournaledUfs::default();
    let (block, wa) = model.transform_with_stats(posix)?;
    let (want_block, want_wa) = reference_replay(&model, posix)?;
    assert_eq!(block.requests, want_block.requests, "block-trace requests");
    assert_eq!(wa, want_wa, "write amplification");
    assert!(
        block.requests.iter().any(|r| r.op.is_read()),
        "the trace's reads surface on the device"
    );
    Ok(block)
}

/// Appends records to a trace with consecutive timestamps.
#[derive(Default)]
struct Builder(PosixTrace);

impl Builder {
    fn push(&mut self, op: IoOp, file: u32, offset: u64, len: u64) {
        let t = u64_from_usize(self.0.records.len());
        self.0.push(TraceRecord {
            t,
            op,
            file,
            offset,
            len,
        });
    }

    fn write(&mut self, file: u32, offset: u64, len: u64) {
        self.push(IoOp::Write, file, offset, len);
    }

    fn read(&mut self, file: u32, offset: u64, len: u64) {
        self.push(IoOp::Read, file, offset, len);
    }
}

/// The shape of the benchmark's checkpoint traces: record-sized reads of
/// file 0, which is never written (every read materialises it), mostly
/// sequential with a seeded jump every few records, and after every
/// `interval` bytes read a burst of record-sized appends to file 1.
fn checkpoint_shaped(reads: u64, record: u64, interval: u64, burst: u64, seed: u64) -> PosixTrace {
    let mut b = Builder::default();
    let mut state = seed;
    let mut offset = 0;
    let mut since = 0;
    let mut cursor = 0;
    for i in 0..reads {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        if i % 5 == 4 {
            offset = (state >> 33) % (reads * record);
        }
        b.read(0, offset, record);
        offset += record;
        since += record;
        if since >= interval {
            since -= interval;
            for _ in 0..burst {
                b.write(1, cursor, record);
                cursor += record;
            }
        }
    }
    b.0
}

/// Write each file, read it back (an fsync), then rewrite its tail past
/// EOF and read the whole file, so the second commit copies the clean
/// prefix inside the device.
fn write_read_rewrite(files: u32, bytes: u64) -> PosixTrace {
    let mut b = Builder::default();
    for f in 0..files {
        b.write(f, 0, bytes);
        b.read(f, 0, 100);
    }
    for f in 0..files {
        b.write(f, bytes - 100, 5000);
        b.read(f, 0, bytes + 4900);
    }
    b.0
}

#[test]
fn checkpoint_shaped_traces_replay_like_the_reference() {
    for (reads, record, interval, burst, seed) in [
        (64, 64 * 1024, 256 * 1024, 4, 42),
        (40, 100_000, 300_000, 3, 7),
        (96, 4096, 16 * 4096, 8, 1),
        (24, 1000, 3000, 2, 9),
    ] {
        assert_replays_like_reference(&checkpoint_shaped(reads, record, interval, burst, seed))
            .expect("replays");
    }
    for (files, bytes) in [(1, 9_000), (3, 40_000), (5, 300_000)] {
        assert_replays_like_reference(&write_read_rewrite(files, bytes)).expect("replays");
    }
}

#[test]
fn partial_reads_of_a_fragmented_file_replay_like_the_reference() {
    // Each step sets file `f` to `s` sectors and reads one byte of it,
    // so the file commits. A step that does not grow the file
    // overwrites 100 bytes inside its second sector instead. File 1
    // grows, is overwritten, is pinned in by three small files and then
    // grows again: its last commit finds no free run of 15 sectors and
    // is spread over three extents of 11, 2 and 2 sectors.
    let steps = [
        (1, 3),
        (1, 6),
        (1, 8),
        (1, 11),
        (1, 11),
        (0, 2),
        (2, 2),
        (3, 2),
        (3, 2),
        (1, 12),
        (1, 15),
        (1, 15),
    ];
    let mut b = Builder::default();
    let mut size: BTreeMap<u32, u64> = BTreeMap::new();
    for (f, s) in steps {
        let have = size.entry(f).or_insert(0);
        if s * SECTOR > *have {
            b.write(f, *have, s * SECTOR - *have);
            *have = s * SECTOR;
        } else {
            b.write(f, SECTOR + 50, 100);
        }
        b.read(f, 0, 1);
    }
    // Sub-sector reads, reads straddling a sector and each extent
    // boundary (file sectors 11 and 13), and a read of the whole file.
    let windows = [
        (5000, 100),
        (SECTOR - 1, 2),
        (11 * SECTOR - 50, 100),
        (13 * SECTOR - 1, SECTOR + 2),
        (14 * SECTOR + 4000, 96),
        (0, 15 * SECTOR),
    ];
    for (offset, len) in windows {
        b.read(1, offset, len);
    }
    let block = assert_replays_like_reference(&b.0).expect("replays");
    // The trace ends with the walks of the last step's read and of the
    // windows, one request per extent (consecutive walks do not merge:
    // the last extent does not end where the first begins).
    let walks: Vec<_> = block
        .requests
        .iter()
        .rev()
        .take_while(|r| r.op.is_read())
        .collect();
    assert_eq!(
        walks.len(),
        3 * (windows.len() + 1),
        "the file has three extents"
    );
    let last: Vec<u64> = walks[..3].iter().rev().map(|r| r.len / SECTOR).collect();
    assert_eq!(last, [11, 2, 2], "the last walk covers every sector");
}

#[test]
fn a_65_file_trace_replays_like_the_reference() {
    // One file more than the default file table holds: 64 written and
    // read back, every third rewritten, and one only ever read.
    let slots = JournaledUfs::default().params.max_files;
    assert_eq!(slots, 64);
    let mut b = Builder::default();
    for f in 0..slots {
        let bytes = 1000 + u64::from(f) * 700;
        b.write(f, 0, bytes);
        b.read(f, u64::from(f) % bytes, 1);
    }
    for f in (0..slots).step_by(3) {
        b.write(f, 10, 20);
        b.read(f, 5, 30);
    }
    b.read(slots, 4000, 5000);
    assert_replays_like_reference(&b.0).expect("replays");
}

/// A byte offset near the start, middle or end of one of a file's first
/// eight sectors: sector-aligned, sub-sector and straddling records
/// all come out of it.
fn offset() -> impl Strategy<Value = u64> {
    (
        0u64..8,
        prop_oneof![Just(0u64), 1u64..SECTOR - 1, Just(SECTOR - 1)],
    )
        .prop_map(|(sector, within)| sector * SECTOR + within)
}

/// A record length: a few bytes, up to three sectors, or one sector.
fn len() -> impl Strategy<Value = u64> {
    prop_oneof![1u64..64, 1u64..3 * SECTOR, Just(SECTOR)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random traces over one to five files: writes and reads at any
    /// offset, reads past EOF that materialise the file, and writes into
    /// sectors an earlier read made durable, whose staged windows then
    /// carry durable bytes the replay's device does not hold.
    #[test]
    fn random_traces_replay_like_the_reference(
        files in 1u32..=5,
        ops in prop::collection::vec(
            (prop::bool::ANY, 0u32..5, offset(), len()),
            1..40,
        ),
    ) {
        let mut b = Builder::default();
        for (read, file, offset, len) in ops {
            let op = if read { IoOp::Read } else { IoOp::Write };
            b.push(op, file % files, offset, len);
        }
        let model = JournaledUfs::default();
        let got = model.transform_with_stats(&b.0);
        prop_assert!(got.is_ok(), "replays: {got:?}");
        prop_assert_eq!(got, reference_replay(&model, &b.0));
    }
}
