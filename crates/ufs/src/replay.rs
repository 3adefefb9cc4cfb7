//! Replaying a POSIX trace through the real filesystem.
//!
//! [`JournaledUfs`] implements [`oocfs::FileSystemModel`] by actually
//! executing the application's POSIX trace against a mounted [`Ufs`]
//! over a block device that stores no bytes, capturing every sector
//! request the filesystem issues and returning that as the device-level
//! block trace.
//! Unlike the parameterised models in `oocfs`, the journal commits,
//! metadata applies and copy-on-write data placement in the output are
//! not modelled — they are the writes a real journaled UFS performed.
//!
//! The replay reads each POSIX read record as an empty window at the
//! record's offset. A durable [`Ufs::read`] logs a walk over every
//! sector of the file whatever window it is given, and that walk is all
//! the block trace takes from a read; the bytes a full window would copy
//! are never looked at. The empty window logs the same requests and
//! copies nothing.

use crate::fs::{FileId, Ufs, UfsParams};
use nvmtypes::convert::{u32_from, u64_from_usize, usize_from};
use nvmtypes::SimError;
use oocfs::FileSystemModel;
use ooctrace::{BlockTrace, PosixTrace};
use simobs::Metric;
use ssd::{BlockDevice, SECTOR_USIZE};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// The real journaled UFS as a trace transformer.
///
/// Replay policy: writes are staged per file and journaled (fsynced)
/// when the trace next *reads* that file, and at end of trace — the
/// laziest schedule that keeps read-your-writes through the device
/// honest. Reads of never-written ranges materialise the file as zeros
/// first. That path is common, not rare: a trace that reads input it
/// never wrote, such as every file the solver only reads, materialises
/// all of it. In `checkpoint_trace` file 0 is only ever read, and the
/// materialising writes make about 70% of the replay's copy-on-write
/// bytes (152 of 216 MiB over the four seed-42 traces of the
/// benchmark's journaled_ckpt workload).
///
/// Host cost: the replay formats on a device that checks and counts
/// every sector operation but stores no byte, and says so
/// ([`BlockDevice::stores_data`]). So a commit's copy-on-write sectors
/// copy nothing, and the filesystem stages only the length of what a
/// file's writes and materialisations add since its last fsync (the
/// staged window of [`crate::fs`]), not their bytes: a write costs a
/// few integer updates whatever its size. The emitted block trace is
/// unchanged by this: the first write after each fsync still surfaces
/// as a read of every sector of the file, and each commit writes every
/// sector of it. A replay allocates no device image, no window buffer,
/// and keeps no memory between calls.
#[derive(Debug, Clone, Copy)]
pub struct JournaledUfs {
    /// Filesystem geometry used for the replay mount.
    pub params: UfsParams,
    /// Queue depth reported on the emitted block trace.
    pub queue_depth: u32,
}

impl Default for JournaledUfs {
    fn default() -> JournaledUfs {
        JournaledUfs {
            params: UfsParams::default(),
            queue_depth: 16,
        }
    }
}

impl JournaledUfs {
    /// Replays `posix` through a freshly formatted filesystem, returning
    /// the captured block trace, or the error that stopped the replay.
    pub fn try_transform(&self, posix: &PosixTrace) -> Result<BlockTrace, SimError> {
        self.transform_with_stats(posix).map(|(block, _)| block)
    }

    /// [`JournaledUfs::try_transform`] plus the filesystem's
    /// write-amplification counters: how the journaled replay's device
    /// bytes decompose into COW data, journal records and table applies
    /// against the application bytes written — the exact breakdown of
    /// the `ufs` study's replay overhead.
    pub fn transform_with_stats(
        &self,
        posix: &PosixTrace,
    ) -> Result<(BlockTrace, crate::fs::WriteAmp), SimError> {
        // Size the device to the trace footprint: per-file high-water
        // marks, doubled for copy-on-write headroom, plus metadata.
        let mut high: BTreeMap<u32, u64> = BTreeMap::new();
        for r in &posix.records {
            let e = high.entry(r.file).or_insert(0);
            *e = (*e).max(r.end());
        }
        // The file table holds every file the trace names, however few
        // slots `params` asks for.
        let params = UfsParams {
            max_files: self
                .params
                .max_files
                .max(u32_from(u64_from_usize(high.len()))),
            ..self.params
        };
        let sector = u64_from_usize(SECTOR_USIZE);
        let data_sectors: u64 = high.values().map(|b| b.div_ceil(sector) + 1).sum();
        let meta = 1 + u64::from(params.max_files) + u64::from(params.journal_sectors);
        let total = meta + data_sectors * 2 + 8;
        let dev = ReplayDevice {
            sectors: total,
            writes: 0,
        };
        let mut fs = Ufs::format(dev, params)?;
        fs.enable_request_log();

        let mut ids: BTreeMap<u32, FileId> = BTreeMap::new();
        let mut dirty: BTreeSet<u32> = BTreeSet::new();
        // Per-record scratch, hoisted out of the replay loop and resized
        // in place — the loop body allocates nothing at steady state.
        // `payload` only ever holds the 0xA5 write pattern, so it is
        // refilled only when the record length changes (the synthetic
        // out-of-core traces use one record size: one fill total);
        // `scratch` only ever holds zeros for the materialise writes, so
        // it grows only when a gap is longer than it.
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
                // Materialise anything the trace reads before writing.
                let have = fs.size(id)?;
                if have < r.end() {
                    let n = usize_from(r.end() - have);
                    if scratch.len() < n {
                        scratch.resize(n, 0);
                    }
                    fs.write(id, have, &scratch[..n])?;
                    dirty.insert(r.file);
                }
                if dirty.remove(&r.file) {
                    fs.fsync(id)?;
                }
                // The file is durable here (its staged bytes were just
                // fsynced), and a durable read logs the walk of the whole
                // file whatever its window; the walk is all the block
                // trace takes from a read. So an empty window at the
                // record's offset logs the same requests and copies no
                // bytes.
                fs.read(id, r.offset, &mut [])?;
            } else {
                // Deterministic payload; the bytes never surface in the
                // trace, only the request shapes do.
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
        let block = BlockTrace::from_requests(fs.take_request_log(), self.queue_depth);
        Ok((block, wa))
    }
}

/// The replay's device: it checks every sector operation as
/// [`ssd::SimBlockDevice`] does and counts the writes, but stores no
/// byte and reads every sector as zeros. It answers `false` to
/// [`BlockDevice::stores_data`], so [`Ufs`] stages window lengths, not
/// bytes, on it and commits zero sectors. That is sound because [`Ufs`]
/// never branches on data bytes and a replay never mounts (the one
/// reader of metadata), so no stored byte could reach the block trace
/// or the [`crate::fs::WriteAmp`]. A [`Ufs`] change that branches on
/// data must replay on a [`ssd::SimBlockDevice`] again;
/// `tests/replay_reference.rs` holds the two to the same output.
struct ReplayDevice {
    sectors: u64,
    writes: u64,
}

impl ReplayDevice {
    /// `SimBlockDevice`'s checks: a whole-sector buffer at an `lba` on
    /// the device.
    fn check(&self, lba: u64, len: usize, what: &str) -> Result<(), SimError> {
        if len == SECTOR_USIZE && lba < self.sectors {
            return Ok(());
        }
        Err(SimError::invalid_config(
            format!("blockdev.{what}"),
            format!(
                "{len}-byte sector I/O at lba {lba} of a {}-sector device",
                self.sectors
            ),
        ))
    }
}

impl BlockDevice for ReplayDevice {
    fn sectors(&self) -> u64 {
        self.sectors
    }

    fn read_sector(&self, lba: u64, out: &mut [u8]) -> Result<(), SimError> {
        self.check(lba, out.len(), "read")?;
        out.fill(0);
        Ok(())
    }

    fn write_sector(&mut self, lba: u64, data: &[u8]) -> Result<(), SimError> {
        self.check(lba, data.len(), "write")?;
        self.writes += 1;
        Ok(())
    }

    fn writes_persisted(&self) -> u64 {
        self.writes
    }

    fn stores_data(&self) -> bool {
        false
    }

    /// The default's checks and count, without its sector buffer.
    fn copy_sector(&mut self, from: u64, to: u64) -> Result<(), SimError> {
        self.check(from, SECTOR_USIZE, "read")?;
        self.check(to, SECTOR_USIZE, "write")?;
        self.writes += 1;
        Ok(())
    }
}

impl FileSystemModel for JournaledUfs {
    fn name(&self) -> &'static str {
        "ufs-journaled"
    }

    /// Infallible transform for the model interface: a replay error
    /// yields an empty trace rather than a panic. The device's data
    /// region and file table are sized from the trace, so a well-formed
    /// trace replays; what can still fail is a file whose copy-on-write
    /// rewrite needs more than the extents one table entry holds.
    fn transform(&self, posix: &PosixTrace) -> BlockTrace {
        self.try_transform(posix)
            .unwrap_or_else(|_| BlockTrace::new(self.queue_depth))
    }

    /// The default observed transform, plus the journal's commit-phase
    /// accounting: write-amplification counters (`ufs.user_bytes`,
    /// `ufs.cow_bytes`, `ufs.journal_bytes`, `ufs.apply_bytes`,
    /// `ufs.commits`) and a `Layer::Ufs` instant summarising the
    /// journal's byte cost over the user's. The tracer reads finished
    /// counters only, so the emitted block trace is byte-identical to
    /// the untraced transform.
    fn transform_observed(&self, posix: &PosixTrace, obs: &mut simobs::Tracer) -> BlockTrace {
        let (block, wa) = self.transform_with_stats(posix).unwrap_or_else(|_| {
            (
                BlockTrace::new(self.queue_depth),
                crate::fs::WriteAmp::default(),
            )
        });
        if obs.enabled() {
            let requests = u64_from_usize(block.len());
            let syncs = u64_from_usize(block.requests.iter().filter(|r| r.sync).count());
            obs.instant(
                simobs::Layer::Fs,
                self.name(),
                0,
                [("requests", requests), ("sync", syncs)],
            );
            obs.count(Metric::FsRequests, requests);
            obs.count(Metric::FsSyncRequests, syncs);
            obs.instant(
                simobs::Layer::Ufs,
                "journal_commit",
                0,
                [("commits", wa.commits), ("journal_bytes", wa.journal_bytes)],
            );
            obs.count(Metric::UfsUserBytes, wa.user_bytes);
            obs.count(Metric::UfsCowBytes, wa.cow_bytes);
            obs.count(Metric::UfsJournalBytes, wa.journal_bytes);
            obs.count(Metric::UfsApplyBytes, wa.apply_bytes);
            obs.count(Metric::UfsCommits, wa.commits);
        }
        block
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmtypes::IoOp;
    use ooctrace::TraceRecord;

    fn rec(t: u64, op: IoOp, file: u32, offset: u64, len: u64) -> TraceRecord {
        TraceRecord {
            t,
            op,
            file,
            offset,
            len,
        }
    }

    #[test]
    fn write_then_read_trace_produces_real_journal_traffic() {
        let mut posix = PosixTrace::new();
        posix.push(rec(0, IoOp::Write, 0, 0, 64 * 1024));
        posix.push(rec(1, IoOp::Read, 0, 0, 64 * 1024));
        let block = JournaledUfs::default()
            .try_transform(&posix)
            .expect("replays");
        assert!(!block.is_empty());
        let syncs = block.requests.iter().filter(|r| r.sync).count();
        // One transaction's 5 metadata writes (the request log starts
        // after format, so the superblock write is not captured).
        assert_eq!(syncs, 5);
        // The 64 KiB write survives as one sequential data request.
        let biggest = block.requests.iter().map(|r| r.len).max().unwrap_or(0);
        assert_eq!(biggest, 64 * 1024);
    }

    #[test]
    fn transform_is_deterministic() {
        let mut posix = PosixTrace::new();
        for i in 0..4u32 {
            posix.push(rec(u64::from(i), IoOp::Write, i % 2, 0, 20_000));
            posix.push(rec(u64::from(i) + 10, IoOp::Read, i % 2, 0, 10_000));
        }
        let m = JournaledUfs::default();
        assert_eq!(m.transform(&posix), m.transform(&posix));
        assert_eq!(m.name(), "ufs-journaled");
    }

    #[test]
    fn transform_with_stats_accounts_every_device_write() {
        let mut posix = PosixTrace::new();
        posix.push(rec(0, IoOp::Write, 0, 0, 64 * 1024));
        posix.push(rec(1, IoOp::Read, 0, 0, 64 * 1024));
        let (block, wa) = JournaledUfs::default()
            .transform_with_stats(&posix)
            .expect("replays");
        assert_eq!(wa.user_bytes, 64 * 1024);
        assert_eq!(wa.cow_bytes, 64 * 1024, "one COW pass of the content");
        assert_eq!(wa.commits, 1);
        // The captured block-trace write bytes equal the accounted
        // device writes minus the superblock (logging starts post-format).
        let written: u64 = block
            .requests
            .iter()
            .filter(|r| !r.op.is_read())
            .map(|r| r.len)
            .sum();
        assert_eq!(written + 4096, wa.device_bytes());
    }

    #[test]
    fn a_partial_read_logs_a_device_read_of_every_file_sector() {
        // Pins the model's read amplification: a 100-byte POSIX read of
        // a 6-sector file surfaces as a device read of all 6 sectors,
        // though the replay copies no byte of it.
        // Changing this model means changing this test and the pinned
        // block-trace digests together.
        let sector = u64_from_usize(SECTOR_USIZE);
        let mut posix = PosixTrace::new();
        posix.push(rec(0, IoOp::Write, 0, 0, 5 * sector + 100));
        posix.push(rec(1, IoOp::Read, 0, 5000, 100));
        let block = JournaledUfs::default()
            .try_transform(&posix)
            .expect("replays");
        let data: Vec<_> = block
            .requests
            .iter()
            .filter(|r| !r.op.is_read() && !r.sync)
            .collect();
        let reads: Vec<_> = block.requests.iter().filter(|r| r.op.is_read()).collect();
        assert_eq!(data.len(), 1, "one COW pass of the file");
        assert_eq!(data[0].len, 6 * sector);
        assert_eq!(reads.len(), 1);
        assert_eq!(
            (reads[0].offset, reads[0].len),
            (data[0].offset, data[0].len),
            "the read covers exactly the file's sectors"
        );
    }

    /// A replay's block trace and write amplification.
    fn replay(posix: &PosixTrace) -> (BlockTrace, crate::fs::WriteAmp) {
        JournaledUfs::default()
            .transform_with_stats(posix)
            .expect("replays")
    }

    #[test]
    fn the_replay_device_checks_and_counts_like_a_sim_device() {
        // Each operation's outcome: Ok, or the error's kind.
        let run = |dev: &mut dyn BlockDevice| {
            let sector = [0u8; SECTOR_USIZE];
            let mut out = [7u8; SECTOR_USIZE];
            let results = [
                dev.write_sector(3, &sector),
                dev.write_sector(4, &sector),
                dev.write_sector(0, &sector[..100]),
                dev.copy_sector(3, 0),
                dev.copy_sector(4, 0),
                dev.copy_sector(0, 4),
                dev.read_sector(4, &mut out),
                dev.read_sector(1, &mut out[..9]),
                dev.read_sector(0, &mut out),
            ];
            let kinds = results.map(|r| r.map_err(|e| matches!(e, SimError::InvalidConfig { .. })));
            (kinds, dev.writes_persisted(), out)
        };
        let want = run(&mut ssd::SimBlockDevice::new(4));
        assert_eq!(want.1, 2, "one write and one copy persisted");
        let got = run(&mut ReplayDevice {
            sectors: 4,
            writes: 0,
        });
        assert_eq!(got, want);
    }

    #[test]
    fn more_files_than_table_slots_still_replay() {
        let mut posix = PosixTrace::new();
        let slots = JournaledUfs::default().params.max_files;
        for f in 0..=slots {
            posix.push(rec(u64::from(f), IoOp::Write, f, 0, 4096));
        }
        let (block, wa) = replay(&posix);
        assert_eq!(wa.commits, u64::from(slots) + 1, "one commit per file");
        assert!(!block.is_empty());
    }

    #[test]
    fn read_only_trace_materialises_and_still_replays() {
        let mut posix = PosixTrace::new();
        posix.push(rec(0, IoOp::Read, 3, 0, 12_000));
        let block = JournaledUfs::default()
            .try_transform(&posix)
            .expect("replays");
        // Zero-fill write, its journal commit, then the actual read.
        assert!(block.requests.iter().any(|r| r.op.is_read()));
        assert!(block.requests.iter().any(|r| !r.op.is_read()));
    }
}
