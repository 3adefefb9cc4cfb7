//! The filesystem: format, mount-with-recovery, and the
//! create/open/read/write/fsync surface the out-of-core store drives.
//!
//! ## Commit protocol (redo journaling)
//!
//! An `fsync` makes one file's staged content durable in five ordered
//! device-write phases:
//!
//! 1. **Data** — copy-on-write: fresh extents are allocated and the new
//!    content written there. The old extents stay referenced by the
//!    durable entry, so a crash here loses nothing.
//! 2. **Journal** — `Begin` and one `Update` record carrying the complete
//!    new file entry (name, size, new extents).
//! 3. **Commit mark** — one record; the transaction is durable the
//!    moment this sector persists.
//! 4. **Apply** — the entry is written in place in the file table.
//! 5. **Checkpoint** — one record telling recovery the apply happened.
//!
//! Power loss before (3) leaves the transaction invisible; after (3),
//! recovery replays the apply from the journal image. Recovery writes a
//! checkpoint only when it replayed something, so recovering twice is
//! byte-identical to recovering once.
//!
//! ## Staging
//!
//! Writes between two fsyncs are staged in memory as a per-file
//! *window*: the sector-aligned tail `[start, EOF)` of the file, holding
//! every byte written since the last fsync. Bytes below `start` are
//! unchanged and stay in the durable extents, so an append stages at
//! most one partial sector of old content. The first write after an
//! fsync logs the whole-file read walk (the model charges staging as a
//! POSIX read of the file); extending the window downward for a later
//! write below `start` reads the device without logging. At fsync the
//! clean prefix sectors are copied from the old extents and the window's
//! sectors written after them, in file order.
//!
//! On a device that stores no data ([`BlockDevice::stores_data`] is
//! `false`, the journaled replay's) a window stages its length alone:
//! writes copy no byte, staged reads read zeros, as that device's reads
//! do, and fsync writes the window's sectors as zero sectors. The
//! device requests, their order and the [`WriteAmp`] are the same as
//! when the bytes are staged.

use crate::alloc::ExtentAllocator;
use crate::journal::{plan_recovery, RecoveryReport};
use crate::layout::{
    ring_slot, sector_offset, FileEntry, JournalRecord, RecordKind, Superblock, MAX_EXTENTS,
    MAX_NAME,
};
use nvmtypes::convert::{u32_from, u64_from_usize, usize_from, usize_from_u32};
use nvmtypes::{HostRequest, SimError};
use ssd::{BlockDevice, SECTOR_BYTES, SECTOR_USIZE};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// Device writes issued after the commit mark in one `fsync`
/// transaction (the in-place apply and the checkpoint record). The
/// crash-matrix harness uses this to compute, from a clean run's write
/// count, the exact write index at which each transaction's commit mark
/// persisted.
pub const WRITES_AFTER_COMMIT: u64 = 2;

/// Device-byte accounting for the journal's write amplification: how
/// many bytes the filesystem wrote to the device, split by purpose,
/// against how many bytes the application asked it to write. The ~390%
/// replay overhead the `ufs` study reports decomposes exactly into
/// these counters (`docs/PROFILING.md`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteAmp {
    /// Application bytes staged through [`Ufs::write`].
    pub user_bytes: u64,
    /// Copy-on-write data bytes: every fsync rewrites the file's full
    /// content into fresh extents (the dominant amplification source).
    pub cow_bytes: u64,
    /// Journal-ring record bytes (Begin/Update/Commit/Checkpoint).
    pub journal_bytes: u64,
    /// In-place file-table applies plus the superblock.
    pub apply_bytes: u64,
    /// Committed transactions ([`Ufs::fsync`] calls that wrote).
    pub commits: u64,
    /// Transactions replayed by mount-time recovery.
    pub recovery_replays: u64,
}

impl WriteAmp {
    /// Every byte the device saw (data + journal + applies).
    pub fn device_bytes(&self) -> u64 {
        self.cow_bytes + self.journal_bytes + self.apply_bytes
    }

    /// Device bytes per user byte, in integer per-mille (1000 = 1.0x).
    /// 0 when no user bytes were written.
    pub fn device_per_user_permille(&self) -> u64 {
        self.device_bytes()
            .saturating_mul(1000)
            .checked_div(self.user_bytes)
            .unwrap_or(0)
    }
}

/// Format-time geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UfsParams {
    /// File-table slots (one sector each).
    pub max_files: u32,
    /// Journal-ring length in sectors.
    pub journal_sectors: u32,
}

impl Default for UfsParams {
    fn default() -> UfsParams {
        UfsParams {
            max_files: 64,
            journal_sectors: 64,
        }
    }
}

impl UfsParams {
    /// Validates the geometry against a device of `total_sectors`.
    pub fn validate(&self, total_sectors: u64) -> Result<(), SimError> {
        if self.max_files == 0 {
            return Err(SimError::invalid_config(
                "ufs.max_files",
                "must be non-zero",
            ));
        }
        if self.journal_sectors < 8 {
            return Err(SimError::invalid_config(
                "ufs.journal_sectors",
                "must be at least 8",
            ));
        }
        let meta = 1 + u64::from(self.max_files) + u64::from(self.journal_sectors);
        if meta >= total_sectors {
            return Err(SimError::invalid_config(
                "ufs.params",
                format!("metadata needs {meta} sectors, device has {total_sectors}"),
            ));
        }
        Ok(())
    }
}

/// Handle to an open file: its file-table slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FileId(pub u32);

/// A mounted UFS over any [`BlockDevice`].
#[derive(Debug)]
pub struct Ufs<D: BlockDevice> {
    dev: D,
    sb: Superblock,
    /// Current in-memory view: durable entries plus applied commits.
    table: Vec<Option<FileEntry>>,
    alloc: ExtentAllocator,
    /// Staged (not yet fsynced) windows, by slot.
    staged: BTreeMap<u32, Window>,
    next_tid: u64,
    next_seq: u64,
    /// Captured device requests (sector I/O merged into extents), when on.
    log: RequestLog,
    /// Always-on write-amplification accounting (plain integer adds).
    wa: WriteAmp,
}

impl<D: BlockDevice> Ufs<D> {
    /// Formats `dev` and mounts the fresh filesystem. The device must
    /// read as zeros (a new [`ssd::SimBlockDevice`] does, and so does
    /// the journaled replay's device, which stores nothing); format
    /// writes only the superblock, because all-zero table and journal
    /// sectors already mean "vacant".
    pub fn format(dev: D, params: UfsParams) -> Result<Ufs<D>, SimError> {
        let total = dev.sectors();
        params.validate(total)?;
        let sb = Superblock {
            total_sectors: total,
            table_start: 1,
            table_sectors: u64::from(params.max_files),
            journal_start: 1 + u64::from(params.max_files),
            journal_sectors: u64::from(params.journal_sectors),
            data_start: 1 + u64::from(params.max_files) + u64::from(params.journal_sectors),
        };
        let mut fs = Ufs {
            dev,
            sb,
            table: vec![None; usize_from_u32(params.max_files)],
            alloc: ExtentAllocator::new(sb.data_start, total - sb.data_start),
            staged: BTreeMap::new(),
            next_tid: 1,
            next_seq: 1,
            log: RequestLog::default(),
            wa: WriteAmp::default(),
        };
        fs.wa.apply_bytes += u64_from_usize(SECTOR_USIZE);
        fs.write_meta(0, &sb.encode())?;
        Ok(fs)
    }

    /// Mounts an existing filesystem, running crash recovery first. The
    /// returned report says what recovery found; it is deterministic for
    /// a given device image.
    pub fn mount(dev: D) -> Result<(Ufs<D>, RecoveryReport), SimError> {
        let mut fs = Ufs {
            dev,
            sb: Superblock {
                total_sectors: 0,
                table_start: 1,
                table_sectors: 0,
                journal_start: 0,
                journal_sectors: 0,
                data_start: 0,
            },
            table: Vec::new(),
            alloc: ExtentAllocator::new(0, 0),
            staged: BTreeMap::new(),
            next_tid: 1,
            next_seq: 1,
            log: RequestLog::default(),
            wa: WriteAmp::default(),
        };
        let mut buf = vec![0u8; SECTOR_USIZE];
        fs.dev.read_sector(0, &mut buf)?;
        fs.sb = Superblock::decode(&buf)?;
        if fs.sb.total_sectors != fs.dev.sectors() {
            return Err(SimError::corruption(
                "superblock",
                0,
                format!(
                    "superblock says {} sectors, device has {}",
                    fs.sb.total_sectors,
                    fs.dev.sectors()
                ),
            ));
        }

        // 1. Scan the journal ring for valid records.
        let mut records = Vec::new();
        for i in 0..fs.sb.journal_sectors {
            fs.dev.read_sector(fs.sb.journal_start + i, &mut buf)?;
            if let Some(r) = JournalRecord::decode(&buf) {
                records.push(r);
            }
        }
        let sectors_scanned = fs.sb.journal_sectors;
        let valid_records = u64_from_usize(records.len());

        // 2. Decide and redo. Replay happens *before* the table is read,
        //    so a torn in-place apply is healed, not reported as corrupt.
        let plan = plan_recovery(records)?;
        fs.next_seq = plan.next_seq;
        fs.next_tid = plan.next_tid;
        for (slot, entry) in &plan.apply {
            if u64::from(*slot) >= fs.sb.table_sectors {
                return Err(SimError::corruption(
                    "journal record",
                    u64::from(*slot),
                    "update targets a slot outside the file table",
                ));
            }
            let lba = fs.sb.table_start + u64::from(*slot);
            fs.wa.apply_bytes += u64_from_usize(SECTOR_USIZE);
            fs.write_meta(lba, &entry.encode())?;
        }
        fs.wa.recovery_replays = u64_from_usize(plan.replayed_tids.len());
        let checkpoint_written = if plan.replayed_tids.is_empty() {
            false
        } else {
            let up_to = *plan.replayed_tids.iter().next_back().unwrap_or(&0);
            fs.append_record(RecordKind::Checkpoint, up_to)?;
            true
        };

        // 3. Read the (now consistent) file table and rebuild free space.
        fs.table = Vec::with_capacity(usize_from(fs.sb.table_sectors));
        fs.alloc = ExtentAllocator::new(fs.sb.data_start, fs.sb.total_sectors - fs.sb.data_start);
        for i in 0..fs.sb.table_sectors {
            let lba = fs.sb.table_start + i;
            fs.dev.read_sector(lba, &mut buf)?;
            let entry = FileEntry::decode(&buf, lba)?;
            if let Some(e) = &entry {
                for ext in &e.extents {
                    if ext.start < fs.sb.data_start || ext.end() > fs.sb.total_sectors {
                        return Err(SimError::corruption(
                            "file entry",
                            lba,
                            "extent outside the data region",
                        ));
                    }
                    fs.alloc.claim(*ext)?;
                }
            }
            fs.table.push(entry);
        }

        let report = RecoveryReport {
            sectors_scanned,
            valid_records,
            last_checkpoint_tid: plan.last_checkpoint_tid,
            replayed_tids: plan.replayed_tids,
            discarded_tids: plan.discarded_tids,
            checkpoint_written,
        };
        Ok((fs, report))
    }

    /// Starts capturing the device requests the filesystem issues.
    pub fn enable_request_log(&mut self) {
        self.log.on = true;
    }

    /// Drains the captured request log.
    pub fn take_request_log(&mut self) -> Vec<HostRequest> {
        std::mem::take(&mut self.log.reqs)
    }

    /// Consumes the filesystem, returning the device (e.g. to inspect the
    /// media after a simulated power loss).
    pub fn into_device(self) -> D {
        self.dev
    }

    /// Borrows the underlying device (e.g. to read its write counter).
    pub fn device(&self) -> &D {
        &self.dev
    }

    /// The mounted geometry.
    pub fn superblock(&self) -> &Superblock {
        &self.sb
    }

    /// Free data sectors.
    pub fn free_sectors(&self) -> u64 {
        self.alloc.free_sectors()
    }

    /// The write-amplification counters accumulated since format/mount.
    pub fn write_amp(&self) -> WriteAmp {
        self.wa
    }

    /// Names of all files, in slot order.
    pub fn file_names(&self) -> Vec<String> {
        self.table
            .iter()
            .flatten()
            .map(|e| e.name.clone())
            .collect()
    }

    /// Creates an empty file. The creation is journaled at first
    /// [`Ufs::fsync`]; until then a crash leaves no trace of it.
    pub fn create(&mut self, name: &str) -> Result<FileId, SimError> {
        if name.is_empty() || name.len() > MAX_NAME {
            return Err(SimError::invalid_config(
                "ufs.name",
                format!("length {} not in 1..={MAX_NAME}", name.len()),
            ));
        }
        if self.lookup(name).is_some() {
            return Err(SimError::invalid_config(
                "ufs.name",
                format!("`{name}` already exists"),
            ));
        }
        let slot =
            self.table
                .iter()
                .position(|e| e.is_none())
                .ok_or(SimError::ResourceExhausted {
                    resource: "ufs file-table slots".into(),
                })?;
        // Allocation budget (`tests/alloc_budget.rs`): the table entry
        // owns its name, and the two `Vec::new`s are zero-capacity (no
        // heap touch until first write) — once per file creation.
        self.table[slot] = Some(FileEntry {
            name: name.to_string(),
            size: 0,
            extents: Vec::new(),
        });
        let id = FileId(u32_from(u64_from_usize(slot)));
        self.staged.insert(
            id.0,
            Window {
                start: 0,
                len: 0,
                bytes: Vec::new(),
            },
        );
        Ok(id)
    }

    /// Opens an existing file by name.
    pub fn open(&self, name: &str) -> Result<FileId, SimError> {
        self.lookup(name)
            .ok_or_else(|| SimError::invalid_config("ufs.name", format!("`{name}` does not exist")))
    }

    /// Current size of the file in bytes (staged writes included).
    pub fn size(&self, id: FileId) -> Result<u64, SimError> {
        if let Some(w) = self.staged.get(&id.0) {
            return Ok(w.end());
        }
        Ok(self.entry(id)?.size)
    }

    /// Writes `data` at byte `offset`, extending the file as needed (a
    /// hole past EOF reads as zeros). The write is staged in memory until
    /// [`Ufs::fsync`]; see the module docs for the staged window. On a
    /// device that stores no data only the window's length is staged,
    /// and no byte of `data` is copied.
    pub fn write(&mut self, id: FileId, offset: u64, data: &[u8]) -> Result<(), SimError> {
        let stores = self.dev.stores_data();
        // Field-level borrows: the durable entry stays in the table while
        // the window, the device and the log are used.
        let entry = entry_in(&self.table, id)?;
        let w = match self.staged.entry(id.0) {
            Entry::Occupied(o) => {
                let w = o.into_mut();
                if offset < w.start {
                    // Extend the window down to the write's sector; the
                    // bytes in between are clean, so the device has them.
                    let start = sector_floor(offset);
                    if stores {
                        let gap = usize_from(w.start - start);
                        let len = w.bytes.len();
                        w.bytes.resize(len + gap, 0);
                        w.bytes.copy_within(..len, gap);
                        if let Err(e) = copy_durable(&self.dev, entry, start, &mut w.bytes[..gap]) {
                            w.bytes.drain(..gap);
                            return Err(e);
                        }
                    }
                    w.len += w.start - start;
                    w.start = start;
                }
                w
            }
            Entry::Vacant(v) => {
                // First write since the last fsync: the model logs a read
                // of the whole file, but only the durable bytes from the
                // write's sector (or EOF's, if the write lies past it)
                // are copied.
                self.log.record_walk(entry);
                let start = sector_floor(offset.min(entry.size));
                let len = entry.size - start;
                // Allocation budget (`tests/alloc_budget.rs`): one
                // window buffer per fsync cycle on a device that stores
                // data, sized to the durable bytes from `start` (at most
                // one partial sector for an append); later writes grow
                // it in place.
                let mut bytes = if stores {
                    vec![0u8; usize_from(len)]
                } else {
                    Vec::new()
                };
                copy_durable(&self.dev, entry, start, &mut bytes)?;
                v.insert(Window { start, len, bytes })
            }
        };
        self.wa.user_bytes += u64_from_usize(data.len());
        w.len = w.len.max(offset + u64_from_usize(data.len()) - w.start);
        if !stores {
            return Ok(());
        }
        let at = usize_from(offset - w.start);
        if at == w.bytes.len() {
            // Pure append (the replay's steady state): one copy, no
            // zero-fill of bytes that are about to be overwritten.
            w.bytes.extend_from_slice(data);
            return Ok(());
        }
        let end = at + data.len();
        if w.bytes.len() < end {
            w.bytes.resize(end, 0);
        }
        w.bytes[at..end].copy_from_slice(data);
        Ok(())
    }

    /// Reads `out.len()` bytes at byte `offset`. Staged writes are
    /// visible (read-your-writes); reading past EOF is an error. Only the
    /// sectors the range covers are copied. A staged read takes the
    /// clean prefix from the device and the rest from the staged window,
    /// and logs nothing; on a device that stores no data the window
    /// holds no bytes, and its part reads as zeros, as the device's
    /// reads do.
    ///
    /// A durable read still logs a read of *every* sector of the file,
    /// in extent order, whatever the range: the journaled replay's block
    /// traces, and every digest pinned on them, model a POSIX read as a
    /// whole-file sector walk.
    pub fn read(&mut self, id: FileId, offset: u64, out: &mut [u8]) -> Result<(), SimError> {
        let end = offset + u64_from_usize(out.len());
        if let Some(w) = self.staged.get(&id.0) {
            if end > w.end() {
                return Err(read_past_eof(end, w.end()));
            }
            let split = usize_from(w.start.clamp(offset, end) - offset);
            let (clean, staged) = out.split_at_mut(split);
            copy_durable(&self.dev, entry_in(&self.table, id)?, offset, clean)?;
            let from = usize_from(offset.max(w.start) - w.start);
            if self.dev.stores_data() {
                staged.copy_from_slice(&w.bytes[from..from + staged.len()]);
            } else {
                staged.fill(0);
            }
            return Ok(());
        }
        let entry = entry_in(&self.table, id)?;
        if end > entry.size {
            return Err(read_past_eof(end, entry.size));
        }
        self.log.record_walk(entry);
        copy_durable(&self.dev, entry, offset, out)
    }

    /// Makes the file's staged content durable via one journaled
    /// transaction (see the module docs for the write ordering). A no-op
    /// if the file has no staged changes.
    pub fn fsync(&mut self, id: FileId) -> Result<(), SimError> {
        // Take the window out rather than cloning it; fsync runs per
        // event. A failed commit puts it back, so the sync stays
        // retryable and read-your-writes holds.
        let Some(window) = self.staged.remove(&id.0) else {
            return Ok(());
        };
        let r = self.commit_staged(id, &window);
        if r.is_err() {
            self.staged.insert(id.0, window);
        }
        r
    }

    /// The five-phase journaled commit of `window` for slot `id`; the
    /// caller ([`Ufs::fsync`]) owns the staged-map bookkeeping.
    fn commit_staged(&mut self, id: FileId, window: &Window) -> Result<(), SimError> {
        // Allocation budget (`tests/alloc_budget.rs`): the three entry
        // clones in this function (old entry, its name, the journal copy
        // of the new entry) are metadata-small — a <=64-byte name and
        // <=8 extents — while the content itself moves without copying.
        let old_entry = self.entry(id)?.clone();
        let size = window.end();
        let sectors = size.div_ceil(SECTOR_BYTES);

        // Phase 1: copy-on-write data into fresh extents. A transaction
        // writes 4 ring records; the >= 8-sector minimum the superblock
        // enforces keeps it from lapping the previous checkpoint.
        let new_extents = self.alloc.allocate(sectors)?;
        if new_extents.len() > MAX_EXTENTS {
            return Err(SimError::ResourceExhausted {
                resource: "ufs data extents".into(),
            });
        }
        // The whole file is rewritten, sector by sector in file order.
        // The clean prefix below the window is copied from the old
        // extents inside the device: the window never starts past the
        // durable size, so the old extents hold every prefix sector in
        // full. Full window sectors write straight from the window; only
        // its final partial chunk is zero-padded through a stack image.
        // A device that stores no data gets every window sector from the
        // zeroed image.
        let mut image = [0u8; SECTOR_USIZE];
        let mut dst = new_extents.iter().flat_map(|e| e.start..e.end());
        let clean = usize_from(window.start / SECTOR_BYTES);
        let old = old_entry.extents.iter().flat_map(|e| e.start..e.end());
        for (from, to) in old.take(clean).zip(dst.by_ref()) {
            self.copy_data(from, to)?;
        }
        if self.dev.stores_data() {
            for (chunk, to) in window.bytes.chunks(SECTOR_USIZE).zip(dst) {
                if chunk.len() == SECTOR_USIZE {
                    self.write_data(to, chunk)?;
                } else {
                    image[..chunk.len()].copy_from_slice(chunk);
                    image[chunk.len()..].fill(0);
                    self.write_data(to, &image)?;
                }
            }
        } else {
            for to in dst.take(usize_from(window.len.div_ceil(SECTOR_BYTES))) {
                self.write_data(to, &image)?;
            }
        }

        let new_entry = FileEntry {
            name: old_entry.name.clone(),
            size,
            extents: new_extents,
        };

        // Phase 2+3: journal the intent, then the commit mark.
        let tid = self.next_tid;
        self.next_tid += 1;
        self.append_record(RecordKind::Begin, tid)?;
        self.append_record(
            RecordKind::Update {
                slot: id.0,
                entry: new_entry.clone(),
            },
            tid,
        )?;
        self.append_record(RecordKind::Commit { n_updates: 1 }, tid)?;

        // Phase 4: apply in place.
        let lba = self.sb.table_start + u64::from(id.0);
        self.wa.apply_bytes += u64_from_usize(SECTOR_USIZE);
        new_entry.encode_into(&mut image);
        self.write_meta(lba, &image)?;

        // Phase 5: checkpoint; the journal records are now dead.
        self.append_record(RecordKind::Checkpoint, tid)?;

        // The old content is unreferenced; recycle it.
        for ext in &old_entry.extents {
            self.alloc.release(*ext);
        }
        self.table[usize_from_u32(id.0)] = Some(new_entry);
        self.wa.commits += 1;
        Ok(())
    }

    /// [`Ufs::fsync`] for every file with staged changes, in slot order.
    pub fn sync_all(&mut self) -> Result<(), SimError> {
        let dirty: Vec<u32> = self.staged.keys().copied().collect();
        for slot in dirty {
            self.fsync(FileId(slot))?;
        }
        Ok(())
    }

    fn lookup(&self, name: &str) -> Option<FileId> {
        self.table
            .iter()
            .position(|e| e.as_ref().is_some_and(|e| e.name == name))
            .map(|slot| FileId(u32_from(u64_from_usize(slot))))
    }

    fn entry(&self, id: FileId) -> Result<&FileEntry, SimError> {
        entry_in(&self.table, id)
    }

    /// Appends one journal record at the ring slot of its sequence number.
    fn append_record(&mut self, kind: RecordKind, tid: u64) -> Result<(), SimError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let rec = JournalRecord { seq, tid, kind };
        let lba = self.sb.journal_start + ring_slot(seq, self.sb.journal_sectors);
        self.wa.journal_bytes += u64_from_usize(SECTOR_USIZE);
        let mut image = [0u8; SECTOR_USIZE];
        rec.encode_into(&mut image);
        self.write_meta(lba, &image)
    }

    /// A metadata write: journal records, file-table applies and the
    /// superblock all carry the sync barrier at the device.
    fn write_meta(&mut self, lba: u64, image: &[u8]) -> Result<(), SimError> {
        self.dev.write_sector(lba, image)?;
        self.log.record(
            HostRequest::write(sector_offset(lba), u64_from_usize(SECTOR_USIZE)).synchronous(),
        );
        Ok(())
    }

    /// A data write: plain asynchronous sector write.
    fn write_data(&mut self, lba: u64, image: &[u8]) -> Result<(), SimError> {
        self.wa.cow_bytes += u64_from_usize(SECTOR_USIZE);
        self.dev.write_sector(lba, image)?;
        self.log_data(lba);
        Ok(())
    }

    /// [`Ufs::write_data`] of the bytes sector `from` holds, copied
    /// inside the device ([`BlockDevice::copy_sector`]). The source read
    /// is not logged: the model charged it to the fsync cycle's
    /// whole-file read walk.
    fn copy_data(&mut self, from: u64, to: u64) -> Result<(), SimError> {
        self.wa.cow_bytes += u64_from_usize(SECTOR_USIZE);
        self.dev.copy_sector(from, to)?;
        self.log_data(to);
        Ok(())
    }

    /// Logs one asynchronous data-sector write at `lba`.
    fn log_data(&mut self, lba: u64) {
        self.log.record(HostRequest::write(
            sector_offset(lba),
            u64_from_usize(SECTOR_USIZE),
        ));
    }
}

/// The device requests a [`Ufs`] issued, captured only when `on`.
#[derive(Debug, Default)]
struct RequestLog {
    on: bool,
    reqs: Vec<HostRequest>,
}

impl RequestLog {
    /// Records one request, merging physically contiguous asynchronous
    /// requests of the same kind — sequential extents surface as the
    /// large requests the paper's UFS is built to preserve. Sync
    /// requests never merge: each metadata write is its own ordering
    /// barrier (journal records are contiguous in the ring but must
    /// reach the device as separate ordered writes).
    fn record(&mut self, req: HostRequest) {
        if !self.on {
            return;
        }
        if !req.sync {
            if let Some(last) = self.reqs.last_mut() {
                if !last.sync && last.op == req.op && last.end() == req.offset {
                    last.len += req.len;
                    return;
                }
            }
        }
        self.reqs.push(req);
    }

    /// Records the model's whole-file read: every sector of `entry`, in
    /// extent order. One record per extent yields exactly the
    /// per-sector stream, because [`RequestLog::record`] merges
    /// contiguous reads (extents are never empty).
    fn record_walk(&mut self, entry: &FileEntry) {
        for ext in &entry.extents {
            self.record(HostRequest::read(
                sector_offset(ext.start),
                ext.len * SECTOR_BYTES,
            ));
        }
    }
}

/// A file's staged window: the sector-aligned tail `[start, EOF)` of
/// its content, holding every byte written since the last fsync.
#[derive(Debug)]
struct Window {
    /// Sector-aligned file offset of the window's first byte. Never
    /// above the durable size, so the durable extents hold every byte
    /// below it.
    start: u64,
    /// Bytes in the window, `EOF - start`.
    len: u64,
    /// File bytes `[start, EOF)`, `len` of them, on a device that stores
    /// data; empty on one that does not.
    bytes: Vec<u8>,
}

impl Window {
    /// The staged file size.
    fn end(&self) -> u64 {
        self.start + self.len
    }
}

/// `at` rounded down to a sector boundary.
fn sector_floor(at: u64) -> u64 {
    at - at % SECTOR_BYTES
}

/// Copies durable file bytes `[offset, offset + out.len())` of `entry`
/// into `out`, logging nothing. The device is asked only for the
/// sectors the range overlaps; whole sectors land in `out` directly and
/// the partial edge sectors go through one stack image.
fn copy_durable<D: BlockDevice>(
    dev: &D,
    entry: &FileEntry,
    offset: u64,
    out: &mut [u8],
) -> Result<(), SimError> {
    if out.is_empty() {
        return Ok(());
    }
    let end = offset + u64_from_usize(out.len());
    let mut image = [0u8; SECTOR_USIZE];
    // File byte offset of the current extent's first sector.
    let mut ext_at = 0u64;
    for ext in &entry.extents {
        if ext_at >= end {
            break;
        }
        // The extent's sectors that overlap the range (none if it lies
        // wholly below this extent).
        let first = offset.saturating_sub(ext_at) / SECTOR_BYTES;
        let last = (end - ext_at).div_ceil(SECTOR_BYTES).min(ext.len);
        for s in first..last {
            let at = ext_at + s * SECTOR_BYTES;
            let lo = at.max(offset);
            let hi = (at + SECTOR_BYTES).min(end);
            let dst = &mut out[usize_from(lo - offset)..usize_from(hi - offset)];
            if dst.len() == SECTOR_USIZE {
                dev.read_sector(ext.start + s, dst)?;
            } else {
                dev.read_sector(ext.start + s, &mut image)?;
                let skip = usize_from(lo - at);
                dst.copy_from_slice(&image[skip..skip + dst.len()]);
            }
        }
        ext_at += ext.len * SECTOR_BYTES;
    }
    Ok(())
}

/// The live entry in `table`'s slot `id` (a free function so callers can
/// borrow the table beside other [`Ufs`] fields).
fn entry_in(table: &[Option<FileEntry>], id: FileId) -> Result<&FileEntry, SimError> {
    table
        .get(usize_from_u32(id.0))
        .and_then(|e| e.as_ref())
        .ok_or_else(|| SimError::invalid_config("ufs.file", format!("no file in slot {}", id.0)))
}

fn read_past_eof(end: u64, size: u64) -> SimError {
    SimError::invalid_config("ufs.read", format!("read to byte {end} but size is {size}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use ssd::SimBlockDevice;

    fn fresh() -> Ufs<SimBlockDevice> {
        Ufs::format(SimBlockDevice::new(1024), UfsParams::default()).expect("formats")
    }

    fn pattern(len: usize, salt: u8) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8 ^ salt).collect()
    }

    #[test]
    fn format_mount_round_trip_is_clean() {
        let fs = fresh();
        let dev = fs.into_device();
        let (fs, report) = Ufs::mount(dev).expect("mounts");
        assert!(report.is_clean());
        assert_eq!(report.last_checkpoint_tid, 0);
        assert!(fs.file_names().is_empty());
    }

    #[test]
    fn write_fsync_read_round_trip_survives_remount() {
        let mut fs = fresh();
        let id = fs.create("panel-0").expect("creates");
        let data = pattern(10_000, 7);
        fs.write(id, 0, &data).expect("writes");
        fs.fsync(id).expect("syncs");
        let (mut fs, report) = Ufs::mount(fs.into_device()).expect("mounts");
        assert!(report.is_clean(), "clean shutdown replays nothing");
        let id = fs.open("panel-0").expect("opens");
        assert_eq!(fs.size(id).expect("sized"), 10_000);
        let mut back = vec![0u8; 10_000];
        fs.read(id, 0, &mut back).expect("reads");
        assert_eq!(back, data);
    }

    #[test]
    fn unsynced_writes_are_invisible_after_remount() {
        let mut fs = fresh();
        let id = fs.create("a").expect("creates");
        fs.write(id, 0, &pattern(5000, 1)).expect("writes");
        fs.fsync(id).expect("syncs");
        // Overwrite and create more, but never sync.
        fs.write(id, 0, &pattern(5000, 2)).expect("writes");
        let b = fs.create("b").expect("creates");
        fs.write(b, 0, &[1, 2, 3]).expect("writes");
        let (mut fs, _) = Ufs::mount(fs.into_device()).expect("mounts");
        assert_eq!(fs.file_names(), vec!["a".to_string()]);
        let id = fs.open("a").expect("opens");
        let mut back = vec![0u8; 5000];
        fs.read(id, 0, &mut back).expect("reads");
        assert_eq!(back, pattern(5000, 1), "committed content, not staged");
    }

    #[test]
    fn overwrites_are_copy_on_write_and_space_is_recycled() {
        let mut fs = fresh();
        let id = fs.create("f").expect("creates");
        let free0 = fs.free_sectors();
        for round in 0..20u8 {
            fs.write(id, 0, &pattern(8192, round)).expect("writes");
            fs.fsync(id).expect("syncs");
            assert_eq!(fs.free_sectors(), free0 - 2, "old extents recycled");
        }
    }

    #[test]
    fn create_rejects_duplicates_and_bad_names() {
        let mut fs = fresh();
        fs.create("x").expect("creates");
        assert!(fs.create("x").is_err());
        assert!(fs.create("").is_err());
        assert!(fs.create(&"n".repeat(MAX_NAME + 1)).is_err());
        assert!(fs.open("missing").is_err());
    }

    #[test]
    fn read_past_eof_is_a_typed_error() {
        let mut fs = fresh();
        let id = fs.create("f").expect("creates");
        fs.write(id, 0, &[9; 100]).expect("writes");
        fs.fsync(id).expect("syncs");
        let mut out = vec![0u8; 101];
        assert!(matches!(
            fs.read(id, 0, &mut out),
            Err(SimError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn request_log_merges_sequential_data_writes() {
        let mut fs = fresh();
        fs.enable_request_log();
        let id = fs.create("big").expect("creates");
        fs.write(id, 0, &pattern(16 * SECTOR_USIZE, 3))
            .expect("writes");
        fs.fsync(id).expect("syncs");
        let log = fs.take_request_log();
        let data: Vec<&HostRequest> = log.iter().filter(|r| !r.sync).collect();
        // 16 sequential data sectors merged into one 64 KiB request.
        assert_eq!(data.len(), 1);
        assert_eq!(data[0].len, u64_from_usize(16 * SECTOR_USIZE));
        // Journal (begin/update/commit), apply and checkpoint are sync.
        let syncs = log.iter().filter(|r| r.sync).count();
        assert_eq!(syncs, 5);
    }

    #[test]
    fn fsync_without_changes_writes_nothing() {
        let mut fs = fresh();
        let id = fs.create("f").expect("creates");
        fs.write(id, 0, &[1; 10]).expect("writes");
        fs.fsync(id).expect("syncs");
        let before = fs.dev.writes_persisted();
        fs.fsync(id).expect("no-op");
        assert_eq!(fs.dev.writes_persisted(), before);
    }

    #[test]
    fn sync_all_commits_every_dirty_file() {
        let mut fs = fresh();
        for i in 0..5u8 {
            let id = fs.create(&format!("f{i}")).expect("creates");
            fs.write(id, 0, &pattern(3000, i)).expect("writes");
        }
        fs.sync_all().expect("syncs");
        let (fs, report) = Ufs::mount(fs.into_device()).expect("mounts");
        assert!(report.is_clean());
        assert_eq!(fs.file_names().len(), 5);
    }

    #[test]
    fn write_amp_counters_decompose_the_device_traffic() {
        let mut fs = fresh();
        let id = fs.create("f").expect("creates");
        fs.write(id, 0, &pattern(4 * SECTOR_USIZE, 1)).expect("w");
        fs.fsync(id).expect("syncs");
        let wa = fs.write_amp();
        let sector = u64_from_usize(SECTOR_USIZE);
        assert_eq!(wa.user_bytes, 4 * sector);
        assert_eq!(wa.cow_bytes, 4 * sector, "COW rewrites the content");
        // Begin + Update + Commit + Checkpoint records.
        assert_eq!(wa.journal_bytes, 4 * sector);
        // Superblock at format + one table apply.
        assert_eq!(wa.apply_bytes, 2 * sector);
        assert_eq!(wa.commits, 1);
        assert_eq!(wa.recovery_replays, 0);
        assert_eq!(wa.device_bytes(), (4 + 4 + 2) * sector);
        // Overwrite one sector: the whole 4-sector file is COWed again,
        // so amplification grows — exactly what the study quantifies.
        fs.write(id, 0, &pattern(SECTOR_USIZE, 2)).expect("w");
        fs.fsync(id).expect("syncs");
        let wa2 = fs.write_amp();
        assert_eq!(wa2.user_bytes, 5 * sector);
        assert_eq!(wa2.cow_bytes, 8 * sector);
        assert!(wa2.device_per_user_permille() > 1000, "amplified");
    }

    #[test]
    fn mount_rejects_a_foreign_image() {
        let dev = SimBlockDevice::new(64);
        assert!(matches!(Ufs::mount(dev), Err(SimError::Corruption { .. })));
    }

    /// Sectors per pad file in the fragmented fixture.
    const PAD_SECTORS: u64 = 2;
    /// Pad files in the fragmented fixture; every odd one leaves a hole.
    const PADS: u64 = 10;
    /// Byte size of the fragmented file: it fills every hole, ending
    /// 1000 bytes short of a full last sector.
    const FRAG_SIZE: u64 = PADS / 2 * PAD_SECTORS * SECTOR_BYTES - 1000;

    /// A durable file spread over five 2-sector extents with a partial
    /// tail sector. Ten 2-sector pads fill the head of the data region.
    /// Growing each odd pad by a sector moves it (copy-on-write) into
    /// the tail and leaves a 2-sector hole, so when the fragmented file
    /// commits the five holes are all the free space there is.
    fn fragmented() -> (Ufs<SimBlockDevice>, FileId) {
        let params = UfsParams {
            max_files: 16,
            journal_sectors: 8,
        };
        let meta = 1 + u64::from(params.max_files) + u64::from(params.journal_sectors);
        let data = PADS * PAD_SECTORS + PADS / 2 * (PAD_SECTORS + 1);
        let mut fs = Ufs::format(SimBlockDevice::new(meta + data), params).expect("formats");
        let pad = PAD_SECTORS * SECTOR_BYTES;
        let mut ids = Vec::new();
        for i in 0..PADS {
            let id = fs.create(&format!("pad{i}")).expect("creates");
            fs.write(id, 0, &pattern(usize_from(pad), 0x11))
                .expect("writes");
            fs.fsync(id).expect("syncs");
            ids.push(id);
        }
        for &id in ids.iter().skip(1).step_by(2) {
            fs.write(id, pad, &pattern(SECTOR_USIZE, 0x5A))
                .expect("grows");
            fs.fsync(id).expect("syncs");
        }
        let id = fs.create("frag").expect("creates");
        fs.write(id, 0, &pattern(usize_from(FRAG_SIZE), 0x3C))
            .expect("writes");
        fs.fsync(id).expect("syncs");
        let extents = &fs.entry(id).expect("exists").extents;
        assert_eq!(extents.len(), 5, "fixture is fragmented: {extents:?}");
        assert!(extents.iter().all(|e| e.len == PAD_SECTORS));
        assert!(extents.windows(2).all(|w| w[0].end() < w[1].start));
        (fs, id)
    }

    /// Independent oracle: the file's bytes and logged request stream
    /// from reading every extent sector, one at a time, into a
    /// file-sized image.
    fn whole_file_oracle(fs: &Ufs<SimBlockDevice>, id: FileId) -> (Vec<u8>, Vec<HostRequest>) {
        let entry = fs.entry(id).expect("exists");
        let mut image = Vec::new();
        let mut log = RequestLog {
            on: true,
            reqs: Vec::new(),
        };
        let mut sector = [0u8; SECTOR_USIZE];
        for ext in &entry.extents {
            for lba in ext.start..ext.end() {
                fs.dev.read_sector(lba, &mut sector).expect("reads");
                image.extend_from_slice(&sector);
                log.record(HostRequest::read(sector_offset(lba), SECTOR_BYTES));
            }
        }
        image.truncate(usize_from(entry.size));
        (image, log.reqs)
    }

    /// A `(offset, len)` window inside the fragmented file, mixing
    /// uniform windows with the shapes a sector walk gets wrong.
    fn window() -> impl Strategy<Value = (u64, u64)> {
        // A window reaching up to a sector either side of a multiple of
        // `step` (a sector or an extent boundary).
        let around = |step: u64| {
            (1..=FRAG_SIZE / step, 1..SECTOR_BYTES, 1..SECTOR_BYTES).prop_map(
                move |(k, before, after)| {
                    let b = k * step;
                    let lo = b - before;
                    let hi = (b + after).min(FRAG_SIZE);
                    (lo, hi - lo)
                },
            )
        };
        prop_oneof![
            // Anywhere.
            (0..=FRAG_SIZE, 0..=FRAG_SIZE).prop_map(|(a, b)| (a.min(b), a.abs_diff(b))),
            // Zero-length.
            (0..=FRAG_SIZE).prop_map(|o| (o, 0)),
            // Sub-sector: inside a single sector.
            (0..FRAG_SIZE, 1..SECTOR_BYTES).prop_map(|(o, len)| {
                let sector_end = ((o / SECTOR_BYTES + 1) * SECTOR_BYTES).min(FRAG_SIZE);
                (o, len.min(sector_end - o))
            }),
            // Straddling a sector boundary.
            around(SECTOR_BYTES),
            // Straddling an extent boundary.
            around(PAD_SECTORS * SECTOR_BYTES),
            // Tail-partial: through EOF, inside the short last sector.
            (0..FRAG_SIZE).prop_map(|o| (o, FRAG_SIZE - o)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A ranged read returns the same slice of the file as a
        /// whole-file read and captures the same request log; the
        /// whole-file read in turn matches a naive per-sector oracle.
        #[test]
        fn ranged_reads_match_the_whole_file_read(
            windows in prop::collection::vec(window(), 1..12),
        ) {
            let (mut fs, id) = fragmented();
            let (image, oracle_log) = whole_file_oracle(&fs, id);
            fs.enable_request_log();
            let mut whole = vec![0u8; usize_from(FRAG_SIZE)];
            fs.read(id, 0, &mut whole).expect("reads");
            let whole_log = fs.take_request_log();
            prop_assert_eq!(&whole, &image);
            prop_assert_eq!(&whole_log, &oracle_log);
            for (offset, len) in windows {
                // Poisoned, so a byte the walk skips cannot pass as zero.
                let mut out = vec![0xEE; usize_from(len)];
                fs.read(id, offset, &mut out).expect("reads");
                prop_assert_eq!(&out[..], &whole[usize_from(offset)..usize_from(offset + len)]);
                prop_assert_eq!(&fs.take_request_log(), &whole_log);
            }
        }

        /// A window reaching past EOF is a typed error, not a short read.
        #[test]
        fn ranged_reads_past_eof_are_typed_errors(
            offset in 0..=FRAG_SIZE,
            over in 1..2 * SECTOR_BYTES,
        ) {
            let (mut fs, id) = fragmented();
            let mut out = vec![0u8; usize_from(FRAG_SIZE - offset + over)];
            prop_assert!(matches!(
                fs.read(id, offset, &mut out),
                Err(SimError::InvalidConfig { .. })
            ));
        }
    }
}
