//! The generic local-file-system mutation engine and the UFS pass-through.

use crate::params::FsParams;
use crate::FileSystemModel;
use nvmtypes::convert::{approx_f64, trunc_u64};
use nvmtypes::{HostRequest, IoOp};
use ooctrace::{BlockTrace, PosixTrace, TraceRecord};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Start of the metadata region (inode tables, indirect blocks, trees).
const META_BASE: u64 = 0;
/// Size of the metadata region.
const META_SPAN: u64 = 64 << 20;
/// Start of the journal region.
const JOURNAL_BASE: u64 = 64 << 20;
/// Size of the journal region (wraps).
const JOURNAL_SPAN: u64 = 128 << 20;
/// Start of the data region.
const DATA_BASE: u64 = 256 << 20;
/// Size of the data region extents are placed in.
const DATA_SPAN: u64 = 255 << 30;

/// One physically contiguous piece of a file.
#[derive(Debug, Clone, Copy)]
struct Extent {
    file_off: u64,
    phys: u64,
    len: u64,
}

/// Lazily built physical layout of one file.
#[derive(Debug, Default)]
struct FileLayout {
    extents: Vec<Extent>,
    mapped_until: u64,
}

/// A local file system described by [`FsParams`].
///
/// The model keeps a deterministic per-file extent map: the first time a
/// byte of the file is touched, extents are allocated up to it — extent
/// lengths scatter around [`FsParams::mean_extent`], and each new extent
/// either continues at the allocator cursor or, with probability
/// [`FsParams::placement_entropy`], jumps to a new location (allocation
/// groups, COW relocation). Re-reading the same file range later in the
/// trace reuses the same physical layout, exactly like a real file system.
#[derive(Debug, Clone)]
pub struct FsModel {
    params: FsParams,
}

impl FsModel {
    /// Builds the model, validating the parameters (see
    /// [`FsParams::validate`]).
    pub fn new(params: FsParams) -> Result<FsModel, nvmtypes::SimError> {
        params.validate()?;
        Ok(FsModel { params })
    }

    /// The parameters in force.
    pub fn params(&self) -> &FsParams {
        &self.params
    }

    fn extend_layout(
        &self,
        layout: &mut FileLayout,
        until: u64,
        cursor: &mut u64,
        rng: &mut SmallRng,
    ) {
        let bs = u64::from(self.params.block_size);
        while layout.mapped_until < until {
            // Extent length: 0.5x..1.5x the mean, block-rounded, >= 1 block.
            let jitter = rng.gen_range(0.5..1.5);
            let len = (trunc_u64(approx_f64(self.params.mean_extent) * jitter) / bs).max(1) * bs;
            // Placement: continue at the cursor or jump.
            if rng.gen_bool(self.params.placement_entropy) {
                let jump = rng.gen_range(0..DATA_SPAN / bs) * bs;
                *cursor = DATA_BASE + jump;
            }
            layout.extents.push(Extent {
                file_off: layout.mapped_until,
                phys: *cursor,
                len,
            });
            layout.mapped_until += len;
            *cursor += len;
        }
    }

    /// Emits the device requests for the block-rounded span
    /// `[start, start + len)` of a laid-out file.
    fn emit_span(
        &self,
        layout: &FileLayout,
        op: IoOp,
        start: u64,
        len: u64,
        out: &mut Vec<HostRequest>,
    ) {
        let max_req = u64::from(self.params.max_request);
        let mut pos = start;
        let end = start + len;
        // Find the first extent containing `pos`.
        let mut idx = layout
            .extents
            .partition_point(|e| e.file_off + e.len <= pos);
        let mut pending: Option<HostRequest> = None;
        while pos < end && idx < layout.extents.len() {
            let e = &layout.extents[idx];
            let within = pos - e.file_off;
            let phys = e.phys + within;
            let take = (e.len - within).min(end - pos);
            // Coalesce with the pending request when physically adjacent.
            match pending.as_mut() {
                Some(p) if p.offset + p.len == phys && p.len + take <= max_req => {
                    p.len += take;
                }
                Some(_) | None => {
                    if let Some(p) = pending.take() {
                        out.push(p);
                    }
                    pending = Some(HostRequest {
                        op,
                        offset: phys,
                        len: take,
                        sync: false,
                    });
                }
            }
            // Split oversized pending requests into max_request pieces.
            if let Some(mut p) = pending.take() {
                while p.len > max_req {
                    out.push(HostRequest {
                        op,
                        offset: p.offset,
                        len: max_req,
                        sync: false,
                    });
                    p.offset += max_req;
                    p.len -= max_req;
                }
                if p.len == max_req {
                    out.push(p);
                } else {
                    pending = Some(p);
                }
            }
            pos += take;
            idx += 1;
        }
        if let Some(p) = pending {
            out.push(p);
        }
    }
}

impl FileSystemModel for FsModel {
    fn name(&self) -> &'static str {
        self.params.name
    }

    fn transform(&self, posix: &PosixTrace) -> BlockTrace {
        let bs = u64::from(self.params.block_size);
        let mut rng = SmallRng::seed_from_u64(self.params.seed);
        let mut layouts: BTreeMap<u32, FileLayout> = BTreeMap::new();
        let mut cursor = DATA_BASE;
        let mut out: Vec<HostRequest> = Vec::with_capacity(posix.len() * 4);
        let mut meta_counter: u64 = 0;
        let mut journal_counter: u64 = 0;
        let mut journal_cursor: u64 = JOURNAL_BASE;

        for rec in &posix.records {
            if rec.len == 0 {
                continue;
            }
            let (start, end) = block_span(rec, bs);
            let layout = layouts.entry(rec.file).or_default();
            self.extend_layout(layout, end, &mut cursor, &mut rng);
            self.emit_span(layout, rec.op, start, end - start, &mut out);

            // Metadata lookups: small synchronous reads sprinkled through
            // the data stream.
            if let Some(interval) = self.params.metadata_read_interval {
                meta_counter += end - start;
                while meta_counter >= interval {
                    meta_counter -= interval;
                    let addr = META_BASE + rng.gen_range(0..META_SPAN / bs) * bs;
                    out.push(HostRequest::read(addr, bs).synchronous());
                }
            }
            // Journal commits for written data.
            if rec.op == IoOp::Write {
                // data=journal mode: the data itself is first written to
                // the journal region (sequentially), doubling write volume.
                if self.params.journal_data {
                    let mut left = end - start;
                    while left > 0 {
                        let len = left.min(u64::from(self.params.max_request));
                        if journal_cursor + len > JOURNAL_BASE + JOURNAL_SPAN {
                            journal_cursor = JOURNAL_BASE;
                        }
                        out.push(HostRequest::write(journal_cursor, len));
                        journal_cursor += len;
                        left -= len;
                    }
                }
                if let Some(interval) = self.params.journal_commit_interval {
                    journal_counter += end - start;
                    while journal_counter >= interval {
                        journal_counter -= interval;
                        let len = 4 * bs;
                        if journal_cursor + len > JOURNAL_BASE + JOURNAL_SPAN {
                            journal_cursor = JOURNAL_BASE;
                        }
                        out.push(HostRequest::write(journal_cursor, len).synchronous());
                        journal_cursor += len;
                    }
                }
            }
        }
        BlockTrace::from_requests(out, self.params.queue_depth)
    }
}

/// The block-rounded span `[start, end)` covering `rec`. It fits in a
/// `u64` for every record ending at or below [`TraceRecord::MAX_END`], the
/// bound [`PosixTrace::from_text`] enforces: that leaves room to round up
/// to any power-of-two `u32` block size.
fn block_span(rec: &TraceRecord, bs: u64) -> (u64, u64) {
    (rec.offset / bs * bs, rec.end().div_ceil(bs) * bs)
}

/// The paper's Unified File System: application-managed, FTL-less direct
/// access (§3.2, Figure 4b). Requests pass through unsplit — *"since UFS
/// will be receiving large read requests directly from our OoC application,
/// it is able to translate and issue those requests directly"*. Each file
/// maps to a contiguous region of raw device addresses.
#[derive(Debug, Clone, Default)]
pub struct UfsModel {
    /// Spacing between per-file regions (default 16 GiB).
    pub file_spacing: u64,
    /// Queue depth the UFS host stack sustains (default 32).
    pub queue_depth: u32,
}

impl UfsModel {
    /// UFS with default layout.
    pub fn new() -> UfsModel {
        UfsModel {
            file_spacing: 16 << 30,
            queue_depth: 32,
        }
    }

    fn map(&self, rec: &TraceRecord) -> u64 {
        u64::from(rec.file) * self.file_spacing + rec.offset
    }
}

impl FileSystemModel for UfsModel {
    fn name(&self) -> &'static str {
        "UFS"
    }

    fn transform(&self, posix: &PosixTrace) -> BlockTrace {
        let requests = posix
            .records
            .iter()
            .filter(|r| r.len > 0)
            .map(|r| HostRequest {
                op: r.op,
                offset: self.map(r),
                len: r.len,
                sync: false,
            })
            .collect();
        BlockTrace::from_requests(requests, self.queue_depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(name: &'static str) -> FsParams {
        FsParams {
            name,
            block_size: 4096,
            max_request: 128 * 1024,
            mean_extent: 256 * 1024,
            placement_entropy: 0.3,
            metadata_read_interval: Some(1 << 20),
            journal_commit_interval: Some(1 << 22),
            journal_data: false,
            queue_depth: 8,
            seed: 7,
        }
    }

    fn seq_posix(records: u64, len: u64) -> PosixTrace {
        let mut t = PosixTrace::new();
        for i in 0..records {
            t.push(TraceRecord {
                t: i,
                op: IoOp::Read,
                file: 0,
                offset: i * len,
                len,
            });
        }
        t
    }

    #[test]
    fn every_kind_handles_a_record_ending_at_the_largest_parsed_end() {
        let posix =
            PosixTrace::from_text("0 R 0 9223372036854771712 4095").expect("ends at MAX_END");
        let rec = &posix.records[0];
        assert_eq!(rec.end(), TraceRecord::MAX_END);
        for kind in crate::FsKind::ALL {
            match kind.params() {
                // A local model lays out every extent below a touched
                // offset, about offset / mean_extent of them, so it cannot
                // run this record in a test; its block rounding is what
                // must stay within `u64`.
                Some(p) => {
                    let bs = u64::from(p.block_size);
                    assert_eq!(block_span(rec, bs), (rec.offset, 1 << 63), "{kind:?}");
                }
                None => assert_eq!(kind.transform(&posix).data_bytes(), 4095, "{kind:?}"),
            }
        }
        // The largest block size `FsParams` admits rounds within `u64` too.
        assert_eq!(block_span(rec, 1 << 31), ((1 << 63) - (1 << 31), 1 << 63));
    }

    #[test]
    fn data_bytes_are_conserved() {
        let m = FsModel::new(params("t")).expect("valid params");
        let posix = seq_posix(16, 1 << 20);
        let out = m.transform(&posix);
        // Aligned records: block-rounding adds nothing.
        assert_eq!(out.data_bytes(), posix.total_bytes());
    }

    #[test]
    fn unaligned_records_round_to_blocks() {
        let m = FsModel::new(params("t")).expect("valid params");
        let mut posix = PosixTrace::new();
        posix.push(TraceRecord {
            t: 0,
            op: IoOp::Read,
            file: 0,
            offset: 100,
            len: 5000,
        });
        let out = m.transform(&posix);
        // [100, 5100) rounds to [0, 8192).
        assert_eq!(out.data_bytes(), 8192);
    }

    #[test]
    fn transform_is_deterministic() {
        let m = FsModel::new(params("t")).expect("valid params");
        let posix = seq_posix(32, 1 << 20);
        assert_eq!(m.transform(&posix), m.transform(&posix));
    }

    #[test]
    fn requests_respect_max_request() {
        let m = FsModel::new(params("t")).expect("valid params");
        let out = m.transform(&seq_posix(8, 4 << 20));
        assert!(out.requests.iter().all(|r| r.len <= 128 * 1024));
    }

    #[test]
    fn metadata_reads_are_injected_and_synchronous() {
        let m = FsModel::new(params("t")).expect("valid params");
        let out = m.transform(&seq_posix(16, 1 << 20));
        let meta: Vec<_> = out
            .requests
            .iter()
            .filter(|r| r.sync && r.op.is_read())
            .collect();
        // 16 MiB of data at one per MiB.
        assert_eq!(meta.len(), 16);
        assert!(meta.iter().all(|r| r.offset < META_SPAN));
    }

    #[test]
    fn journal_commits_only_for_writes() {
        let m = FsModel::new(params("t")).expect("valid params");
        let reads = m.transform(&seq_posix(16, 1 << 20));
        assert!(!reads.requests.iter().any(|r| r.sync && !r.op.is_read()));

        let mut posix = PosixTrace::new();
        for i in 0..16u64 {
            posix.push(TraceRecord {
                t: i,
                op: IoOp::Write,
                file: 0,
                offset: i << 20,
                len: 1 << 20,
            });
        }
        let writes = m.transform(&posix);
        let commits: Vec<_> = writes
            .requests
            .iter()
            .filter(|r| r.sync && !r.op.is_read())
            .collect();
        assert_eq!(commits.len(), 4); // 16 MiB at one per 4 MiB
        assert!(commits
            .iter()
            .all(|r| r.offset >= JOURNAL_BASE && r.offset < JOURNAL_BASE + JOURNAL_SPAN));
    }

    #[test]
    fn data_journaling_doubles_write_volume() {
        let mut p = params("dj");
        p.journal_data = true;
        let m = FsModel::new(p).expect("valid params");
        let mut posix = PosixTrace::new();
        for i in 0..8u64 {
            posix.push(TraceRecord {
                t: i,
                op: IoOp::Write,
                file: 0,
                offset: i << 20,
                len: 1 << 20,
            });
        }
        let ordered = FsModel::new(params("ord"))
            .expect("valid params")
            .transform(&posix);
        let journaled = m.transform(&posix);
        // Journal-data writes the payload twice (plus commit records).
        assert!(journaled.total_bytes() >= 2 * posix.total_bytes());
        assert!(journaled.total_bytes() > ordered.total_bytes() + posix.total_bytes() / 2);
        // The extra copies are sequential journal-region writes.
        let in_journal = journaled
            .requests
            .iter()
            .filter(|r| {
                !r.op.is_read()
                    && !r.sync
                    && r.offset >= JOURNAL_BASE
                    && r.offset < JOURNAL_BASE + JOURNAL_SPAN
            })
            .count();
        assert!(in_journal > 0);
    }

    #[test]
    fn rereading_reuses_the_same_layout() {
        let m = FsModel::new(params("t")).expect("valid params");
        let mut posix = seq_posix(8, 1 << 20);
        // Second sweep over the same file.
        for i in 0..8u64 {
            posix.push(TraceRecord {
                t: 100 + i,
                op: IoOp::Read,
                file: 0,
                offset: i << 20,
                len: 1 << 20,
            });
        }
        let out = m.transform(&posix);
        let data: Vec<_> = out.requests.iter().filter(|r| !r.sync).collect();
        let half = data.len() / 2;
        for i in 0..half {
            assert_eq!(data[i].offset, data[half + i].offset);
            assert_eq!(data[i].len, data[half + i].len);
        }
    }

    #[test]
    fn lower_entropy_longer_extents_mean_bigger_requests() {
        let mut good = params("good");
        good.mean_extent = 4 << 20;
        good.placement_entropy = 0.02;
        good.max_request = 1 << 20;
        let mut bad = params("bad");
        bad.mean_extent = 64 * 1024;
        bad.placement_entropy = 0.5;
        let posix = seq_posix(32, 1 << 20);
        let g = FsModel::new(good).expect("valid params").transform(&posix);
        let b = FsModel::new(bad).expect("valid params").transform(&posix);
        assert!(g.mean_request_size() > 2.0 * b.mean_request_size());
    }

    #[test]
    fn ufs_is_identity_modulo_file_base() {
        let m = UfsModel::new();
        let posix = seq_posix(8, 4 << 20);
        let out = m.transform(&posix);
        assert_eq!(out.len(), 8);
        assert_eq!(out.total_bytes(), posix.total_bytes());
        assert!((out.sequentiality() - 1.0).abs() < 1e-12);
        assert!(out.requests.iter().all(|r| !r.sync));
        assert_eq!(out.queue_depth, 32);
    }

    #[test]
    fn ufs_separates_files() {
        let m = UfsModel::new();
        let mut posix = PosixTrace::new();
        posix.push(TraceRecord {
            t: 0,
            op: IoOp::Read,
            file: 0,
            offset: 0,
            len: 4096,
        });
        posix.push(TraceRecord {
            t: 1,
            op: IoOp::Read,
            file: 1,
            offset: 0,
            len: 4096,
        });
        let out = m.transform(&posix);
        assert_eq!(out.requests[1].offset - out.requests[0].offset, 16 << 30);
    }
}
