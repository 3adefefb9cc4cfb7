//! Flash translation layer state: write allocation, erase-before-write,
//! garbage collection and wear accounting.
//!
//! Reads translate at page granularity through the deterministic stripe
//! map (the mapping table of a page-mapped FTL is a bijection we can
//! compute instead of store). Writes in `Traditional` mode are
//! log-allocated: they land at the device's write frontier regardless of
//! their logical address, which is how real page-mapped FTLs absorb the
//! erase-before-write constraint.
//!
//! Space is managed in *stripe-rows*: one erase block on every
//! `(die, plane)` of the device (the natural allocation unit of the
//! striped log). The FTL tracks per-row valid-data counts at 4-KiB
//! mapping granularity; overwrites invalidate their previous location.
//! When the free-row pool runs dry, a greedy garbage collector picks the
//! row with the least valid data, migrates the survivors to the frontier,
//! and erases it — the classic page-mapped design, with the resulting
//! write amplification reported per run.
//!
//! In `Ufs` mode the application manages placement: writes translate
//! in-place just like reads, and erases are explicit application actions.

use crate::config::FtlMode;
use nvmtypes::convert::{approx_f64, u32_from, u64_from_usize, usize_from};
use nvmtypes::SsdGeometry;
use std::collections::BTreeMap;

/// Wear-levelling and garbage-collection statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WearStats {
    /// Total block erases performed.
    pub erases: u64,
    /// Erase counts per stripe-row of blocks (all `(die, plane)` blocks of
    /// a row are erased together by the log allocator).
    pub per_row: Vec<u32>,
    /// 4-KiB units written by the host.
    pub host_units_written: u64,
    /// 4-KiB units rewritten by the garbage collector.
    pub gc_units_written: u64,
    /// Garbage-collection invocations.
    pub gc_runs: u64,
}

impl WearStats {
    /// Maximum per-row erase count (0 when nothing was erased).
    pub fn max_per_row(&self) -> u32 {
        self.per_row.iter().copied().max().unwrap_or(0)
    }

    /// Mean per-row erase count over rows that were erased at least once.
    pub fn mean_nonzero(&self) -> f64 {
        let nz: Vec<u32> = self.per_row.iter().copied().filter(|&c| c > 0).collect();
        if nz.is_empty() {
            0.0
        } else {
            approx_f64(nz.iter().map(|&c| u64::from(c)).sum::<u64>())
                / approx_f64(u64_from_usize(nz.len()))
        }
    }

    /// Write amplification factor: `(host + GC writes) / host writes`
    /// (1.0 when the host wrote nothing or GC never ran).
    pub fn waf(&self) -> f64 {
        if self.host_units_written == 0 {
            1.0
        } else {
            approx_f64(self.host_units_written + self.gc_units_written)
                / approx_f64(self.host_units_written)
        }
    }

    /// Wear-leveling pressure: the worst row's erase count relative to
    /// the mean over erased rows. 1.0 means perfectly level wear;
    /// higher values mean hot rows are aging ahead of the pack (and,
    /// under the fault model, will start throwing errors first).
    pub fn pressure(&self) -> f64 {
        let mean = self.mean_nonzero();
        if mean <= 0.0 {
            1.0
        } else {
            f64::from(self.max_per_row()) / mean
        }
    }
}

/// Outcome of translating one write: where the data lands and what
/// housekeeping the device must perform first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WritePlacement {
    /// First logical page (in stripe space) the write occupies.
    pub start_lpn: u64,
    /// Stripe-rows of blocks that must be erased before the write can
    /// proceed (each row is one block on every `(die, plane)`).
    pub rows_to_erase: u64,
    /// 4-KiB units the garbage collector migrated to make room (each is
    /// one media read plus one media write ahead of the host data).
    pub gc_moves: u64,
}

/// Mapping granularity: 4 KiB, independent of the media page size.
const UNIT: u64 = 4096;

/// FTL state for one simulated device.
#[derive(Debug, Clone)]
pub struct Ftl {
    mode: FtlMode,
    geometry: SsdGeometry,
    page_size: u64,
    /// Next free 4-KiB unit at the log frontier.
    frontier_unit: u64,
    /// Rows whose blocks are erased and ready (beyond the frontier row).
    free_rows: u64,
    /// Valid-unit count per row.
    row_valid: Vec<u32>,
    /// Logical 4-KiB unit -> physical unit. Ordered so GC migration
    /// and any future map iteration are deterministic run-to-run.
    map: BTreeMap<u64, u64>,
    /// GC trigger: collect when fewer than this many rows are free.
    pub gc_low_water_rows: u64,
    wear: WearStats,
    /// Blocks condemned by the fault model (erase failure or
    /// uncorrectable page) and retired.
    bad_blocks: u64,
    /// Spare blocks still available to absorb retirements (the
    /// over-provisioning pool).
    spare_blocks: u64,
    /// Reused survivor-key buffer for GC migration: collection runs on
    /// the per-event write path, so its scratch is hoisted here
    /// (`tests/alloc_budget.rs`).
    gc_keys: Vec<u64>,
}

/// Over-provisioning reserved for bad-block remapping: 2% of the
/// device's blocks (1/50), the order real drives set aside.
const SPARE_FRACTION_DENOM: u64 = 50;

impl Ftl {
    /// New FTL with `pre_erased_rows` stripe-rows of blocks ready for
    /// writing (a freshly trimmed device would have many; a steady-state
    /// device few — 0 makes every new row pay its erase up front).
    pub fn new(mode: FtlMode, geometry: SsdGeometry, pre_erased_rows: u64) -> Ftl {
        let page_size = 4096; // placeholder; set via with_page_size
        let rows = u64::from(geometry.blocks_per_plane);
        let total_blocks = geometry.total_plane_slots() * rows;
        Ftl {
            mode,
            geometry,
            page_size,
            frontier_unit: 0,
            free_rows: pre_erased_rows.min(rows),
            row_valid: vec![0; usize_from(rows)],
            map: BTreeMap::new(),
            gc_low_water_rows: 1,
            wear: WearStats {
                per_row: Vec::new(),
                ..WearStats::default()
            },
            bad_blocks: 0,
            spare_blocks: (total_blocks / SPARE_FRACTION_DENOM).max(1),
            gc_keys: Vec::new(),
        }
    }

    /// Sets the media page size (used to convert page counts to units).
    pub fn with_page_size(mut self, page_size: u32) -> Ftl {
        self.page_size = u64::from(page_size);
        self
    }

    /// The translation mode.
    pub fn mode(&self) -> FtlMode {
        self.mode
    }

    /// 4-KiB units per stripe-row.
    fn units_per_row(&self) -> u64 {
        let row_bytes = self.geometry.total_plane_slots()
            * u64::from(self.geometry.pages_per_block)
            * self.page_size;
        (row_bytes / UNIT).max(1)
    }

    /// Total rows in the device.
    fn total_rows(&self) -> u64 {
        u64::from(self.geometry.blocks_per_plane)
    }

    /// Translates a read: page-granular identity through the stripe map.
    pub fn translate_read(&self, start_lpn: u64, _pages: u64) -> u64 {
        start_lpn
    }

    /// Translates a write of `pages` media pages logically at `start_lpn`.
    ///
    /// Traditional mode allocates at the log frontier, invalidates any
    /// previous locations of the logical range, and reports the erase and
    /// GC work the device owes before the host data can land. UFS mode
    /// writes in place and never implies erases.
    pub fn translate_write(&mut self, start_lpn: u64, pages: u64) -> WritePlacement {
        match self.mode {
            FtlMode::Ufs { .. } => WritePlacement {
                start_lpn,
                rows_to_erase: 0,
                gc_moves: 0,
            },
            FtlMode::Traditional { .. } => {
                let upr = self.units_per_row();
                let bytes = pages * self.page_size;
                let units = bytes.div_ceil(UNIT).max(1);
                self.wear.host_units_written += units;

                // Invalidate previous locations of this logical range.
                let logical0 = start_lpn * self.page_size / UNIT;
                for u in 0..units {
                    if let Some(old_phys) = self.map.remove(&(logical0 + u)) {
                        let row = usize_from(old_phys / upr);
                        if row < self.row_valid.len() && self.row_valid[row] > 0 {
                            self.row_valid[row] -= 1;
                        }
                    }
                }

                // How many fresh rows does this write enter?
                let end_unit = self.frontier_unit + units;
                let first_new_row = self.frontier_unit.div_ceil(upr);
                let rows_needed = end_unit.div_ceil(upr).saturating_sub(first_new_row);

                let mut rows_to_erase = 0;
                let mut gc_moves = 0;
                for _ in 0..rows_needed {
                    if self.free_rows < self.gc_low_water_rows {
                        gc_moves += self.collect_garbage();
                    }
                    if self.free_rows > 0 {
                        self.free_rows -= 1;
                    }
                    rows_to_erase += 1;
                    let row =
                        usize_from((self.frontier_unit / upr + rows_to_erase) % self.total_rows());
                    if self.wear.per_row.len() <= row {
                        self.wear.per_row.resize(row + 1, 0);
                    }
                    self.wear.per_row[row] += 1;
                    self.wear.erases += self.geometry.total_plane_slots();
                }

                // Place the data and record the mapping.
                let phys0 = self.frontier_unit;
                for u in 0..units {
                    let phys = phys0 + u;
                    self.map.insert(logical0 + u, phys);
                    let row = usize_from((phys / upr) % self.total_rows());
                    self.row_valid[row] += 1;
                }
                self.frontier_unit = (self.frontier_unit + units) % (self.total_rows() * upr);
                WritePlacement {
                    start_lpn: phys0 * UNIT / self.page_size,
                    rows_to_erase,
                    gc_moves,
                }
            }
        }
    }

    /// Greedy garbage collection: migrate the least-valid row's survivors
    /// to the frontier and free it. Returns the units migrated.
    fn collect_garbage(&mut self) -> u64 {
        let upr = self.units_per_row();
        let frontier_row = usize_from(self.frontier_unit / upr);
        // Victim: the non-frontier row with the fewest valid units.
        let victim = self
            .row_valid
            .iter()
            .enumerate()
            .filter(|&(row, _)| row != frontier_row)
            .min_by_key(|&(_, &valid)| valid)
            .map(|(row, _)| row);
        let Some(victim) = victim else { return 0 };
        let moves = u64::from(self.row_valid[victim]);
        self.wear.gc_units_written += moves;
        self.wear.gc_runs += 1;
        // Survivors logically move to the frontier row; for timing
        // purposes the device reads+writes `moves` units. Their map
        // entries now point at the frontier row.
        let mut remapped = 0;
        if moves > 0 {
            // Survivor keys buffered through the hoisted scratch: the map
            // cannot be mutated mid-iteration, and GC runs per event.
            self.gc_keys.clear();
            let map = &self.map;
            self.gc_keys.extend(
                map.iter()
                    .filter(|&(_, &phys)| usize_from(phys / upr) == victim)
                    .map(|(&l, _)| l),
            );
            for i in 0..self.gc_keys.len() {
                let l = self.gc_keys[i];
                let new_phys = u64_from_usize(frontier_row) * upr + remapped;
                self.map.insert(l, new_phys);
                remapped += 1;
            }
            let fr = frontier_row.min(self.row_valid.len() - 1);
            self.row_valid[fr] += u32_from(moves);
        }
        self.row_valid[victim] = 0;
        self.free_rows += 1;
        moves
    }

    /// Wear statistics accumulated so far.
    pub fn wear(&self) -> &WearStats {
        &self.wear
    }

    /// Retires a block condemned by the fault model (a failed erase or
    /// an uncorrectable page) and remaps it to a spare. Returns `true`
    /// if a spare absorbed it; `false` once the over-provisioning pool
    /// is exhausted — the device is then *failed* and the cluster layer
    /// should fall back to its degraded path.
    pub fn note_bad_block(&mut self) -> bool {
        self.bad_blocks += 1;
        if self.spare_blocks > 0 {
            self.spare_blocks -= 1;
            true
        } else {
            false
        }
    }

    /// Blocks retired so far.
    pub fn bad_blocks(&self) -> u64 {
        self.bad_blocks
    }

    /// Spare blocks still available for remapping.
    pub fn spare_blocks_left(&self) -> u64 {
        self.spare_blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ftl(pre: u64) -> Ftl {
        Ftl::new(FtlMode::traditional_default(), SsdGeometry::tiny(), pre).with_page_size(8192)
    }

    #[test]
    fn reads_are_identity() {
        let f = tiny_ftl(1);
        assert_eq!(f.translate_read(1234, 5), 1234);
    }

    #[test]
    fn writes_are_log_allocated() {
        let mut f = tiny_ftl(4);
        let a = f.translate_write(999, 10);
        let b = f.translate_write(0, 10);
        assert_eq!(a.start_lpn, 0);
        assert_eq!(b.start_lpn, 10);
        assert_eq!(a.gc_moves, 0);
    }

    #[test]
    fn unique_writes_have_unit_waf() {
        // tiny geometry: 16 slots x 32 pages x 8 KiB = 4 MiB/row = 1024 units.
        let mut f = tiny_ftl(0);
        for i in 0..256u64 {
            f.translate_write(i * 4, 4); // distinct logical ranges
        }
        assert!(f.wear().gc_runs == 0 || f.wear().gc_units_written == 0);
        assert!((f.wear().waf() - 1.0).abs() < 1e-9);
        assert!(f.wear().erases > 0);
    }

    #[test]
    fn overwrites_invalidate_and_gc_is_cheap() {
        let mut f = tiny_ftl(0);
        // Hammer the same 4-page logical range far beyond one row.
        for _ in 0..2_000u64 {
            f.translate_write(0, 4);
        }
        // Almost everything in reclaimed rows was invalid: WAF stays ~1.
        assert!(f.wear().waf() < 1.1, "waf {}", f.wear().waf());
        assert!(f.wear().erases > 0);
    }

    #[test]
    fn scattered_overwrites_raise_waf() {
        let g = SsdGeometry::tiny();
        let mut f = Ftl::new(FtlMode::traditional_default(), g, 0).with_page_size(8192);
        // Row = 1024 units of 4 KiB; device = 64 rows. Fill ~90% of the
        // device with unique data.
        let total_units = 64 * 1024u64;
        let fill = total_units * 9 / 10 / 8;
        for i in 0..fill {
            f.translate_write(i * 4, 4); // 4 pages = 8 units each
        }
        let before = f.wear().gc_units_written;
        // Now overwrite every other extent repeatedly: victims keep ~half
        // their data valid, so GC must migrate.
        for _ in 0..4 {
            for i in (0..fill).step_by(2) {
                f.translate_write(i * 4, 4);
            }
        }
        assert!(f.wear().gc_runs > 0, "GC never ran");
        assert!(f.wear().gc_units_written > before, "GC migrated nothing");
        assert!(f.wear().waf() > 1.05, "waf {}", f.wear().waf());
    }

    #[test]
    fn ufs_mode_writes_in_place_without_erase_or_gc() {
        let mut f = Ftl::new(FtlMode::ufs_default(), SsdGeometry::tiny(), 0).with_page_size(8192);
        let p = f.translate_write(777, 100);
        assert_eq!(p.start_lpn, 777);
        assert_eq!(p.rows_to_erase, 0);
        assert_eq!(p.gc_moves, 0);
        assert_eq!(f.wear().erases, 0);
        assert!((f.wear().waf() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bad_blocks_consume_spares_until_exhausted() {
        let mut f = tiny_ftl(0);
        let spares = f.spare_blocks_left();
        assert!(spares >= 1);
        for _ in 0..spares {
            assert!(f.note_bad_block(), "spare pool should absorb this");
        }
        assert!(!f.note_bad_block(), "pool exhausted, device failed");
        assert_eq!(f.bad_blocks(), spares + 1);
        assert_eq!(f.spare_blocks_left(), 0);
    }

    #[test]
    fn wear_pressure_tracks_imbalance() {
        let even = WearStats {
            per_row: vec![3, 3, 3],
            ..WearStats::default()
        };
        assert!((even.pressure() - 1.0).abs() < 1e-12);
        let hot = WearStats {
            per_row: vec![9, 1, 0, 2],
            ..WearStats::default()
        };
        assert!(hot.pressure() > 2.0);
        assert!((WearStats::default().pressure() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn wear_spreads_across_rows() {
        let mut f = tiny_ftl(0);
        for i in 0..2048u64 {
            f.translate_write(i * 4, 4);
        }
        // Multiple rows were erased as the log advanced.
        let touched = f.wear().per_row.iter().filter(|&&c| c > 0).count();
        assert!(touched > 4, "only {touched} rows erased");
        assert!(f.wear().mean_nonzero() >= 1.0);
    }
}
