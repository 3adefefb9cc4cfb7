//! First-fit extent allocation over the data region.
//!
//! The allocator is pure in-memory state, rebuilt at every mount from the
//! file table — there is no on-disk free list to keep crash-consistent.
//! First-fit over address-ordered free runs keeps files in as few
//! contiguous extents as possible, which is what preserves the
//! application's request size and sequentiality at the device (the
//! paper's §3.2 argument for UFS).

use crate::layout::{Extent, MAX_EXTENTS};
use nvmtypes::SimError;
use std::collections::BTreeMap;

/// Free-space tracker for `[data_start, data_start + data_sectors)`.
#[derive(Debug, Clone)]
pub struct ExtentAllocator {
    /// Free runs, keyed by start sector; values are run lengths.
    /// Invariant: runs are disjoint and never adjacent (always coalesced).
    free: BTreeMap<u64, u64>,
}

impl ExtentAllocator {
    /// A fully free data region.
    pub fn new(data_start: u64, data_sectors: u64) -> ExtentAllocator {
        let mut free = BTreeMap::new();
        if data_sectors > 0 {
            free.insert(data_start, data_sectors);
        }
        ExtentAllocator { free }
    }

    /// Total free sectors.
    pub fn free_sectors(&self) -> u64 {
        self.free.values().sum()
    }

    /// Marks `ext` as in use (mount-time rebuild from the file table).
    /// Fails if any part of it is not currently free — two files claiming
    /// the same sectors means the table is corrupt.
    pub fn claim(&mut self, ext: Extent) -> Result<(), SimError> {
        if ext.len == 0 {
            return Err(SimError::corruption(
                "file entry",
                ext.start,
                "zero-length extent",
            ));
        }
        let run = self
            .free
            .range(..=ext.start)
            .next_back()
            .map(|(&s, &l)| (s, l));
        let Some((run_start, run_len)) = run else {
            return Err(overlap(ext));
        };
        if ext.start < run_start || ext.end() > run_start + run_len {
            return Err(overlap(ext));
        }
        self.free.remove(&run_start);
        if ext.start > run_start {
            self.free.insert(run_start, ext.start - run_start);
        }
        if run_start + run_len > ext.end() {
            self.free.insert(ext.end(), run_start + run_len - ext.end());
        }
        Ok(())
    }

    /// Allocates `sectors` sectors first-fit: the first single free run
    /// that holds the whole request wins (one extent, fully sequential);
    /// only a fragmented region falls back to gathering several runs in
    /// address order, capped at [`MAX_EXTENTS`] pieces.
    ///
    /// Allocation budget (`tests/alloc_budget.rs`, the journaled replay's
    /// per-record budget counts it): the owned extent list is the API — it is moved into the committed [`FileEntry`] —
    /// and holds at most [`MAX_EXTENTS`] (8) elements.
    pub fn allocate(&mut self, sectors: u64) -> Result<Vec<Extent>, SimError> {
        if sectors == 0 {
            return Ok(Vec::new());
        }
        if let Some((&start, _)) = self.free.iter().find(|&(_, &len)| len >= sectors) {
            let ext = Extent {
                start,
                len: sectors,
            };
            self.claim(ext)?;
            return Ok(vec![ext]);
        }
        // Fragmented: gather address-ordered runs until satisfied.
        let mut picked = Vec::new();
        let mut need = sectors;
        for (&start, &len) in &self.free {
            let take = len.min(need);
            picked.push(Extent { start, len: take });
            need -= take;
            if need == 0 {
                break;
            }
        }
        if need > 0 || picked.len() > MAX_EXTENTS {
            return Err(SimError::ResourceExhausted {
                resource: "ufs data extents".into(),
            });
        }
        for e in &picked {
            self.claim(*e)?;
        }
        Ok(picked)
    }

    /// Returns `ext` to the free pool, coalescing with neighbours.
    pub fn release(&mut self, ext: Extent) {
        if ext.len == 0 {
            return;
        }
        let mut start = ext.start;
        let mut len = ext.len;
        if let Some((&prev_start, &prev_len)) = self.free.range(..start).next_back() {
            if prev_start + prev_len == start {
                self.free.remove(&prev_start);
                start = prev_start;
                len += prev_len;
            }
        }
        if let Some(&next_len) = self.free.get(&(ext.end())) {
            self.free.remove(&ext.end());
            len += next_len;
        }
        self.free.insert(start, len);
    }
}

fn overlap(ext: Extent) -> SimError {
    SimError::corruption(
        "file entry",
        ext.start,
        format!(
            "extent [{}, {}) overlaps another file",
            ext.start,
            ext.end()
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_fit_prefers_one_contiguous_extent() {
        let mut a = ExtentAllocator::new(100, 100);
        let got = a.allocate(40).expect("fits");
        assert_eq!(
            got,
            vec![Extent {
                start: 100,
                len: 40
            }]
        );
        let got = a.allocate(60).expect("fits");
        assert_eq!(
            got,
            vec![Extent {
                start: 140,
                len: 60
            }]
        );
        assert_eq!(a.free_sectors(), 0);
        assert!(matches!(
            a.allocate(1),
            Err(SimError::ResourceExhausted { .. })
        ));
    }

    #[test]
    fn fragmented_region_gathers_runs_in_address_order() {
        let mut a = ExtentAllocator::new(0, 30);
        let first = a.allocate(10).expect("fits"); // [0, 10)
        let second = a.allocate(10).expect("fits"); // [10, 20)
        a.release(first[0]); // free [0, 10) and [20, 30)
        let got = a.allocate(15).expect("gathers");
        assert_eq!(
            got,
            vec![Extent { start: 0, len: 10 }, Extent { start: 20, len: 5 }]
        );
        a.release(second[0]);
        for e in got {
            a.release(e);
        }
        assert_eq!(a.free_sectors(), 30);
        // Fully coalesced back into one run.
        assert_eq!(a.free.len(), 1);
    }

    #[test]
    fn claim_rejects_overlap_and_out_of_region() {
        let mut a = ExtentAllocator::new(10, 20);
        a.claim(Extent { start: 12, len: 5 }).expect("free");
        assert!(a.claim(Extent { start: 14, len: 2 }).is_err());
        assert!(a.claim(Extent { start: 0, len: 5 }).is_err());
        assert!(a.claim(Extent { start: 28, len: 5 }).is_err());
        a.claim(Extent { start: 17, len: 3 })
            .expect("adjacent is fine");
    }

    #[test]
    fn release_coalesces_both_sides() {
        let mut a = ExtentAllocator::new(0, 12);
        let l = a.allocate(4).expect("fits");
        let m = a.allocate(4).expect("fits");
        let r = a.allocate(4).expect("fits");
        a.release(l[0]);
        a.release(r[0]);
        assert_eq!(a.free.len(), 2);
        a.release(m[0]);
        assert_eq!(a.free.len(), 1);
        assert_eq!(a.free_sectors(), 12);
    }
}
