//! The case against caching (§1, extension study).
//!
//! Prior work used compute-local NVM "solely ... as large and
//! algorithmically-managed caches"; the paper argues this fails for OoC
//! science because (a) caches "may take many hours or even days to heat
//! up", and (b) OoC workloads either never re-read data or re-read it at
//! "very high reuse distances" that defeat any practical capacity. This
//! module makes both arguments measurable: an LRU block-cache replay with
//! a hit-rate timeline, and an exact reuse-distance profile (distinct
//! blocks between consecutive accesses to the same block, computed with a
//! Fenwick tree).

use ooctrace::PosixTrace;
use std::collections::BTreeMap;

/// Result of replaying a trace through an LRU block cache.
#[derive(Debug, Clone)]
pub struct CacheReplay {
    /// Block accesses replayed.
    pub accesses: u64,
    /// Accesses served from cache.
    pub hits: u64,
    /// `(bytes_touched_so_far, hit_rate_of_last_window)` samples.
    pub timeline: Vec<(u64, f64)>,
    /// Bytes that had to stream through the cache before a window first
    /// reached a 50% hit rate — the "heat-up" cost. `None` if it never
    /// warmed within the trace.
    pub warm_bytes: Option<u64>,
}

impl CacheReplay {
    /// Overall hit ratio in `[0, 1]`.
    pub fn hit_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

/// Replays `trace` through an LRU cache of `capacity_bytes`, managed in
/// `block_size` units (the paper's comparators cache 4 KiB – 1 MiB
/// blocks). Hit-rate samples are taken every 64 block accesses.
pub fn replay_lru(trace: &PosixTrace, capacity_bytes: u64, block_size: u64) -> CacheReplay {
    assert!(block_size > 0 && capacity_bytes >= block_size);
    let capacity_blocks = capacity_bytes / block_size;
    // LRU: stamp -> block (ordered), block -> stamp.
    let mut by_age: BTreeMap<u64, u64> = BTreeMap::new();
    let mut stamp_of: BTreeMap<u64, u64> = BTreeMap::new();
    let mut clock: u64 = 0;
    let (mut accesses, mut hits) = (0u64, 0u64);
    let (mut win_acc, mut win_hit) = (0u64, 0u64);
    let mut bytes_seen = 0u64;
    let mut timeline = Vec::new();
    let mut warm_bytes = None;
    const WINDOW: u64 = 64;

    for rec in &trace.records {
        let first = rec.offset / block_size;
        let last = (rec.end().saturating_sub(1)) / block_size;
        for blk in first..=last {
            let key = ((rec.file as u64) << 40) | blk;
            clock += 1;
            accesses += 1;
            win_acc += 1;
            bytes_seen += block_size;
            if let Some(old) = stamp_of.get(&key).copied() {
                hits += 1;
                win_hit += 1;
                by_age.remove(&old);
            } else if by_age.len() as u64 >= capacity_blocks {
                // Evict the least recently used block.
                if let Some((&oldest, &victim)) = by_age.iter().next() {
                    by_age.remove(&oldest);
                    stamp_of.remove(&victim);
                }
            }
            by_age.insert(clock, key);
            stamp_of.insert(key, clock);
            if win_acc == WINDOW {
                let rate = win_hit as f64 / win_acc as f64;
                timeline.push((bytes_seen, rate));
                if warm_bytes.is_none() && rate >= 0.5 {
                    warm_bytes = Some(bytes_seen);
                }
                win_acc = 0;
                win_hit = 0;
            }
        }
    }
    if win_acc > 0 {
        let rate = win_hit as f64 / win_acc as f64;
        timeline.push((bytes_seen, rate));
        if warm_bytes.is_none() && rate >= 0.5 {
            warm_bytes = Some(bytes_seen);
        }
    }
    CacheReplay {
        accesses,
        hits,
        timeline,
        warm_bytes,
    }
}

/// Reuse-distance profile of a trace at `block_size` granularity.
#[derive(Debug, Clone)]
pub struct ReuseStats {
    /// `histogram[i]` counts re-accesses with reuse distance in
    /// `[2^i, 2^(i+1))` distinct blocks (bucket 0 holds distance 0 and 1).
    pub histogram: Vec<u64>,
    /// First-touch (cold) accesses, which have infinite reuse distance.
    pub cold: u64,
    /// Total re-accesses.
    pub reaccesses: u64,
    /// Median reuse distance in distinct blocks (`None` if no re-access).
    pub median_distance: Option<u64>,
}

impl ReuseStats {
    /// The capacity (bytes) an LRU cache would need for at least half of
    /// the re-accesses to hit.
    pub fn capacity_for_half_hits(&self, block_size: u64) -> Option<u64> {
        self.median_distance
            .map(|d| d.saturating_add(1) * block_size)
    }
}

/// Fenwick (binary indexed) tree over access positions.
struct Fenwick {
    tree: Vec<u64>,
}

impl Fenwick {
    fn new(n: usize) -> Fenwick {
        Fenwick {
            tree: vec![0; n + 1],
        }
    }

    fn add(&mut self, mut i: usize, delta: i64) {
        i += 1;
        while i < self.tree.len() {
            self.tree[i] = (self.tree[i] as i64 + delta) as u64;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of `[0, i]`.
    fn prefix(&self, mut i: usize) -> u64 {
        i += 1;
        let mut s = 0;
        while i > 0 {
            s += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        s
    }
}

/// Computes the exact LRU reuse-distance profile: for every re-access to
/// a block, the number of *distinct* blocks touched since its previous
/// access.
pub fn reuse_distances(trace: &PosixTrace, block_size: u64) -> ReuseStats {
    assert!(block_size > 0);
    // Expand to block accesses.
    let mut sequence: Vec<u64> = Vec::new();
    for rec in &trace.records {
        let first = rec.offset / block_size;
        let last = (rec.end().saturating_sub(1)) / block_size;
        for blk in first..=last {
            sequence.push(((rec.file as u64) << 40) | blk);
        }
    }
    let n = sequence.len();
    let mut fen = Fenwick::new(n);
    let mut last_pos: BTreeMap<u64, usize> = BTreeMap::new();
    let mut histogram = vec![0u64; 48];
    let mut cold = 0u64;
    let mut distances: Vec<u64> = Vec::new();
    for (pos, &blk) in sequence.iter().enumerate() {
        match last_pos.get(&blk).copied() {
            Some(prev) => {
                // Distinct blocks between prev and pos: marks in (prev, pos).
                let upto_pos = if pos == 0 { 0 } else { fen.prefix(pos - 1) };
                let upto_prev = fen.prefix(prev);
                let d = upto_pos - upto_prev;
                let bucket = if d <= 1 {
                    0
                } else {
                    63 - d.leading_zeros() as usize
                };
                histogram[bucket.min(47)] += 1;
                distances.push(d);
                fen.add(prev, -1);
            }
            None => cold += 1,
        }
        fen.add(pos, 1);
        last_pos.insert(blk, pos);
    }
    distances.sort_unstable();
    let median_distance = if distances.is_empty() {
        None
    } else {
        Some(distances[distances.len() / 2])
    };
    while histogram.len() > 1 && histogram.last() == Some(&0) {
        histogram.pop();
    }
    ReuseStats {
        histogram,
        cold,
        reaccesses: distances.len() as u64,
        median_distance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmtypes::IoOp;
    use ooctrace::TraceRecord;

    /// `sweeps` sequential passes over a file of `blocks` 4-KiB blocks.
    fn sweeping_trace(blocks: u64, sweeps: u64) -> PosixTrace {
        let mut t = PosixTrace::new();
        let mut i = 0;
        for _ in 0..sweeps {
            for b in 0..blocks {
                t.push(TraceRecord {
                    t: i,
                    op: IoOp::Read,
                    file: 0,
                    offset: b * 4096,
                    len: 4096,
                });
                i += 1;
            }
        }
        t
    }

    #[test]
    fn undersized_lru_never_hits_on_cyclic_sweeps() {
        // The classic sequential-flooding pathology: a cache one block
        // short of the working set evicts each block just before reuse.
        let trace = sweeping_trace(100, 5);
        let replay = replay_lru(&trace, 99 * 4096, 4096);
        assert_eq!(replay.hits, 0, "LRU should thrash");
        assert!(replay.warm_bytes.is_none());
    }

    #[test]
    fn oversized_lru_warms_after_one_sweep() {
        let trace = sweeping_trace(512, 4);
        let replay = replay_lru(&trace, 512 * 4096, 4096);
        // 3 of 4 sweeps hit.
        assert!(
            (replay.hit_ratio() - 0.75).abs() < 0.01,
            "{}",
            replay.hit_ratio()
        );
        let warm = replay.warm_bytes.expect("warms");
        // Heat-up costs about one full sweep.
        assert!(
            warm >= 512 * 4096 && warm <= 2 * 512 * 4096 + 256 * 4096,
            "warm {warm}"
        );
    }

    #[test]
    fn reuse_distance_of_cyclic_sweep_is_working_set() {
        let trace = sweeping_trace(64, 3);
        let stats = reuse_distances(&trace, 4096);
        assert_eq!(stats.cold, 64);
        assert_eq!(stats.reaccesses, 128);
        // Every re-access sees exactly 63 distinct other blocks.
        assert_eq!(stats.median_distance, Some(63));
        assert_eq!(stats.capacity_for_half_hits(4096), Some(64 * 4096));
    }

    #[test]
    fn immediate_reuse_has_distance_zero() {
        let mut t = PosixTrace::new();
        for i in 0..10u64 {
            t.push(TraceRecord {
                t: i,
                op: IoOp::Read,
                file: 0,
                offset: 0,
                len: 4096,
            });
        }
        let stats = reuse_distances(&t, 4096);
        assert_eq!(stats.cold, 1);
        assert_eq!(stats.median_distance, Some(0));
        // And a tiny cache captures them all.
        let replay = replay_lru(&t, 4096, 4096);
        assert_eq!(replay.hits, 9);
    }

    #[test]
    fn distinct_files_do_not_alias() {
        let mut t = PosixTrace::new();
        t.push(TraceRecord {
            t: 0,
            op: IoOp::Read,
            file: 0,
            offset: 0,
            len: 4096,
        });
        t.push(TraceRecord {
            t: 1,
            op: IoOp::Read,
            file: 1,
            offset: 0,
            len: 4096,
        });
        let replay = replay_lru(&t, 1 << 20, 4096);
        assert_eq!(replay.hits, 0);
        let stats = reuse_distances(&t, 4096);
        assert_eq!(stats.cold, 2);
    }

    #[test]
    fn random_access_reuse_distances_are_large() {
        // Pseudo-random single-block touches over a large footprint.
        let mut t = PosixTrace::new();
        let mut x = 1u64;
        for i in 0..4000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let blk = (x >> 33) % 1000;
            t.push(TraceRecord {
                t: i,
                op: IoOp::Read,
                file: 0,
                offset: blk * 4096,
                len: 4096,
            });
        }
        let stats = reuse_distances(&t, 4096);
        // Median distance near the footprint scale, far above trivial.
        assert!(stats.median_distance.unwrap() > 100);
    }
}
