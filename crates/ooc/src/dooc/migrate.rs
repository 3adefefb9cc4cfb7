//! Data migration between pools (§3.1).
//!
//! "In our approach, we extend the functionality of DOoC+LAF ... to enable
//! migration of data between data pools as well as between a monolithic
//! data pool and an individual node's memory." A migration copies
//! immutable arrays from a source pool (e.g. the ION-backed monolithic
//! pool) into a destination pool (a compute node's local-NVM pool) ahead
//! of the computation — the paper's pre-loading phase.

use crate::dooc::pool::DataPool;
use rayon::prelude::*;
use std::sync::Arc;

/// Outcome of one migration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MigrationReport {
    /// Keys copied into the destination.
    pub moved: u64,
    /// Bytes copied.
    pub moved_bytes: u64,
    /// Keys skipped because the destination already held them
    /// (immutability makes this a safe no-op).
    pub already_present: u64,
    /// Keys requested but absent from the source.
    pub missing: u64,
}

/// Copies `keys` from `src` to `dst`. Returns per-key accounting.
///
/// Immutability (DOoC's semantics) makes migration trivially coherent:
/// a key either exists with its final bytes or does not exist yet, so a
/// concurrent reader can never observe a torn array.
pub fn migrate(src: &DataPool, dst: &DataPool, keys: &[String]) -> MigrationReport {
    let mut report = MigrationReport::default();
    for key in keys {
        if dst.contains(key) {
            report.already_present += 1;
            continue;
        }
        match src.get(key) {
            Some(data) => {
                report.moved += 1;
                report.moved_bytes += data.len() as u64;
                dst.insert(key, data.as_ref().clone());
            }
            None => report.missing += 1,
        }
    }
    report
}

/// Migrates every key of `src` matched by `filter` into `dst` on the
/// thread pool, split into `workers` chunks (migration is bandwidth
/// work; the paper overlaps it with "previous application execution").
pub fn migrate_matching<F>(
    src: &Arc<DataPool>,
    dst: &Arc<DataPool>,
    keys: &[String],
    workers: usize,
    filter: F,
) -> MigrationReport
where
    F: Fn(&str) -> bool + Send + Sync,
{
    assert!(workers >= 1);
    let selected: Vec<String> = keys.iter().filter(|k| filter(k)).cloned().collect();
    let chunks: Vec<&[String]> = selected
        .chunks(selected.len().div_ceil(workers).max(1))
        .collect();
    let reports: Vec<MigrationReport> = chunks
        .into_par_iter()
        .map(|chunk| migrate(src, dst, chunk))
        .collect();
    let mut total = MigrationReport::default();
    for r in reports {
        total.moved += r.moved;
        total.moved_bytes += r.moved_bytes;
        total.already_present += r.already_present;
        total.missing += r.missing;
    }
    total
}

/// Drains selected keys out of a pool into plain node memory (the
/// "monolithic data pool -> individual node's memory" direction).
/// Returns owned `(key, bytes)` pairs; entries stay resident in the pool
/// (immutability means no ownership transfer is needed).
pub fn checkout(pool: &DataPool, keys: &[String]) -> Vec<(String, Vec<u8>)> {
    keys.iter()
        .filter_map(|k| pool.get(k).map(|d| (k.clone(), d.as_ref().clone())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled_pool(n: u64, size: usize) -> Arc<DataPool> {
        let pool = Arc::new(DataPool::new(1 << 30));
        for i in 0..n {
            pool.insert(&format!("k{i}"), vec![i as u8; size]);
        }
        pool
    }

    fn keys(n: u64) -> Vec<String> {
        (0..n).map(|i| format!("k{i}")).collect()
    }

    #[test]
    fn migrate_copies_everything_once() {
        let src = filled_pool(10, 100);
        let dst = Arc::new(DataPool::new(1 << 20));
        let rep = migrate(&src, &dst, &keys(10));
        assert_eq!(rep.moved, 10);
        assert_eq!(rep.moved_bytes, 1000);
        assert_eq!(rep.missing, 0);
        for k in keys(10) {
            assert!(dst.contains(&k));
        }
        // Second migration is a no-op.
        let rep2 = migrate(&src, &dst, &keys(10));
        assert_eq!(rep2.moved, 0);
        assert_eq!(rep2.already_present, 10);
    }

    #[test]
    fn migrate_reports_missing_keys() {
        let src = filled_pool(2, 10);
        let dst = Arc::new(DataPool::new(1 << 20));
        let rep = migrate(&src, &dst, &keys(5));
        assert_eq!(rep.moved, 2);
        assert_eq!(rep.missing, 3);
    }

    #[test]
    fn migrated_bytes_are_identical() {
        let src = filled_pool(4, 64);
        let dst = Arc::new(DataPool::new(1 << 20));
        migrate(&src, &dst, &keys(4));
        for i in 0..4u64 {
            let k = format!("k{i}");
            assert_eq!(*src.get(&k).unwrap(), *dst.get(&k).unwrap());
        }
    }

    #[test]
    fn parallel_migration_moves_the_filtered_set() {
        let src = filled_pool(64, 32);
        let dst = Arc::new(DataPool::new(1 << 20));
        let rep = migrate_matching(&src, &dst, &keys(64), 4, |k| {
            // Even-numbered keys only.
            k[1..].parse::<u64>().unwrap() % 2 == 0
        });
        assert_eq!(rep.moved, 32);
        assert_eq!(rep.moved_bytes, 32 * 32);
        assert!(dst.contains("k0"));
        assert!(!dst.contains("k1"));
    }

    #[test]
    fn checkout_returns_owned_copies_and_keeps_residency() {
        let pool = filled_pool(3, 16);
        let out = checkout(&pool, &keys(3));
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|(_, v)| v.len() == 16));
        for k in keys(3) {
            assert!(pool.contains(&k));
        }
    }
}
