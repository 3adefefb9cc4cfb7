//! The immutable keyed data pool with memory management and prefetching.

use nvmtypes::SimError;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// Hit/miss/eviction counters.
#[derive(Debug, Default)]
pub struct PoolStats {
    /// Lookups satisfied from memory.
    pub hits: AtomicU64,
    /// Lookups that had to load.
    pub misses: AtomicU64,
    /// Entries evicted to stay within budget.
    pub evictions: AtomicU64,
}

impl PoolStats {
    /// Hit ratio in `[0, 1]` (0 when nothing was looked up).
    pub fn hit_ratio(&self) -> f64 {
        let h = self.hits.load(Ordering::Relaxed);
        let m = self.misses.load(Ordering::Relaxed);
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }
}

struct Entry {
    data: Arc<Vec<u8>>,
    last_use: u64,
}

struct Inner {
    map: HashMap<String, Entry>,
    used: u64,
    clock: u64,
}

/// An immutable, keyed, memory-budgeted data pool.
///
/// Semantics follow DOoC's storage layer: once a key is written its bytes
/// never change (re-inserting the same key is a no-op), so readers can
/// hold zero-copy references without coherency protocol. When inserting
/// would exceed the budget, least-recently-used entries are evicted.
pub struct DataPool {
    capacity: u64,
    inner: Mutex<Inner>,
    /// Counters for tests and tuning.
    pub stats: PoolStats,
}

impl DataPool {
    /// Pool with a byte budget.
    pub fn new(capacity_bytes: u64) -> DataPool {
        DataPool {
            capacity: capacity_bytes,
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                used: 0,
                clock: 0,
            }),
            stats: PoolStats::default(),
        }
    }

    /// Budget in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently resident.
    pub fn used(&self) -> u64 {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .used
    }

    /// Whether `key` is resident (does not count as a hit/miss).
    pub fn contains(&self, key: &str) -> bool {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .map
            .contains_key(key)
    }

    /// Looks a key up, refreshing its recency.
    pub fn get(&self, key: &str) -> Option<Arc<Vec<u8>>> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.clock += 1;
        let clock = inner.clock;
        match inner.map.get_mut(key) {
            Some(e) => {
                e.last_use = clock;
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&e.data))
            }
            None => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts an immutable value. Re-inserting an existing key keeps the
    /// original bytes (immutability) and returns the resident value.
    pub fn insert(&self, key: &str, data: Vec<u8>) -> Arc<Vec<u8>> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(e) = inner.map.get_mut(key) {
            e.last_use = clock;
            return Arc::clone(&e.data);
        }
        let size = data.len() as u64;
        // Evict LRU entries until the new value fits (entries larger than
        // the whole budget are admitted alone).
        while inner.used + size > self.capacity && !inner.map.is_empty() {
            let Some(victim) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            if let Some(e) = inner.map.remove(&victim) {
                inner.used -= e.data.len() as u64;
                self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        let arc = Arc::new(data);
        inner.used += size;
        inner.map.insert(
            key.to_string(),
            Entry {
                data: Arc::clone(&arc),
                last_use: clock,
            },
        );
        arc
    }

    /// Returns the resident value or loads, inserts and returns it.
    pub fn get_or_load<F: FnOnce() -> Vec<u8>>(&self, key: &str, loader: F) -> Arc<Vec<u8>> {
        if let Some(v) = self.get(key) {
            return v;
        }
        let data = loader();
        self.insert(key, data)
    }
}

/// Background prefetcher: a dedicated worker pool that loads keys into
/// a shared [`DataPool`] ahead of the computation.
///
/// Call [`Prefetcher::shutdown`] when done to learn whether any loader
/// panicked; plain `Drop` still joins the workers but has nowhere to
/// report a failure.
pub struct Prefetcher {
    workers: Option<rayon::ThreadPool>,
    pool: Arc<DataPool>,
    outstanding: Arc<(Mutex<usize>, Condvar)>,
    failed_loads: Arc<AtomicU64>,
}

impl Prefetcher {
    /// Starts `workers` prefetch threads feeding `pool`.
    pub fn new(pool: Arc<DataPool>, workers: usize) -> Prefetcher {
        assert!(workers >= 1);
        Prefetcher {
            workers: Some(rayon::ThreadPoolBuilder::new().num_threads(workers).build()),
            pool,
            outstanding: Arc::new((Mutex::new(0usize), Condvar::new())),
            failed_loads: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Queues a prefetch. A prefetch is best-effort: if the workers are
    /// already gone the load is recorded in [`Prefetcher::failed_loads`]
    /// (and surfaced by `shutdown`) rather than panicking.
    pub fn prefetch<F: FnOnce() -> Vec<u8> + Send + 'static>(&self, key: &str, loader: F) {
        let (lock, _) = &*self.outstanding;
        *lock.lock().unwrap_or_else(PoisonError::into_inner) += 1;
        let Some(workers) = self.workers.as_ref() else {
            // Shut down (only reachable mid-drop): the load can never
            // happen, so record the failure and release any waiter.
            self.record_failed_load();
            return;
        };
        let key = key.to_string();
        let pool = Arc::clone(&self.pool);
        let outstanding = Arc::clone(&self.outstanding);
        let failed_loads = Arc::clone(&self.failed_loads);
        workers.spawn(move || {
            if !pool.contains(&key) {
                // Catch loader panics so the outstanding count is always
                // decremented — otherwise one bad loader would deadlock
                // every later `drain()`.
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(loader)) {
                    Ok(data) => {
                        pool.insert(&key, data);
                    }
                    Err(_) => {
                        failed_loads.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            let (lock, cv) = &*outstanding;
            let mut n = lock.lock().unwrap_or_else(PoisonError::into_inner);
            *n -= 1;
            cv.notify_all();
        });
    }

    /// Counts a load that could not run and releases its drain waiter.
    fn record_failed_load(&self) {
        self.failed_loads.fetch_add(1, Ordering::Relaxed);
        let (lock, cv) = &*self.outstanding;
        let mut n = lock.lock().unwrap_or_else(PoisonError::into_inner);
        *n -= 1;
        cv.notify_all();
    }

    /// Blocks until every queued prefetch has landed (or failed).
    pub fn drain(&self) {
        let (lock, cv) = &*self.outstanding;
        let n = lock.lock().unwrap_or_else(PoisonError::into_inner);
        let _idle = cv
            .wait_while(n, |n| *n > 0)
            .unwrap_or_else(PoisonError::into_inner);
    }

    /// Loaders that panicked so far (their keys were not inserted).
    pub fn failed_loads(&self) -> u64 {
        self.failed_loads.load(Ordering::Relaxed)
    }

    /// Drains outstanding work, stops the workers and joins them.
    ///
    /// # Errors
    /// Returns [`SimError::WorkerPanic`] when any queued loader panicked
    /// (the failure count is in the worker label) or when a prefetch job
    /// itself died outside the loader.
    pub fn shutdown(mut self) -> Result<(), SimError> {
        self.drain();
        if let Some(workers) = self.workers.take() {
            let panicked = workers.join();
            if panicked > 0 {
                return Err(SimError::worker_panic(format!(
                    "{panicked} prefetch job(s)"
                )));
            }
        }
        let failed = self.failed_loads();
        if failed > 0 {
            return Err(SimError::worker_panic(format!(
                "{failed} prefetch loader(s)"
            )));
        }
        Ok(())
    }
}

impl Drop for Prefetcher {
    fn drop(&mut self) {
        // Guarded: `shutdown()` already took `workers`, so this only
        // joins when the prefetcher is dropped without an explicit
        // shutdown (failures are then unreportable but not swallowed
        // silently — they are counted in `failed_loads`).
        drop(self.workers.take());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_round_trip() {
        let pool = DataPool::new(1024);
        pool.insert("a", vec![1, 2, 3]);
        assert_eq!(*pool.get("a").unwrap(), vec![1, 2, 3]);
        assert_eq!(pool.used(), 3);
    }

    #[test]
    fn immutability_keeps_first_write() {
        let pool = DataPool::new(1024);
        pool.insert("a", vec![1]);
        let v = pool.insert("a", vec![9, 9]);
        assert_eq!(*v, vec![1]);
        assert_eq!(pool.used(), 1);
    }

    #[test]
    fn lru_eviction_respects_recency() {
        let pool = DataPool::new(10);
        pool.insert("a", vec![0; 4]);
        pool.insert("b", vec![0; 4]);
        pool.get("a"); // refresh a
        pool.insert("c", vec![0; 4]); // evicts b (LRU)
        assert!(pool.contains("a"));
        assert!(!pool.contains("b"));
        assert!(pool.contains("c"));
        assert_eq!(pool.stats.evictions.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn budget_is_respected() {
        let pool = DataPool::new(100);
        for i in 0..50 {
            pool.insert(&format!("k{i}"), vec![0; 10]);
        }
        assert!(pool.used() <= 100);
    }

    #[test]
    fn get_or_load_only_loads_on_miss() {
        let pool = DataPool::new(1024);
        let mut calls = 0;
        pool.get_or_load("k", || {
            calls += 1;
            vec![7]
        });
        assert_eq!(calls, 1);
        let v = pool.get_or_load("k", || panic!("must not reload"));
        assert_eq!(*v, vec![7]);
        assert!(pool.stats.hit_ratio() > 0.0);
    }

    #[test]
    fn prefetcher_loads_in_background() {
        let pool = Arc::new(DataPool::new(1 << 20));
        let pf = Prefetcher::new(Arc::clone(&pool), 4);
        for i in 0..32 {
            pf.prefetch(&format!("panel{i}"), move || vec![i as u8; 100]);
        }
        pf.drain();
        for i in 0..32 {
            let v = pool.get(&format!("panel{i}")).expect("prefetched");
            assert_eq!(v.len(), 100);
            assert_eq!(v[0], i as u8);
        }
    }

    #[test]
    fn prefetch_skips_resident_keys() {
        let pool = Arc::new(DataPool::new(1 << 20));
        pool.insert("k", vec![1]);
        let pf = Prefetcher::new(Arc::clone(&pool), 2);
        pf.prefetch("k", || panic!("must not reload resident key"));
        pf.drain();
        assert_eq!(*pool.get("k").unwrap(), vec![1]);
        pf.shutdown().unwrap();
    }

    #[test]
    fn clean_shutdown_returns_ok() {
        let pool = Arc::new(DataPool::new(1 << 20));
        let pf = Prefetcher::new(Arc::clone(&pool), 2);
        pf.prefetch("a", || vec![1]);
        pf.shutdown().unwrap();
        assert!(pool.contains("a"));
    }

    #[test]
    fn panicking_loader_does_not_deadlock_and_is_reported() {
        let pool = Arc::new(DataPool::new(1 << 20));
        let pf = Prefetcher::new(Arc::clone(&pool), 2);
        pf.prefetch("bad", || panic!("injected loader failure"));
        pf.prefetch("good", || vec![7]);
        pf.drain(); // must not hang on the failed load
        assert_eq!(pf.failed_loads(), 1);
        assert!(!pool.contains("bad"));
        assert!(pool.contains("good"));
        let err = pf.shutdown().unwrap_err();
        assert!(
            matches!(err, SimError::WorkerPanic { .. }),
            "expected WorkerPanic, got {err}"
        );
    }
}
