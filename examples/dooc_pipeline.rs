//! The DOoC / DataCutter middleware in action (§2.1): panels of the
//! out-of-core Hamiltonian flow through a filter pipeline while a
//! prefetcher warms the data pool and a data-aware scheduler orders the
//! per-panel tasks.
//!
//! Run with:
//! ```text
//! cargo run --release --example dooc_pipeline
//! ```

use bytes_of_panels::summarise;
use oocnvm::nvmtypes::SimError;
use oocnvm::ooc::dooc::{DataPool, Filter, Pipeline, Prefetcher, TaskGraph};
use oocnvm::ooc::{HamiltonianSpec, UfsMatrix};
use oocnvm::ooctrace::{TraceCapture, TraceSink};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

mod bytes_of_panels {
    /// Sums the f64 payload of a serialised panel (a stand-in "filter
    /// computation" with a checkable answer).
    pub fn summarise(bytes: &[u8]) -> f64 {
        // Panels end with 8-byte-aligned f64 values; just checksum all
        // aligned words — deterministic and order-independent.
        bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()).abs().min(1e3))
            .sum()
    }
}

/// Reads panel `idx` through the store as the raw little-endian bytes of
/// its values (the pool holds raw arrays). A panel the store cannot read
/// loads empty, so it carries no weight in the checksums.
fn panel_bytes(ooc: &UfsMatrix, idx: usize, sink: &dyn TraceSink) -> Vec<u8> {
    ooc.read_panel(idx, sink)
        .map(|p| p.values.iter().flat_map(|v| v.to_le_bytes()).collect())
        .unwrap_or_default()
}

fn main() -> Result<(), SimError> {
    // The dataset: an out-of-core Hamiltonian split into panels of a
    // journaled UFS file, shared by every loader.
    let h = HamiltonianSpec::medium(3_000).generate();
    let ooc = Arc::new(UfsMatrix::build(&h, 200, 0, None)?);
    let n_panels = ooc.panels.len();
    println!("dataset: {n_panels} panels, {} KiB", ooc.bytes() >> 10);

    // 1. The DOoC data-storage layer: an immutable pool sized at half the
    //    dataset, fed by four prefetch workers.
    let pool = Arc::new(DataPool::new(ooc.bytes() / 2));
    let prefetcher = Prefetcher::new(Arc::clone(&pool), 4);
    let capture = Arc::new(TraceCapture::new());
    for idx in 0..n_panels {
        let ooc = Arc::clone(&ooc);
        let cap = Arc::clone(&capture);
        prefetcher.prefetch(&format!("panel/{idx}"), move || {
            panel_bytes(&ooc, idx, &*cap)
        });
    }
    prefetcher.shutdown()?;
    println!(
        "pool after prefetch: {} KiB resident, {} evictions (budget {} KiB)",
        pool.used() >> 10,
        pool.stats.evictions.load(Ordering::Relaxed),
        pool.capacity() >> 10
    );

    // 2. The data-aware scheduler: one task per panel, preferring panels
    //    already resident, plus a final reduction task.
    let total = Arc::new(AtomicU64::new(0));
    let mut graph = TaskGraph::with_pool(Arc::clone(&pool));
    let mut panel_tasks = Vec::new();
    for idx in 0..n_panels {
        let key = format!("panel/{idx}");
        let name = key.clone();
        let pool = Arc::clone(&pool);
        let total = Arc::clone(&total);
        let ooc = Arc::clone(&ooc);
        let cap = Arc::clone(&capture);
        let id = graph.add_task_with_inputs(&name, &[], &[&name.clone()], move || {
            let data = pool.get_or_load(&key, || panel_bytes(&ooc, idx, &*cap));
            let s = summarise(&data);
            total.fetch_add(s as u64, Ordering::Relaxed);
        });
        panel_tasks.push(id);
    }
    let done = Arc::new(AtomicU64::new(0));
    let done2 = Arc::clone(&done);
    graph.add_task("reduce", &panel_tasks, move || {
        done2.store(1, Ordering::Relaxed);
    });
    let order = graph.execute(4)?;
    println!(
        "scheduler ran {} tasks on 4 workers; pool hit ratio {:.0}%",
        order.len(),
        pool.stats.hit_ratio() * 100.0
    );
    assert_eq!(done.load(Ordering::Relaxed), 1);

    // 3. A DataCutter-style filter/stream pipeline over the same panels:
    //    producer -> checksum filter -> threshold filter.
    struct Checksum;
    impl Filter for Checksum {
        fn process(&mut self, chunk: Vec<u8>, emit: &mut dyn FnMut(Vec<u8>)) {
            let s = summarise(&chunk);
            emit(s.to_le_bytes().to_vec());
        }
    }
    struct Threshold(f64);
    impl Filter for Threshold {
        fn process(&mut self, chunk: Vec<u8>, emit: &mut dyn FnMut(Vec<u8>)) {
            let v = f64::from_le_bytes(chunk[..8].try_into().unwrap());
            if v > self.0 {
                emit(chunk);
            }
        }
    }
    let source: Vec<Vec<u8>> = (0..n_panels)
        .map(|idx| {
            pool.get(&format!("panel/{idx}"))
                .map(|a| a.to_vec())
                .unwrap_or_else(|| panel_bytes(&ooc, idx, &*capture))
        })
        .collect();
    let heavy = Pipeline::new()
        .then(Checksum)
        .then(Threshold(1.0))
        .run(source)?;
    println!(
        "pipeline: {} of {} panels pass the weight threshold",
        heavy.len(),
        n_panels
    );
    println!("I/O trace captured along the way: {} reads", capture.len());
    Ok(())
}
