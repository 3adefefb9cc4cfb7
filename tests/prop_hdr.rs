//! Property tests over `simobs::HdrHistogram` — the contract the
//! observability layer's latency exports rest on (see
//! `docs/PROFILING.md`):
//!
//! * every reported quantile brackets the true order statistic within
//!   the documented `1/2^SUB_BITS` relative-error bound;
//! * merge is associative and commutative, so per-shard histograms
//!   combine into the same bytes in any grouping and any order;
//! * sharding a recording across the thread pool is invisible in the
//!   serialized form — byte-identical at 1, 2 and 8 workers.

use proptest::prelude::*;
use rayon::prelude::*;
use simobs::hdr::{HdrHistogram, SUB};
use std::sync::Mutex;

/// Latency-like values spanning the exact region (`< SUB`), the
/// log-linear octaves, and the saturating top end of `u64`.
fn arb_values() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(
        prop_oneof![
            0u64..SUB,                // exact buckets
            SUB..10_000u64,           // short latencies
            10_000u64..10_000_000u64, // microseconds..ms
            (u64::MAX / 4)..u64::MAX, // top octaves
        ],
        1..200,
    )
}

fn record_all(values: &[u64]) -> HdrHistogram {
    let mut h = HdrHistogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn quantiles_stay_inside_the_relative_error_bound(values in arb_values()) {
        let h = record_all(&values);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let n = sorted.len() as u64;
        for (num, den) in [(1u64, 2u64), (9, 10), (99, 100), (999, 1000)] {
            let rank = (n * num).div_ceil(den).max(1);
            let truth = sorted[rank as usize - 1];
            let est = h.value_at_quantile(num, den);
            prop_assert!(est >= truth, "p{}/{}: {} < true {}", num, den, est, truth);
            prop_assert!(
                est <= truth.saturating_add(truth / SUB),
                "p{}/{}: {} above the 1/{} bound for {}",
                num, den, est, SUB, truth
            );
        }
        prop_assert_eq!(h.percentiles().max, *sorted.last().unwrap());
        prop_assert_eq!(h.total(), n);
    }

    #[test]
    fn merge_is_commutative_and_associative(
        a in arb_values(),
        b in arb_values(),
        c in arb_values(),
    ) {
        let (ha, hb, hc) = (record_all(&a), record_all(&b), record_all(&c));

        // Commutes: a+b == b+a, down to the serialized bytes.
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(ab.encode(), ba.encode());

        // Associates: (a+b)+c == a+(b+c).
        let mut ab_c = ab.clone();
        ab_c.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut a_bc = ha.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc);
        prop_assert_eq!(ab_c.encode(), a_bc.encode());

        // And every grouping equals recording everything into one.
        let mut all = record_all(&a);
        for &v in b.iter().chain(&c) {
            all.record(v);
        }
        prop_assert_eq!(&all, &ab_c);
        prop_assert_eq!(all.encode(), ab_c.encode());
    }

    #[test]
    fn empty_shards_are_merge_identities(values in arb_values()) {
        let h = record_all(&values);
        let mut padded = HdrHistogram::new();
        padded.merge(&h);
        padded.merge(&HdrHistogram::new());
        prop_assert_eq!(&padded, &h);
        prop_assert_eq!(padded.encode(), h.encode());
    }
}

/// Makes `RAYON_NUM_THREADS` mutation exclusive — the environment is
/// process-global and tests in one binary run concurrently.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with the pool pinned to `n` workers, then restores the
/// default (host parallelism).
fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    std::env::set_var("RAYON_NUM_THREADS", n.to_string());
    let out = f();
    std::env::remove_var("RAYON_NUM_THREADS");
    out
}

#[test]
fn sharded_recording_is_byte_identical_at_every_thread_count() {
    let _guard = ENV_LOCK.lock().unwrap();
    // A fixed value set with exact, mid-range and near-max values.
    let values: Vec<u64> = (0..4096u64)
        .map(|i| match i % 5 {
            0 => i % SUB,
            1 => i * 37 + 11,
            2 => i * i + 1_000_000,
            3 => u64::MAX - i * 1000,
            _ => 1 << (i % 60),
        })
        .collect();
    let encodings: Vec<String> = [1usize, 2, 8]
        .into_iter()
        .map(|n| {
            with_threads(n, || {
                // Shard across the pool: one histogram per chunk,
                // collected in chunk order, merged left to right.
                let shards: Vec<HdrHistogram> = values
                    .chunks(64)
                    .map(<[u64]>::to_vec)
                    .collect::<Vec<_>>()
                    .into_par_iter()
                    .map(|chunk| record_all(&chunk))
                    .collect();
                let mut merged = HdrHistogram::new();
                for s in &shards {
                    merged.merge(s);
                }
                merged.encode()
            })
        })
        .collect();
    assert_eq!(
        encodings[0], encodings[1],
        "serialization diverged between 1 and 2 threads"
    );
    assert_eq!(
        encodings[0], encodings[2],
        "serialization diverged between 1 and 8 threads"
    );
    // And the sharded result equals the single-histogram recording.
    assert_eq!(encodings[0], record_all(&values).encode());
}
