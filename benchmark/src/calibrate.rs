//! Host-speed calibration: a fixed integer kernel timed beside every
//! measurement, so host times can be reported at one reference speed.
//!
//! The benchmark runs on shared machines whose speed drifts over minutes
//! with what the rest of the host runs. Measured on a shared 2-vCPU Xeon
//! VM under heavy contention, the median pass time of 30-pass blocks
//! spread by 10–14% across seven minutes, and by 4–6% once divided by
//! this kernel's time. The kernel belongs to the benchmark, so it is the
//! same code on every commit compared; only the simulator's time moves
//! the calibrated value.

use std::time::Instant;

/// The kernel's duration at the reference speed, ms: its median on that
/// VM while the host was quiet. A calibrated time reads as the host time
/// the measurement would have taken there.
pub const NOMINAL_MS: f64 = 2.75;

/// Runs the kernel once and returns its host time, ms: xorshift steps,
/// an L1-resident table and a data-dependent branch, a mix that slows
/// down with a busy host the way the simulator does.
#[inline(never)]
pub fn kernel_ms() -> f64 {
    let start = Instant::now();
    let mut table = [0u32; 4096];
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc: u64 = 0;
    for i in 0..500_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x & 4095) as usize;
        if x & 1 == 0 {
            acc = acc.wrapping_add(u64::from(table[j]));
        } else {
            acc ^= x.rotate_left(i & 31);
        }
        table[j] = table[j].wrapping_add(acc as u32);
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}

/// Factor that rescales a host time measured beside a kernel run of
/// `kernel_ms` to the reference speed.
pub fn factor(kernel_ms: f64) -> f64 {
    if kernel_ms > 0.0 {
        NOMINAL_MS / kernel_ms
    } else {
        1.0
    }
}

/// The median kernel time over `runs` runs, for a measurement too long
/// or too rare to pair with a run of its own.
pub fn median_kernel_ms(runs: usize) -> f64 {
    let times: Vec<f64> = (0..runs.max(1)).map(|_| kernel_ms()).collect();
    crate::metrics::quantile(&times, 0.5)
}
