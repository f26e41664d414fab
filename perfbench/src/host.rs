//! Host-speed calibration.
//!
//! Shared two-core hosts change speed by tens of percent within seconds,
//! and a slow spell moves a whole run. The grid workloads therefore time a
//! fixed kernel (owned by the benchmark, so no change to the characterizer
//! moves it) on every worker thread right before and right after each timed
//! call. The call's time is divided by the kernel's slowdown against
//! [`REFERENCE_SECS`], which reports it at the reference host speed; the raw
//! times stay in the run details.

use std::time::Instant;

/// Kernel rounds per thread.
const ROUNDS: u64 = 6000;

/// Kernel wall time at the reference speed (a quiet spell on a 2-core
/// Intel Xeon host).
pub const REFERENCE_SECS: f64 = 0.03;

/// Runs the fixed kernel on `threads` threads at once and returns the wall
/// time in seconds.
pub fn calibrate(threads: usize) -> f64 {
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads.max(1) {
            s.spawn(move || std::hint::black_box(kernel(t as u64)));
        }
    });
    start.elapsed().as_secs_f64()
}

/// Branchy integer work over L1/L2-sized buffers, like the tile kernels:
/// xorshift fill, sort, and scattered table updates.
fn kernel(seed: u64) -> u64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15 ^ seed;
    let mut acc = 0u64;
    let mut buf = vec![0u32; 256];
    let mut table = vec![0u32; 1 << 16];
    for round in 0..ROUNDS {
        for v in buf.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *v = x as u32;
        }
        buf.sort_unstable();
        for (i, &v) in buf.iter().enumerate() {
            let slot = (v as usize ^ i) & 0xffff;
            table[slot] = table[slot].wrapping_add(v);
            acc = acc.wrapping_add(u64::from(table[(slot * 7) & 0xffff]));
        }
        acc ^= round;
    }
    acc
}
