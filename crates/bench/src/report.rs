//! Timing helpers shared by the benches that gate a ratio in-run.
//!
//! The benches print what they measure and assert their floors themselves;
//! nothing is written to disk. The cross-PR trajectory is the board's
//! (`BENCHMARK.json`, `BENCH_history.md`).

use std::time::{Duration, Instant};

/// Interleaved best-of-`n` for two workloads: alternating the pair inside
/// one loop means slow-machine drift (other tenants, thermal state) hits
/// both sides equally, and taking minima filters scheduler noise.
pub fn min_times<A: FnMut(), B: FnMut()>(n: usize, mut a: A, mut b: B) -> (Duration, Duration) {
    let mut best_a = Duration::MAX;
    let mut best_b = Duration::MAX;
    for _ in 0..n {
        let t = Instant::now();
        a();
        best_a = best_a.min(t.elapsed());
        let t = Instant::now();
        b();
        best_b = best_b.min(t.elapsed());
    }
    (best_a, best_b)
}
