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

/// Median wall-clock of `iters` runs of `f`, in milliseconds.
pub fn time_median_ms<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    let mut samples: Vec<Duration> = Vec::with_capacity(iters.max(1));
    for _ in 0..iters.max(1) {
        let t = Instant::now();
        f();
        samples.push(t.elapsed());
    }
    samples.sort_unstable();
    samples[samples.len() / 2].as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_median_is_positive() {
        let ms = time_median_ms(3, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert!(ms >= 0.0);
    }

    #[test]
    fn time_median_discards_closure_result() {
        // The closure's return value is irrelevant; only timing matters.
        let mut n = 0;
        let _ = time_median_ms(5, || n += 1);
        assert_eq!(n, 5);
    }
}
