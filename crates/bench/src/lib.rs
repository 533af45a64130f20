//! # xmlmap-bench
//!
//! Benchmark harness regenerating the evaluation artefacts of
//! *XML Schema Mappings* (PODS 2009): the consistency-results grid
//! (Figure 1), the complexity-results grid (Figure 2), and the scaling
//! behaviours behind Lemma 4.1 and Theorem 8.2.
//!
//! `cargo run -p xmlmap-bench --bin tables --release` prints the
//! paper-style empirical grids recorded in `EXPERIMENTS.md`, asserting
//! each cell's verdict; `-- --json` runs the micro-suite behind
//! `BENCH_eval.json` (see [`micro`]).

pub mod micro;

use std::time::{Duration, Instant};

/// Times a closure once (the `tables` binary wants single-shot wall-clock
/// measurements of procedures whose cost spans six orders of magnitude).
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Formats a duration compactly for table cells.
pub fn fmt_duration(d: Duration) -> String {
    let micros = d.as_micros();
    if micros < 1_000 {
        format!("{micros}µs")
    } else if micros < 1_000_000 {
        format!("{:.1}ms", micros as f64 / 1_000.0)
    } else {
        format!("{:.2}s", micros as f64 / 1_000_000.0)
    }
}

/// Median ns/iteration of `routine` over `samples` batches within roughly
/// `budget` total measurement time.
pub fn measure_median_ns(samples: usize, budget: Duration, routine: &mut dyn FnMut()) -> f64 {
    // Warm-up + estimate: run until 2ms or 3 iterations.
    let mut iters_done = 0u64;
    let warmup = Instant::now();
    while iters_done < 3 || warmup.elapsed() < Duration::from_millis(2) {
        routine();
        iters_done += 1;
        if iters_done >= 1_000_000 {
            break;
        }
    }
    let est_per_iter = warmup.elapsed().as_secs_f64() / iters_done as f64;
    // Batch size so one sample takes ~budget/samples.
    let per_sample = budget.as_secs_f64() / samples as f64;
    let batch = ((per_sample / est_per_iter.max(1e-9)) as u64).clamp(1, 10_000_000);
    let mut sample_ns: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..batch {
            routine();
        }
        sample_ns.push(start.elapsed().as_nanos() as f64 / batch as f64);
    }
    sample_ns.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mid = sample_ns.len() / 2;
    if sample_ns.len() % 2 == 1 {
        sample_ns[mid]
    } else {
        (sample_ns[mid - 1] + sample_ns[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_micros(250)), "250µs");
        assert_eq!(fmt_duration(Duration::from_micros(1_500)), "1.5ms");
        assert_eq!(fmt_duration(Duration::from_millis(2_300)), "2.30s");
    }

    #[test]
    fn median_measurement_is_sane() {
        let mut x = 0u64;
        let ns = measure_median_ns(5, Duration::from_millis(20), &mut || {
            x = black_box(x.wrapping_add(1));
        });
        assert!(ns > 0.0 && ns < 1_000_000.0, "{ns}");
    }

    #[test]
    fn time_once_returns_value() {
        let (v, d) = time_once(|| 6 * 7);
        assert_eq!(v, 42);
        assert!(d < Duration::from_secs(1));
    }
}
