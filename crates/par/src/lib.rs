//! Minimal data-parallel helpers built on `std::thread::scope`.
//!
//! The build environment cannot fetch rayon, so the fan-out points in the
//! workspace (per-STD chase firings, per-candidate certain answers, per-case
//! benchmarks) use these instead. The API is deliberately tiny: a parallel
//! map that preserves input order, with an explicit worker count or behind
//! a size gate.
//!
//! Work is distributed by an atomic cursor, so uneven item costs balance
//! across workers. Closures must be `Sync` (shared by reference) and results
//! `Send`. For tiny inputs (or on single-CPU hosts) everything runs inline on
//! the calling thread, keeping overhead at one atomic load.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads to use: the available parallelism, capped so
/// micro-workloads don't pay for dozens of idle threads.
pub fn worker_count() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(16)
}

/// Applies `f` to every item, in parallel, returning outputs in input order.
///
/// Equivalent to `items.iter().map(f).collect()` but fanned out over scoped
/// threads. Panics in `f` propagate to the caller.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_workers(items, worker_count(), f)
}

/// [`par_map`] with an explicit worker count.
///
/// Unlike [`par_map`], this spawns exactly `workers` threads (capped at the
/// item count) even on a single-CPU host — callers like the batch driver
/// use the thread count as an interleaving/correctness knob, not only a
/// throughput knob, so it must not silently collapse to the available
/// parallelism. `workers <= 1` runs inline on the calling thread. Output
/// order is the input order regardless of the worker count.
pub fn par_map_workers<T, U, F>(items: &[T], workers: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    // Workers buffer (index, output) pairs locally and merge once at the
    // end, so the hot loop touches only the shared cursor — no per-item
    // lock traffic.
    let buffers: Vec<Mutex<Vec<(usize, U)>>> =
        (0..workers).map(|_| Mutex::new(Vec::new())).collect();
    std::thread::scope(|scope| {
        for buffer in &buffers {
            scope.spawn(|| {
                let mut local: Vec<(usize, U)> = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    local.push((i, f(&items[i])));
                }
                *buffer.lock().unwrap() = local;
            });
        }
    });
    let mut results: Vec<Option<U>> = (0..items.len()).map(|_| None).collect();
    for buffer in buffers {
        for (i, out) in buffer.into_inner().unwrap() {
            results[i] = Some(out);
        }
    }
    results
        .into_iter()
        .map(|slot| slot.expect("workers covered every index"))
        .collect()
}

/// [`par_map`] behind a caller-supplied size gate: runs in parallel when
/// `parallel` is true, inline otherwise (same output either way).
///
/// Fixpoint engines that expand a dirty frontier per round (the compiled
/// automata product/inclusion loops) use this so tiny rounds — a handful of
/// machines woken by one new pair — skip thread fan-out entirely instead of
/// re-deriving the gate condition at every call site.
pub fn par_map_gated<T, U, F>(items: &[T], parallel: bool, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    if parallel {
        par_map(items, f)
    } else {
        items.iter().map(f).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map(&items, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(par_map(&[] as &[u8], |&x| x), Vec::<u8>::new());
        assert_eq!(par_map(&[7], |&x| x + 1), vec![8]);
    }

    #[test]
    fn explicit_worker_counts_agree() {
        let items: Vec<u64> = (0..500).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 3).collect();
        for workers in [0, 1, 2, 8, 1000] {
            assert_eq!(par_map_workers(&items, workers, |&x| x * 3), expected);
        }
    }

    #[test]
    fn uneven_work_balances() {
        let items: Vec<usize> = (0..64).collect();
        let out = par_map(&items, |&i| {
            // Make cost vary by item so the cursor distribution matters.
            (0..(i * 1000)).fold(0u64, |a, b| a.wrapping_add(b as u64))
        });
        assert_eq!(out.len(), 64);
    }

    #[test]
    fn gated_map_matches_either_way() {
        let items: Vec<u32> = (0..100).collect();
        let expected: Vec<u32> = items.iter().map(|&x| x + 1).collect();
        assert_eq!(par_map_gated(&items, true, |&x| x + 1), expected);
        assert_eq!(par_map_gated(&items, false, |&x| x + 1), expected);
    }
}
