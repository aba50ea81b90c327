//! Deterministic parallel execution: a dependency-free scoped-thread work
//! pool with an **ordered-collect** API.
//!
//! The repo's determinism contract says every artifact — ledgers, chaos
//! reports, experiment tables — must be a pure function of its inputs
//! (`(app, seed, fast)`), never of the machine it ran on. Naive
//! parallelism breaks that two ways: results arrive in completion order,
//! and floating-point reductions pick up whatever association the racing
//! workers happened to produce. This crate closes both holes:
//!
//! * **Work distribution** is dynamic — workers claim task indices from a
//!   shared [`AtomicUsize`] — so an unlucky schedule cannot idle a core,
//!   but distribution never affects *values*: each task is an independent
//!   pure function of its index.
//! * **Collection is ordered** — every result is placed into the slot of
//!   the task index that produced it, so the output `Vec` reads exactly
//!   as if the tasks had run serially, and any downstream reduction
//!   (float sums included) happens in submission order on the caller's
//!   thread.
//!
//! Together these make a [`Pool`] run **bit-identical regardless of
//! thread count**: `Pool::new(1)` and `Pool::new(8)` return the same
//! bytes, only faster. That property is what lets `repro bench --all
//! --threads 8` emit a ledger byte-identical to `--threads 1`.
//!
//! Parallelism is applied *between* independent runs and kernel tiles,
//! never *inside* a single simulation — the discrete-event engine is
//! inherently sequential and stays on one thread (see DESIGN.md,
//! "Determinism & concurrency").
//!
//! # Example: ordered fan-out
//!
//! ```
//! use rbv_par::Pool;
//!
//! // An embarrassingly parallel map: results come back in submission
//! // order no matter how workers interleave.
//! let squares = Pool::new(4).ordered_tasks(8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//!
//! // Bit-identical across thread counts — the determinism contract.
//! let serial = Pool::new(1).ordered_tasks(100, |i| (i as f64).sqrt().sin());
//! let wide = Pool::new(8).ordered_tasks(100, |i| (i as f64).sqrt().sin());
//! assert_eq!(serial, wide);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The host's available hardware parallelism, defaulting to 1 when the
/// runtime cannot tell (the conservative choice: serial execution is
/// always correct here, only slower).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Process-wide default worker count consumed by [`Pool::global`];
/// `0` means "not configured, use [`available_parallelism`]".
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide default worker count (the `repro --threads N`
/// flag calls this once at startup). Values are clamped to at least 1.
pub fn set_threads(n: usize) {
    DEFAULT_THREADS.store(n.max(1), Ordering::Relaxed);
}

/// The process-wide default worker count: the last [`set_threads`] value,
/// or [`available_parallelism`] when never configured.
pub fn threads() -> usize {
    match DEFAULT_THREADS.load(Ordering::Relaxed) {
        0 => available_parallelism(),
        n => n,
    }
}

/// A scoped-thread work pool.
///
/// A `Pool` is a configuration value, not a resident thread set: workers
/// are spawned per call inside [`std::thread::scope`] and joined before
/// the call returns, so borrows of stack data are safe and no state leaks
/// between calls. Spawning a few OS threads costs microseconds — noise
/// next to the simulation runs and `O(n²)` kernels fanned across them.
///
/// With `threads == 1` every API degenerates to a plain serial loop on
/// the calling thread (no threads spawned), which is also the reference
/// behavior the parallel paths are property-tested against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool with `threads` workers, clamped to at least 1.
    ///
    /// ```
    /// use rbv_par::Pool;
    /// assert_eq!(Pool::new(0).threads(), 1);
    /// assert_eq!(Pool::new(4).threads(), 4);
    /// ```
    pub fn new(threads: usize) -> Pool {
        Pool {
            threads: threads.max(1),
        }
    }

    /// A pool sized by the process-wide default ([`threads`]).
    pub fn global() -> Pool {
        Pool::new(threads())
    }

    /// A serial pool (one worker, runs on the calling thread).
    pub fn serial() -> Pool {
        Pool::new(1)
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(0), f(1), …, f(n - 1)` across the workers and returns the
    /// results **in index order**.
    ///
    /// Tasks are claimed dynamically (atomic work index), so long tasks
    /// don't stall short ones; results are scattered back into their
    /// submission slot, so the returned `Vec` is independent of the
    /// schedule. `f` must be a pure function of its index for the
    /// bit-identity guarantee to hold.
    ///
    /// # Panics
    ///
    /// If a task panics, the panic is resumed on the calling thread after
    /// all workers have stopped (no result is silently dropped).
    ///
    /// ```
    /// use rbv_par::Pool;
    /// let cubes = Pool::new(3).ordered_tasks(5, |i| (i as u64).pow(3));
    /// assert_eq!(cubes, vec![0, 1, 8, 27, 64]);
    /// ```
    pub fn ordered_tasks<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if self.threads == 1 || n <= 1 {
            return (0..n).map(f).collect();
        }
        let workers = self.threads.min(n);
        let next = AtomicUsize::new(0);
        let buckets: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let mut claimed = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            claimed.push((i, f(i)));
                        }
                        claimed
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(claimed) => claimed,
                    Err(payload) => panic::resume_unwind(payload),
                })
                .collect()
        });
        // Ordered collect: scatter each result into its submission slot.
        let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        for (i, r) in buckets.into_iter().flatten() {
            slots[i] = Some(r);
        }
        slots
            .into_iter()
            .map(|s| s.unwrap_or_else(|| unreachable!("every index < n is claimed exactly once")))
            .collect()
    }

    /// [`Pool::ordered_tasks`] over a slice: applies `f` to every item
    /// and returns the results in item order.
    ///
    /// ```
    /// use rbv_par::Pool;
    /// let words = ["a", "bb", "ccc"];
    /// let lens = Pool::new(2).ordered_map(&words, |w| w.len());
    /// assert_eq!(lens, vec![1, 2, 3]);
    /// ```
    pub fn ordered_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.ordered_tasks(items.len(), |i| f(&items[i]))
    }
}

impl Default for Pool {
    /// [`Pool::global`].
    fn default() -> Pool {
        Pool::global()
    }
}

/// Splits `requests` into shards of about `target` requests each, at most
/// `max` shards (and at least one). Sizes differ by at most one, larger
/// first, and sum to `requests`. The plan is a pure function of its
/// arguments, never of the worker count, so a sharded run's output does
/// not depend on `--threads`.
///
/// ```
/// assert_eq!(rbv_par::shard_plan(10, 4, 64), vec![4, 3, 3]);
/// assert_eq!(rbv_par::shard_plan(10, 4, 2), vec![5, 5]);
/// ```
///
/// # Panics
///
/// Panics if `max` is zero.
pub fn shard_plan(requests: usize, target: usize, max: usize) -> Vec<usize> {
    let shards = requests.div_ceil(target.max(1)).clamp(1, max);
    let base = requests / shards;
    let rem = requests % shards;
    (0..shards).map(|i| base + usize::from(i < rem)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_plan_is_a_pure_function_of_its_arguments() {
        assert_eq!(shard_plan(1, 32_768, 64), vec![1]);
        assert_eq!(shard_plan(100, 32_768, 64), vec![100]);
        assert_eq!(shard_plan(16_384, 16_384, 64), vec![16_384]);
        let plan = shard_plan(16_384 * 3 + 5, 16_384, 64);
        assert_eq!(plan.len(), 4);
        assert_eq!(plan.iter().sum::<usize>(), 16_384 * 3 + 5);
        let million = shard_plan(1_000_000, 32_768, 64);
        assert_eq!(million.len(), 31);
        assert_eq!(million.iter().sum::<usize>(), 1_000_000);
        // The cap binds eventually and the plan still conserves.
        let huge = shard_plan(10_000_000, 32_768, 64);
        assert_eq!(huge.len(), 64);
        assert_eq!(huge.iter().sum::<usize>(), 10_000_000);
        // Sizes differ by at most one, so shard runtimes stay balanced.
        let (lo, hi) = (huge.iter().min().unwrap(), huge.iter().max().unwrap());
        assert!(hi - lo <= 1);
    }

    #[test]
    fn results_come_back_in_submission_order() {
        for threads in [1, 2, 3, 8, 33] {
            let out = Pool::new(threads).ordered_tasks(100, |i| i * 2);
            assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn unbalanced_tasks_still_collect_in_order() {
        // Task i sleeps inversely to its index, so completion order is
        // roughly the reverse of submission order.
        let out = Pool::new(4).ordered_tasks(8, |i| {
            std::thread::sleep(std::time::Duration::from_millis((8 - i) as u64));
            i
        });
        assert_eq!(out, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn float_results_bit_identical_across_thread_counts() {
        let reference: Vec<f64> = Pool::new(1).ordered_tasks(512, |i| (i as f64 * 0.37).tanh());
        for threads in [2, 4, 7, 16] {
            let wide = Pool::new(threads).ordered_tasks(512, |i| (i as f64 * 0.37).tanh());
            let same = reference
                .iter()
                .zip(&wide)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "{threads} threads diverged from serial");
        }
    }

    #[test]
    fn zero_tasks_and_zero_threads_are_fine() {
        let empty: Vec<u8> = Pool::new(0).ordered_tasks(0, |_| 0u8);
        assert!(empty.is_empty());
        assert_eq!(Pool::new(0).threads(), 1);
    }

    #[test]
    fn ordered_map_borrows_items() {
        let data = vec![vec![1u32, 2], vec![3], vec![]];
        let sums = Pool::new(2).ordered_map(&data, |v| v.iter().sum::<u32>());
        assert_eq!(sums, vec![3, 3, 0]);
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            Pool::new(4).ordered_tasks(16, |i| {
                if i == 7 {
                    panic!("boom at 7");
                }
                i
            })
        });
        assert!(result.is_err(), "task panic must reach the caller");
    }

    #[test]
    fn global_default_respects_set_threads() {
        // Note: process-global; keep this the only test mutating it.
        set_threads(3);
        assert_eq!(threads(), 3);
        assert_eq!(Pool::global().threads(), 3);
        set_threads(0); // clamps to 1
        assert_eq!(threads(), 1);
    }
}
