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
//! and inside a simulation only where a model bound proves the parts
//! independent for a stretch of simulated time: [`lockstep`] keeps one
//! state per thread alive for a whole run and steps them in rounds, so a
//! cluster shard can step its machines side by side within one
//! network-lookahead window (see DESIGN.md, "Determinism & concurrency").
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

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

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

/// One lane of a [`lockstep`] run: state that lives on one thread for the
/// whole run and answers one input per round.
///
/// A lane is built on the thread that steps it and never moves, so it
/// need not be `Send`; only its inputs and outputs cross threads.
pub trait Lane {
    /// What the caller hands the lane each round.
    type Input: Send;
    /// What the lane hands back each round.
    type Output: Send;
    /// What the lane hands back when the run ends.
    type Done: Send;
    /// Answers one round.
    fn round(&mut self, input: Self::Input) -> Self::Output;
    /// Consumes the lane when the run ends.
    fn done(self) -> Self::Done;
}

/// Spins this many times on a handoff before yielding the CPU between
/// polls (about 22 µs on a 2-vCPU Xeon). A round trip through a spinning
/// handoff costs under a microsecond there; a `Mutex` + `Condvar` round
/// trip costs about 15 µs, as long as many of the rounds a cluster runs.
const SPINS_BEFORE_YIELD: u32 = 1 << 10;

/// One direction of a helper lane's handoff: the sender stores `item`,
/// then publishes the round number in `round`. Each mailbox has its own
/// cache lines, so a round trip moves only the lines it must.
#[repr(align(128))]
struct Mailbox<T> {
    round: AtomicU64,
    item: Mutex<Option<T>>,
}

impl<T> Mailbox<T> {
    fn new() -> Mailbox<T> {
        Mailbox {
            round: AtomicU64::new(0),
            item: Mutex::new(None),
        }
    }

    fn post(&self, round: u64, item: T) {
        *lock(&self.item) = Some(item);
        self.round.store(round, Ordering::Release);
    }

    fn take(&self) -> Option<T> {
        lock(&self.item).take()
    }

    fn holds(&self, round: u64) -> bool {
        self.round.load(Ordering::Acquire) == round
    }
}

/// A helper lane's two mailboxes: inputs from the caller, answers (or
/// the panic that ended the lane) back to it.
struct Slot<I, O> {
    input: Mailbox<I>,
    output: Mailbox<std::thread::Result<O>>,
}

/// Locks a handoff mutex. Panics are carried as values through the
/// mailboxes, so a poisoned lock still holds a consistent `Option`.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Polls until `mailbox` holds `round` (returns `true`) or `stop` is set
/// (returns `false`): spinning first, then yielding between polls.
fn wait_for<T>(mailbox: &Mailbox<T>, round: u64, stop: &AtomicBool) -> bool {
    let mut polls = 0u32;
    loop {
        if mailbox.holds(round) {
            return true;
        }
        if stop.load(Ordering::Acquire) {
            return false;
        }
        if polls < SPINS_BEFORE_YIELD {
            polls += 1;
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

/// Sets the stop flag when dropped, so helpers leave their wait loops
/// however the caller's `body` exits (normally or by unwinding).
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// The caller's handle on a [`lockstep`] run: lane 0 lives here, on the
/// calling thread; every other lane answers through its slot.
pub struct Rounds<'a, L: Lane> {
    local: L,
    slots: &'a [Slot<L::Input, L::Output>],
    stop: &'a AtomicBool,
    round: u64,
}

impl<L: Lane> Rounds<'_, L> {
    /// Lanes in the run, the calling thread's included.
    pub fn lanes(&self) -> usize {
        1 + self.slots.len()
    }

    /// Runs one round: lane `i` answers `inputs[i]`, every lane at once,
    /// and the outputs come back in lane order. Returns when every lane
    /// has answered.
    ///
    /// Once lane 0 has answered, the calling thread calls `idle` again
    /// and again while some other lane is still working, until `idle`
    /// returns `false` (it has nothing left to do): work that does not
    /// depend on this round's outputs fills the time the caller would
    /// spend spinning. With one lane there is no wait and `idle` is not
    /// called.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.lanes()`, and resumes on the
    /// calling thread any panic a lane raised in this round.
    pub fn run(&mut self, inputs: Vec<L::Input>, mut idle: impl FnMut() -> bool) -> Vec<L::Output> {
        assert_eq!(inputs.len(), self.lanes(), "one input per lane");
        self.round += 1;
        let round = self.round;
        let mut inputs = inputs.into_iter();
        let Some(local_input) = inputs.next() else {
            unreachable!("a run has at least one lane")
        };
        for (slot, input) in self.slots.iter().zip(inputs) {
            slot.input.post(round, input);
        }
        let mut outputs = Vec::with_capacity(self.lanes());
        outputs.push(self.local.round(local_input));
        while self.slots.iter().any(|slot| !slot.output.holds(round)) && idle() {}
        for slot in self.slots {
            // A helper always answers a posted round (a panic included),
            // so this wait ends without the stop flag.
            wait_for(&slot.output, round, self.stop);
            match slot.output.take() {
                Some(Ok(output)) => outputs.push(output),
                Some(Err(payload)) => panic::resume_unwind(payload),
                None => unreachable!("an answered round holds its answer"),
            }
        }
        outputs
    }
}

/// One helper thread's life: build its lane, answer rounds until the
/// stop flag, then hand back the lane's [`Lane::done`]. A panic anywhere
/// is posted as the lane's answer (the caller resumes it) and ends the
/// helper with `None`.
fn helper<L: Lane>(
    index: usize,
    build: &(impl Fn(usize) -> L + Sync),
    slot: &Slot<L::Input, L::Output>,
    stop: &AtomicBool,
) -> Option<L::Done> {
    let mut round = 1;
    let mut lane = match panic::catch_unwind(AssertUnwindSafe(|| build(index))) {
        Ok(lane) => lane,
        Err(payload) => {
            slot.output.post(round, Err(payload));
            return None;
        }
    };
    while wait_for(&slot.input, round, stop) {
        let input = slot.input.take();
        let answer = panic::catch_unwind(AssertUnwindSafe(|| match input {
            Some(input) => lane.round(input),
            None => unreachable!("a posted round holds its input"),
        }));
        let failed = answer.is_err();
        slot.output.post(round, answer);
        if failed {
            return None;
        }
        round += 1;
    }
    match panic::catch_unwind(AssertUnwindSafe(|| lane.done())) {
        Ok(done) => Some(done),
        Err(payload) => {
            slot.output.post(round, Err(payload));
            None
        }
    }
}

/// Runs `body` against `lanes` long-lived lanes stepped in lock-step
/// rounds, and returns its result with every lane's [`Lane::done`] in
/// lane order.
///
/// Lane 0 is built and stepped on the calling thread; lanes `1..lanes`
/// each get a scoped thread that builds its lane with `build(index)` and
/// keeps it for the whole run. Each [`Rounds::run`] hands every lane one
/// input and returns when all have answered; between rounds the helpers
/// wait by spinning, then yielding, so a round trip costs far less than a
/// `Condvar` handoff. With `lanes <= 1` no thread is spawned and every
/// round is a plain call on the caller: the same code path, serially.
///
/// Rounds are a pure function of their inputs and the lanes' state, so
/// results do not depend on how the lanes are spread over threads as long
/// as the inputs `body` hands them do not.
///
/// # Panics
///
/// A panic in a lane (building, a round, or `done`) is resumed on the
/// calling thread; a panic in `body` stops the helpers before it
/// propagates.
///
/// ```
/// use rbv_par::{lockstep, Lane};
///
/// /// Each lane keeps a running sum of its inputs.
/// struct Sum(u64);
/// impl Lane for Sum {
///     type Input = u64;
///     type Output = u64;
///     type Done = u64;
///     fn round(&mut self, x: u64) -> u64 {
///         self.0 += x;
///         self.0
///     }
///     fn done(self) -> u64 {
///         self.0
///     }
/// }
///
/// let (rounds, totals) = lockstep(3, |lane| Sum(lane as u64 * 100), |r| {
///     (1..=4).map(|x| r.run(vec![x; 3], || false)).collect::<Vec<_>>()
/// });
/// assert_eq!(rounds[0], vec![1, 101, 201]);
/// assert_eq!(totals, vec![10, 110, 210]);
/// ```
pub fn lockstep<L, B, D, R>(lanes: usize, build: B, body: D) -> (R, Vec<L::Done>)
where
    L: Lane,
    B: Fn(usize) -> L + Sync,
    D: FnOnce(&mut Rounds<'_, L>) -> R,
{
    let lanes = lanes.max(1);
    let stop = AtomicBool::new(false);
    let slots: Vec<Slot<L::Input, L::Output>> = (1..lanes)
        .map(|_| Slot {
            input: Mailbox::new(),
            output: Mailbox::new(),
        })
        .collect();
    std::thread::scope(|s| {
        let guard = StopOnDrop(&stop);
        let (build, stop) = (&build, &stop);
        let handles: Vec<_> = slots
            .iter()
            .enumerate()
            .map(|(i, slot)| s.spawn(move || helper(i + 1, build, slot, stop)))
            .collect();
        let mut rounds = Rounds {
            local: build(0),
            slots: &slots,
            stop,
            round: 0,
        };
        let result = body(&mut rounds);
        let mut done = vec![rounds.local.done()];
        drop(guard);
        for (handle, slot) in handles.into_iter().zip(&slots) {
            match handle.join() {
                Ok(Some(lane_done)) => done.push(lane_done),
                Ok(None) => match slot.output.take() {
                    Some(Err(payload)) => panic::resume_unwind(payload),
                    _ => unreachable!("a helper without a result posted its panic"),
                },
                Err(payload) => panic::resume_unwind(payload),
            }
        }
        (result, done)
    })
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

    /// A lane that remembers its index and every input it saw.
    struct Echo {
        index: usize,
        seen: Vec<u32>,
    }

    impl Lane for Echo {
        type Input = u32;
        type Output = (usize, u32, usize);
        type Done = (usize, Vec<u32>);
        fn round(&mut self, input: u32) -> (usize, u32, usize) {
            if input == u32::MAX {
                panic!("lane {} asked to fail", self.index);
            }
            self.seen.push(input);
            (self.index, input, self.seen.len())
        }
        fn done(self) -> (usize, Vec<u32>) {
            (self.index, self.seen)
        }
    }

    fn echo(index: usize) -> Echo {
        Echo {
            index,
            seen: Vec::new(),
        }
    }

    #[test]
    fn lockstep_results_come_back_in_round_order() {
        for lanes in [1, 2, 3, 4] {
            let (outputs, done) = lockstep(lanes, echo, |rounds| {
                assert_eq!(rounds.lanes(), lanes);
                (0..200u32)
                    .map(|r| rounds.run((0..lanes as u32).map(|l| r * 10 + l).collect(), || false))
                    .collect::<Vec<_>>()
            });
            for (r, round) in outputs.iter().enumerate() {
                let expect: Vec<_> = (0..lanes)
                    .map(|l| (l, r as u32 * 10 + l as u32, r + 1))
                    .collect();
                assert_eq!(round, &expect, "{lanes} lanes, round {r}");
            }
            // Each lane kept its state for the whole run and hands it
            // back in lane order.
            for (l, (index, seen)) in done.iter().enumerate() {
                assert_eq!(*index, l);
                assert_eq!(seen.len(), 200);
                assert_eq!(seen[199], 1990 + l as u32);
            }
        }
    }

    /// A lane that takes a while: its rounds sleep.
    struct Slow;

    impl Lane for Slow {
        type Input = u64;
        type Output = ();
        type Done = ();
        fn round(&mut self, millis: u64) {
            std::thread::sleep(std::time::Duration::from_millis(millis));
        }
        fn done(self) {}
    }

    #[test]
    fn lockstep_fills_the_wait_with_idle_work() {
        for lanes in [1, 2] {
            let mut calls = 0;
            lockstep(
                lanes,
                |_| Slow,
                |rounds| {
                    let mut inputs = vec![0; lanes];
                    inputs[lanes - 1] = 50;
                    rounds.run(inputs, || {
                        calls += 1;
                        calls < 3
                    });
                },
            );
            // Idle work runs only while another lane is busy, and stops
            // once it reports nothing left to do.
            assert_eq!(calls, if lanes == 1 { 0 } else { 3 }, "{lanes} lanes");
        }
    }

    #[test]
    fn lockstep_without_rounds_still_finishes_every_lane() {
        let ((), done) = lockstep(3, echo, |_| ());
        assert_eq!(done, vec![(0, vec![]), (1, vec![]), (2, vec![])]);
        let ((), done) = lockstep(0, echo, |rounds| assert_eq!(rounds.lanes(), 1));
        assert_eq!(done.len(), 1);
    }

    #[test]
    fn lockstep_resumes_a_helper_panic_on_the_caller() {
        let result = std::panic::catch_unwind(|| {
            lockstep(3, echo, |rounds| {
                rounds.run(vec![1, 2, 3], || false);
                rounds.run(vec![4, u32::MAX, 6], || false);
                unreachable!("the failing round must not return");
            })
        });
        let payload = result.expect_err("a lane panic must reach the caller");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert_eq!(message, "lane 1 asked to fail");
    }

    #[test]
    fn lockstep_stops_helpers_when_the_caller_panics() {
        let result = std::panic::catch_unwind(|| {
            lockstep(3, echo, |rounds| {
                rounds.run(vec![1, 2, 3], || false);
                rounds.run(vec![u32::MAX, 5, 6], || false);
            })
        });
        assert!(result.is_err(), "the local lane's panic propagates");
        let result = std::panic::catch_unwind(|| {
            lockstep(2, echo, |_| -> () { panic!("the body gave up") })
        });
        assert!(result.is_err(), "the body's panic propagates");
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
