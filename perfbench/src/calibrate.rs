//! Host-speed calibration for the end-to-end timings.
//!
//! On a shared host, other tenants slow the simulator by up to 1.6× for
//! minutes at a time. The process keeps its CPU (its CPU time grows with
//! its wall time, and a pure-ALU loop keeps its speed), so the loss is in
//! the caches and memory the tenants share. This kernel does the
//! simulator's kind of work (a binary heap of pending events and a B-tree
//! index, about 6 MiB in all: like the simulator's working set, more than
//! the 2 MiB L2 of a core) and slows with it. The benchmark times it between
//! timed runs and their laps and scales their figures to the speed at
//! which the kernel takes [`REFERENCE_S`].
//!
//! In a ten-minute trial on the development host, while serve calls
//! slowed by up to 1.7×, dividing each call's time by this kernel's left
//! a quartile spread of 6.6% over 2-second runs, against 45% unscaled and
//! 11% with a 1 MiB kernel (heap of 20 000, 50 000 keys).
//!
//! The kernel is the benchmark's own code, so a change to the repository
//! cannot speed it up along with the workloads. Changing the kernel or
//! [`REFERENCE_S`] changes every `req_per_s` and `setup_s`: do it only in
//! a change that redefines the benchmark.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

/// Kernel time, in seconds, at the reference host speed: about its time
/// on the 2-vCPU development host between bursts of contention.
pub const REFERENCE_S: f64 = 0.08;

/// Events pushed through the kernel's heap and index.
const EVENTS: u64 = 250_000;

/// Pending events the heap holds before it starts popping.
const PENDING: usize = 200_000;

/// Distinct keys of the B-tree index.
const KEYS: u64 = 400_000;

/// Times one pass of the calibration kernel, in seconds.
pub fn kernel_s() -> f64 {
    let started = Instant::now();
    let mut heap = BinaryHeap::new();
    let mut index = BTreeMap::new();
    let mut x: u64 = 0x1234_5678_9ABC_DEF1;
    let mut acc = 0.0f64;
    for i in 0..EVENTS {
        // xorshift64: a fixed pseudo-random key stream.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(Reverse(x % 1_000_000));
        if heap.len() > PENDING {
            if let Some(Reverse(due)) = heap.pop() {
                acc += (due as f64).sqrt();
            }
        }
        index.insert(x % KEYS, i);
        if let Some((_, v)) = index.range((x % KEYS)..).next() {
            acc += *v as f64 * 1e-9;
        }
    }
    black_box(acc);
    started.elapsed().as_secs_f64()
}

/// How much slower than the reference the host runs right now, by one
/// kernel pass (1.0 at the reference speed, 1.5 when the kernel takes
/// half as long again).
pub fn slowdown() -> f64 {
    kernel_s() / REFERENCE_S
}
