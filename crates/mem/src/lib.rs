//! Multicore memory-hierarchy substrate for the Request Behavior Variations
//! reproduction.
//!
//! Two layers model the paper's 4-core Xeon 5160 (private L1s, 4 MB shared
//! L2 per core pair):
//!
//! * [`cache`] + [`hierarchy`] — a trace-driven, inclusive, LRU
//!   set-associative simulator with write-invalidate coherence, driven by
//!   the synthetic address traces in [`trace`]. Used for calibration
//!   ([`calibrate`]), microbenchmarks (Table 1), and validation tests.
//! * [`model`] — a fast analytical contention model (fractional cache
//!   sharing + bandwidth queueing) evaluated once per scheduling tick by
//!   the simulated kernel. Its miss-ratio curve is anchored against the
//!   trace-driven layer (see `tests/calibration.rs`).
//!
//! # Example
//!
//! ```
//! use rbv_mem::model::{MachineSpec, SegmentProfile};
//!
//! let machine = MachineSpec::xeon_5160();
//! let scan = SegmentProfile {
//!     base_cpi: 0.7,
//!     l2_refs_per_ins: 0.008,
//!     working_set_bytes: 360e6,
//!     reuse_locality: 0.5,
//! };
//! let solo = machine.solo(scan);
//! let crowded = machine.evaluate(&vec![Some(scan); 4])[0].unwrap();
//! assert!(crowded.cpi > solo.cpi); // multicore obfuscation (Figure 1)
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod calibrate;
pub mod hierarchy;
pub mod model;
pub mod trace;

pub use cache::{CacheConfig, SetAssocCache};
pub use hierarchy::{AccessLevel, CoreCounters, MemoryHierarchy, Topology};
pub use model::{
    ContentionSolver, MachineSpec, PerfEstimate, SegmentProfile, SolveOutcome, SolverStats,
};
