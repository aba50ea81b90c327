//! Runtime guardrails for the simulated RBV kernel.
//!
//! The paper's §3.4 "do no harm" rule bounds what measurement may cost;
//! the rest of the reproduction *reports* that bound after the fact. This
//! crate enforces it (and its neighbors) at runtime:
//!
//! * [`Governor`] — an AIMD closed-loop controller over the sampling
//!   intervals: multiplicative back-off when an accounting window's
//!   observer overhead breaches the budget, additive recovery when it is
//!   comfortably under;
//! * [`HealthLadder`] — a measurement-health score (lost interrupts,
//!   counter noise, sampling starvation, staleness) driving the easing
//!   scheduler down an explicit degradation ladder — easing → easing on
//!   frozen predictions → stock — with hysteresis bands and a dwell time
//!   so it cannot flap, and back up when health returns;
//! * [`InvariantMonitor`] — online checks of the simulator's conservation
//!   laws (request conservation, clock/counter monotonicity, quantum
//!   accounting, non-negative slack, energy conservation), counted per
//!   kind instead of panicking;
//! * [`PowerLadder`] — a power-capping ladder over smoothed thermal
//!   pressure — nominal → frequency cap → core park — with the same
//!   hysteresis-plus-dwell machinery, degrading proactively so the
//!   firmware thermal clamp (the punitive defense of last resort) never
//!   has to;
//! * [`fsx`] — crash-safe artifact files: tempfile + atomic-rename writes
//!   and corrupt-document detection on read.
//!
//! Each component's gains, bands and dwell are `const`s in its module
//! (checked against each other at compile time): no caller varies them,
//! so the engine arms the whole guard with one switch.
//!
//! Everything here is a pure, RNG-free state machine over scalar window
//! inputs: the kernel (`rbv-os::machine`) owns the feedback loop and
//! feeds it counter deltas, which keeps this crate below `rbv-os` in the
//! dependency DAG and keeps governed runs deterministic — the same seed
//! yields the same decision sequence, and a disabled governor leaves the
//! engine's event stream untouched.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod fsx;
pub mod governor;
pub mod health;
pub mod invariant;
pub mod power;

pub use fsx::{read_document, write_atomic, DocumentError};
pub use governor::{Governor, GovernorAction, GovernorDecision, WindowSample};
pub use health::{HealthLadder, LadderRung, LadderTransition, EASING_ERROR_GATE};
pub use invariant::{InvariantKind, InvariantMonitor, InvariantTally};
pub use power::{PowerLadder, PowerRung, PowerTransition};
