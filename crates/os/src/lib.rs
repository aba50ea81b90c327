//! Simulated operating system for the Request Behavior Variations
//! reproduction: the multicore machine, schedulers, request context
//! tracking, and the hardware-counter sampling machinery of §3.
//!
//! * [`config`] — machine / sampling / scheduling / fault-injection /
//!   overload-protection configuration;
//! * [`error`] — the [`RbvError`] type shared by configuration validation
//!   and the `repro` CLI;
//! * [`machine`] — the event-driven execution engine
//!   ([`run_simulation`]): per-core runqueues, quantum scheduling, the
//!   contention-easing policy of §5.2, request context propagation across
//!   components, and exact lazy counter advancement under the analytical
//!   contention model. The paper's fixed easing constants — the ≤ 5 ms
//!   re-scheduling interval and the vaEWMA gain α = 0.6 — are engine
//!   constants there, not configuration;
//! * [`observer`] — sampling costs and the observer effect (Table 1),
//!   both as calibrated constants and as measurements against the
//!   trace-driven cache hierarchy;
//! * [`accountant`] — the observer-effect cost accountant: per-mode
//!   sampling cost attribution against the "do no harm" budget (§3.4);
//! * [`result`] — completed-request timelines, transition-signal training
//!   records (Table 2), sampling statistics (Figure 5), contention
//!   accounting (Figure 12), and the one calibration of the easing
//!   scheduler's workload-dependent input: [`easing_threshold`], the
//!   exact 80th percentile of a stock run's per-period L2 misses per
//!   instruction ([`RunResult::easing_threshold`]);
//! * [`projection`] — the paper's future-work extension: projecting
//!   measured request timelines onto a different hardware platform.
//!
//! # Example
//!
//! ```
//! use rbv_os::{run_simulation, SimConfig};
//! use rbv_workloads::{Tpcc, RequestFactory};
//!
//! let mut factory = Tpcc::new(42, 0.05);
//! let result = run_simulation(SimConfig::paper_default(), &mut factory, 5)
//!     .expect("valid configuration");
//! assert_eq!(result.completed.len(), 5);
//! let cpi = result.completed[0].request_cpi().expect("ran instructions");
//! assert!(cpi > 0.5);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod accountant;
pub mod config;
mod engine;
pub mod error;
pub mod machine;
pub mod observer;
pub mod projection;
pub mod result;

pub use accountant::{ModeCost, ObserverReport, DO_NO_HARM_BUDGET};
pub use config::{
    ArrivalProcess, ClientPolicy, MeasurementFaults, OverloadPolicy, QueueDiscipline,
    SamplingPolicy, SchedulerPolicy, ShedPolicy, SimConfig,
};
// Guard re-exports so callers arming `SimConfig::guard` need not depend
// on `rbv-guard` directly.
pub use error::RbvError;
pub use machine::{
    run_simulation, run_simulation_streaming, run_simulation_streaming_traced,
    run_simulation_traced, CompletionSink, Machine,
};
pub use observer::{measure_sampling_cost, SampleCost, SampleMode, SamplingContext};
pub use projection::PlatformProjection;
pub use rbv_guard::{InvariantKind, LadderRung, EASING_ERROR_GATE};
// Power re-exports so callers configuring `SimConfig::power` need not
// depend on `rbv-power` directly.
pub use rbv_guard::PowerRung;
pub use rbv_power::{joules, PowerPolicy};
// The contention model's solve counters, which `RunStats::solver` carries.
pub use rbv_mem::SolverStats;
pub use result::{
    easing_threshold, pops_profile, solver_profile, CompletedRequest, EnergyStats, EventPops,
    FailReason, FailedRequest, RunResult, RunStats, SyscallRecord, TransitionRecord,
};
