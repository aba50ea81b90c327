//! Deterministic fault injection for the Request Behavior Variations
//! reproduction.
//!
//! The paper's anomaly-detection and "do no harm" claims (§3–5) are only
//! credible if the stack can *manufacture* misbehavior and demonstrably
//! tolerate and detect it. This crate provides that substrate:
//!
//! * [`plan`] — the seedable [`FaultPlan`]: same seed ⇒ identical
//!   workload-fault schedule (measurement faults, overload protection and
//!   the thermal storm are `SimConfig` fields set directly);
//! * [`inject`] — [`FaultyFactory`], a request-factory wrapper applying
//!   the plan's workload faults (inflated working sets, runaway segment
//!   loops, stuck syscalls) and logging ground truth;
//! * [`detect`] — the §4.3 centroid-outlier detector over completed
//!   requests, scored precision/recall against that ground truth;
//! * [`chaos`] — the full fault matrix behind `repro chaos <app>`:
//!   anomaly scoring, measurement-storm degradation, overload
//!   protection, and the easing-vs-stock fault-storm comparison;
//! * [`drift`] — campaign-level [`DriftScenario`]: deterministic
//!   assignment of sustained workload drift to `(app, epoch)` cells of a
//!   long-horizon campaign, the ground truth the warehouse drift
//!   detector is scored against.
//!
//! Fault injection is strictly opt-in: [`FaultPlan::none`] leaves every
//! random stream, request, and event schedule untouched, so clean runs
//! are bit-identical with or without this crate in the loop.
//!
//! # Example
//!
//! ```
//! use rbv_faults::{FaultPlan, FaultyFactory, WorkloadFaults};
//! use rbv_os::{run_simulation, SimConfig};
//! use rbv_workloads::factory_for;
//!
//! let plan = FaultPlan {
//!     workload: Some(WorkloadFaults::storm()),
//!     ..FaultPlan::none(42)
//! };
//! let mut factory = FaultyFactory::new(
//!     factory_for(rbv_workloads::AppId::WebServer, 42, 1.0),
//!     plan,
//! );
//! let result = run_simulation(SimConfig::paper_default(), &mut factory, 30)
//!     .expect("valid configuration");
//! assert_eq!(result.completed.len(), 30);
//! // Ground truth for scoring the detector:
//! let _injected = factory.injected();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod chaos;
pub mod detect;
pub mod drift;
pub mod inject;
pub mod plan;

pub use chaos::{
    run_matrix, run_matrix_pooled, scenario_retry_storm, scenario_thermal, ChaosReport,
    RetryStormOutcome, ThermalOutcome,
};
pub use detect::{detect_anomalies, score, DetectorConfig, PrecisionRecall};
pub use drift::{DriftScenario, FIRST_DRIFT_EPOCH};
pub use inject::{FaultyFactory, InjectedFault};
pub use plan::{FaultPlan, WorkloadFaultKind, WorkloadFaults};
