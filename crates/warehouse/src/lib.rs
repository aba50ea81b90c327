//! Long-horizon campaign runner and cross-run ledger warehouse for the
//! Request Behavior Variations reproduction.
//!
//! A single `repro bench` run answers "what does this build do at this
//! seed?". The paper's behavior-variation story, though, is longitudinal:
//! request behavior drifts across software epochs, load follows day/night
//! curves, and the interesting questions — *did behavior shift? which
//! knob explains the spread? did a trend quietly break?* — only fall out
//! of many runs analyzed together. This crate is that layer:
//!
//! * [`spec`] — the campaign grid (apps × seeds × workload mixes ×
//!   scheduler variants × day/night epochs) and its **canonical shard
//!   order**;
//! * [`shard`] — one grid cell as one deterministic simulation digested
//!   into mergeable [`rbv_telemetry::QuantileSketch`]es;
//! * [`campaign`] — the grid fanned over [`rbv_par::Pool`] with ordered
//!   collection, so the run is byte-identical at any `--threads`;
//! * [`store`] — the `rbv-warehouse/v1` document: shard digests folded
//!   in canonical order under a [`rbv_guard::InvariantTally`] audit;
//! * [`detector`] — behavior-drift detection (per-app CPI distribution
//!   shift versus the same-phase reference epoch), scored against the
//!   fault injector's ground truth;
//! * [`variance`] — variance decomposition of group-mean CPI across the
//!   seed / mix / scheduler axes;
//! * [`mine`] — regression mining: epoch-over-epoch trend breaches
//!   against scaled [`rbv_ledger`] tolerance bands;
//! * [`report`] — the combined campaign report behind
//!   `repro campaign --report`.
//!
//! The whole pipeline honors the repo's determinism contract: every
//! artifact is a pure function of the spec, and the serialized warehouse
//! is byte-identical across thread counts, shard arrival orders, and
//! repeated runs. Wall-clock timings exist only as opt-in, non-diffed
//! metadata.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod campaign;
pub mod detector;
pub mod mine;
pub mod report;
pub mod shard;
pub mod spec;
pub mod store;
pub mod variance;

pub use campaign::run_campaign;
pub use detector::{detect_drift, drift_distance, DriftReport, DriftVerdict, DRIFT_THRESHOLD};
pub use mine::{mine_regressions, Regression, TREND_BAND_SCALE};
pub use report::{analyze, CampaignReport};
pub use shard::{run_shard, shard_seed, ShardOutput};
pub use spec::{CampaignSpec, LoadPhase, MixId, SchedVariant, ShardKey};
pub use store::{build_warehouse, GroupStat, Warehouse, WarehouseCell, SCHEMA};
pub use variance::{decompose_variance, VarianceDecomposition};
