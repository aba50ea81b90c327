//! Campaign-level behavior-drift injection.
//!
//! Single-run fault plans ([`crate::FaultPlan`]) decide *which requests*
//! inside one run misbehave. A [`DriftScenario`] sits one level above: it
//! decides *which campaign cells* — `(application, epoch)` pairs of a
//! long-horizon campaign grid — run with a sustained workload shift, and
//! keeps that assignment as scorable ground truth. The warehouse drift
//! detector (rbv-warehouse) is evaluated precision/recall against exactly
//! this assignment, the same way the §4.3 anomaly detector is scored
//! against [`crate::FaultyFactory::injected`].
//!
//! Assignment is stateless and deterministic: whether cell `(app, epoch)`
//! drifts is a hash of `(scenario seed, app, epoch)`, so shards can be
//! planned in any order (or in parallel) and always agree. Epochs 0 and 1
//! never drift — they are the campaign's day and night reference epochs,
//! the baselines every later epoch is compared against.

use rbv_os::RbvError;
use rbv_sim::rng::mix64;

use crate::plan::{mix, unit, FaultPlan, WorkloadFaults};

/// First epoch eligible for drift (epochs 0/1 are the day/night
/// reference baselines and stay clean by construction).
pub const FIRST_DRIFT_EPOCH: u32 = 2;

/// A deterministic assignment of sustained workload drift to campaign
/// cells.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftScenario {
    /// Seed of the cell assignment (independent of engine seeds).
    pub seed: u64,
    /// Per-cell probability that an eligible `(app, epoch)` cell drifts.
    pub cell_prob: f64,
    /// The workload shift applied to every request-emission slot of a
    /// drifted cell, at [`WorkloadFaults::anomaly_prob`] density.
    pub faults: WorkloadFaults,
}

impl DriftScenario {
    /// The standard drift scenario: roughly half of the eligible cells
    /// drift under the sustained [`WorkloadFaults::drift`] profile.
    pub fn standard(seed: u64) -> DriftScenario {
        DriftScenario {
            seed,
            cell_prob: 0.5,
            faults: WorkloadFaults::drift(),
        }
    }

    /// Checks field sanity.
    ///
    /// # Errors
    ///
    /// Returns [`RbvError::Config`] naming the first out-of-range field.
    pub fn validate(&self) -> Result<(), RbvError> {
        if !(self.cell_prob.is_finite() && (0.0..=1.0).contains(&self.cell_prob)) {
            return Err(RbvError::Config(format!(
                "cell_prob {} must be in [0, 1]",
                self.cell_prob
            )));
        }
        self.faults.validate()
    }

    /// Whether campaign cell `(app_index, epoch)` runs drifted. Stateless:
    /// any caller asking about any cell gets the same answer in any order.
    pub fn is_drifted(&self, app_index: usize, epoch: u32) -> bool {
        if epoch < FIRST_DRIFT_EPOCH || self.cell_prob <= 0.0 {
            return false;
        }
        let cell = (app_index as u64) << 32 | u64::from(epoch);
        unit(mix(mix64(self.seed ^ 0xD51F_7D51), cell)) < self.cell_prob
    }

    /// The fault plan for one shard of cell `(app_index, epoch)`: the
    /// drift workload channel when the cell is drifted, or the empty plan
    /// (bit-identical to an unwrapped run) when it is clean. `shard_seed`
    /// scopes the per-request assignment hash so distinct shards of the
    /// same cell drift different request slots.
    pub fn plan_for(&self, shard_seed: u64, app_index: usize, epoch: u32) -> FaultPlan {
        let mut plan = FaultPlan::none(mix64(shard_seed ^ self.seed));
        if self.is_drifted(app_index, epoch) {
            plan.workload = Some(self.faults);
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_epochs_never_drift() {
        let s = DriftScenario::standard(42);
        for app in 0..8 {
            assert!(!s.is_drifted(app, 0));
            assert!(!s.is_drifted(app, 1));
        }
    }

    #[test]
    fn assignment_is_deterministic_and_seed_sensitive() {
        let a = DriftScenario::standard(1);
        let b = DriftScenario::standard(2);
        let cells_a: Vec<bool> = (0..5)
            .flat_map(|app| (2..20).map(move |e| (app, e)))
            .map(|(app, e)| a.is_drifted(app, e))
            .collect();
        let again: Vec<bool> = (0..5)
            .flat_map(|app| (2..20).map(move |e| (app, e)))
            .map(|(app, e)| a.is_drifted(app, e))
            .collect();
        let cells_b: Vec<bool> = (0..5)
            .flat_map(|app| (2..20).map(move |e| (app, e)))
            .map(|(app, e)| b.is_drifted(app, e))
            .collect();
        assert_eq!(cells_a, again);
        assert_ne!(cells_a, cells_b);
    }

    #[test]
    fn cell_rate_tracks_probability() {
        let s = DriftScenario::standard(7);
        let hits = (0..20)
            .flat_map(|app| (2..102).map(move |e| (app, e)))
            .filter(|&(app, e)| s.is_drifted(app, e))
            .count();
        // 50% of 2000 eligible cells ± generous sampling slack.
        assert!((800..1_200).contains(&hits), "{hits}");
    }

    #[test]
    fn clean_cells_get_the_empty_workload_channel() {
        let s = DriftScenario::standard(42);
        let clean = s.plan_for(9, 0, 0);
        assert!(clean.workload.is_none());
        assert!(clean.validate().is_ok());
        let drifted_cell = (0..5)
            .flat_map(|app| (2..20).map(move |e| (app, e)))
            .find(|&(app, e)| s.is_drifted(app, e))
            .expect("standard scenario drifts some cell");
        let plan = s.plan_for(9, drifted_cell.0, drifted_cell.1);
        assert_eq!(plan.workload, Some(WorkloadFaults::drift()));
        assert!(plan.validate().is_ok());
    }

    #[test]
    fn distinct_shard_seeds_scope_request_assignment() {
        let s = DriftScenario::standard(42);
        let cell = (0..5)
            .flat_map(|app| (2..20).map(move |e| (app, e)))
            .find(|&(app, e)| s.is_drifted(app, e))
            .expect("some drifted cell");
        let p1 = s.plan_for(1, cell.0, cell.1);
        let p2 = s.plan_for(2, cell.0, cell.1);
        let a: Vec<_> = (0..200).map(|i| p1.workload_fault_for(i)).collect();
        let b: Vec<_> = (0..200).map(|i| p2.workload_fault_for(i)).collect();
        assert_ne!(a, b, "shard seeds must decorrelate request slots");
    }

    #[test]
    fn bad_probability_is_rejected() {
        let mut s = DriftScenario::standard(0);
        s.cell_prob = 1.5;
        assert!(s.validate().is_err());
        assert!(DriftScenario::standard(0).validate().is_ok());
    }
}
