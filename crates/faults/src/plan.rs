//! Seedable deterministic fault plans.
//!
//! A [`FaultPlan`] fixes, before a run starts, which requests of the
//! workload stream arrive anomalous (and how). The plan is pure data —
//! the same seed always produces the same fault schedule, independent of
//! execution order, so fault runs are exactly as reproducible as clean
//! ones. The engine's own fault channels (measurement faults, overload
//! protection, the thermal storm) are fields of [`rbv_os::SimConfig`]
//! that callers set directly.
//!
//! Workload-fault assignment is *stateless*: whether request `i` is
//! anomalous is a hash of `(seed, i)`, not a draw from a shared stream.
//! Consumers can therefore ask about any request index in any order
//! (the injector asks in emission order; tests and the scorer ask again
//! afterwards) and always get the same answer.

use rbv_os::RbvError;
use rbv_sim::rng::mix64;

/// The ways an injected request deviates from its class (§4.3's
/// "anomalous requests" made concrete).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadFaultKind {
    /// The request touches a working set many times its class's normal
    /// size (a leaked cache, an unexpectedly cold data structure): same
    /// instruction stream, much worse cache behavior.
    InflatedWorkingSet,
    /// A segment loops far past its normal trip count (the paper's
    /// Figure 8 WeBWorK anomaly): the instruction total balloons.
    RunawaySegmentLoop,
    /// A system call wedges and the request spins in kernel context at
    /// high CPI before continuing (stuck/slow syscall).
    StuckSyscall,
}

impl WorkloadFaultKind {
    /// All kinds, in the order the plan's hash selects them.
    pub const ALL: [WorkloadFaultKind; 3] = [
        WorkloadFaultKind::InflatedWorkingSet,
        WorkloadFaultKind::RunawaySegmentLoop,
        WorkloadFaultKind::StuckSyscall,
    ];

    /// Stable lower-case label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            WorkloadFaultKind::InflatedWorkingSet => "inflated-working-set",
            WorkloadFaultKind::RunawaySegmentLoop => "runaway-segment-loop",
            WorkloadFaultKind::StuckSyscall => "stuck-syscall",
        }
    }
}

/// Parameters of the workload-level fault channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadFaults {
    /// Per-request probability of arriving anomalous.
    pub anomaly_prob: f64,
    /// Working-set multiplier for [`WorkloadFaultKind::InflatedWorkingSet`]
    /// (the L2 reference rate also quadruples and reuse locality halves:
    /// thrashing code re-touches what it leaked).
    pub working_set_multiplier: f64,
    /// Trip-count multiplier applied to the final stage's segments for
    /// [`WorkloadFaultKind::RunawaySegmentLoop`].
    pub loop_factor: u32,
    /// CPI of the in-kernel spin for [`WorkloadFaultKind::StuckSyscall`].
    pub stuck_cpi: f64,
    /// Length of the stuck-syscall spin as a fraction of the request's
    /// normal instruction total.
    pub stuck_ins_fraction: f64,
}

impl WorkloadFaults {
    /// The standard anomaly storm: ~12% of requests anomalous, each
    /// deviation strong enough that a sound detector should find it.
    pub fn storm() -> WorkloadFaults {
        WorkloadFaults {
            anomaly_prob: 0.12,
            working_set_multiplier: 16.0,
            loop_factor: 8,
            stuck_cpi: 12.0,
            stuck_ins_fraction: 3.0,
        }
    }

    /// The sustained behavior-drift profile: not a rare acute anomaly but
    /// a pervasive mild shift — most requests in a drifted campaign epoch
    /// carry moderately inflated working sets, extra loop trips, or slow
    /// syscalls. Individually each request looks ordinary; collectively
    /// the epoch's CPI *distribution* moves (the prevalence is kept above
    /// one half precisely so the median shifts with it), which is exactly
    /// the signal the warehouse drift detector watches for (and the
    /// single-run §4.3 anomaly detector does not).
    pub fn drift() -> WorkloadFaults {
        WorkloadFaults {
            anomaly_prob: 0.65,
            working_set_multiplier: 8.0,
            loop_factor: 3,
            stuck_cpi: 8.0,
            stuck_ins_fraction: 1.5,
        }
    }

    /// Checks field sanity.
    ///
    /// # Errors
    ///
    /// Returns [`RbvError::Config`] naming the first out-of-range field.
    pub fn validate(&self) -> Result<(), RbvError> {
        if !(self.anomaly_prob.is_finite() && (0.0..=1.0).contains(&self.anomaly_prob)) {
            return Err(RbvError::Config(format!(
                "anomaly_prob {} must be in [0, 1]",
                self.anomaly_prob
            )));
        }
        if !(self.working_set_multiplier.is_finite() && self.working_set_multiplier >= 1.0) {
            return Err(RbvError::Config(format!(
                "working_set_multiplier {} must be at least 1",
                self.working_set_multiplier
            )));
        }
        if self.loop_factor < 2 {
            return Err(RbvError::Config(format!(
                "loop_factor {} must be at least 2 to change behavior",
                self.loop_factor
            )));
        }
        if !(self.stuck_cpi.is_finite() && self.stuck_cpi > 0.0) {
            return Err(RbvError::Config(format!(
                "stuck_cpi {} must be positive",
                self.stuck_cpi
            )));
        }
        if !(self.stuck_ins_fraction.is_finite() && self.stuck_ins_fraction > 0.0) {
            return Err(RbvError::Config(format!(
                "stuck_ins_fraction {} must be positive",
                self.stuck_ins_fraction
            )));
        }
        Ok(())
    }
}

/// A deterministic workload-fault schedule for one run, applied by
/// wrapping the request factory in a [`crate::FaultyFactory`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the fault schedule (independent of the engine seed).
    pub seed: u64,
    /// Workload-level faults; `None` leaves the request stream untouched.
    pub workload: Option<WorkloadFaults>,
}

impl FaultPlan {
    /// The empty plan: nothing injected. Runs under this plan are
    /// bit-identical to runs without any plan at all.
    pub fn none(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            workload: None,
        }
    }

    /// Checks the workload channel.
    ///
    /// # Errors
    ///
    /// Returns [`RbvError::Config`] when the workload channel is invalid.
    pub fn validate(&self) -> Result<(), RbvError> {
        if let Some(wf) = &self.workload {
            wf.validate()?;
        }
        Ok(())
    }

    /// The workload fault assigned to the `index`-th emitted request, if
    /// any. Stateless: any caller asking about any index gets the same
    /// answer in any order.
    pub fn workload_fault_for(&self, index: usize) -> Option<WorkloadFaultKind> {
        let wf = self.workload.as_ref()?;
        if wf.anomaly_prob <= 0.0 {
            return None;
        }
        let h = mix(self.seed, index as u64);
        if unit(h) >= wf.anomaly_prob {
            return None;
        }
        let kind = WorkloadFaultKind::ALL[(mix64(h) % 3) as usize];
        Some(kind)
    }
}

/// Hash of one `(seed, index)` cell of the schedule.
pub(crate) fn mix(seed: u64, index: u64) -> u64 {
    mix64(seed ^ mix64(index.wrapping_add(0x5151_5151)))
}

/// Maps a hash to `[0, 1)` with 53 bits of precision.
pub(crate) fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_assigns_faults() {
        let plan = FaultPlan::none(7);
        assert!(plan.validate().is_ok());
        assert!((0..10_000).all(|i| plan.workload_fault_for(i).is_none()));
    }

    #[test]
    fn assignment_is_stateless_and_deterministic() {
        let plan = FaultPlan {
            workload: Some(WorkloadFaults::storm()),
            ..FaultPlan::none(42)
        };
        let forward: Vec<_> = (0..500).map(|i| plan.workload_fault_for(i)).collect();
        let mut backward: Vec<_> = (0..500).rev().map(|i| plan.workload_fault_for(i)).collect();
        backward.reverse();
        assert_eq!(forward, backward);
    }

    #[test]
    fn rate_tracks_anomaly_prob() {
        let plan = FaultPlan {
            workload: Some(WorkloadFaults::storm()),
            ..FaultPlan::none(3)
        };
        let hits = (0..10_000)
            .filter(|&i| plan.workload_fault_for(i).is_some())
            .count();
        // 12% ± generous sampling slack.
        assert!((800..1_600).contains(&hits), "{hits}");
    }

    #[test]
    fn all_kinds_occur() {
        let plan = FaultPlan {
            workload: Some(WorkloadFaults::storm()),
            ..FaultPlan::none(11)
        };
        let mut seen = std::collections::HashSet::new();
        for i in 0..2_000 {
            if let Some(k) = plan.workload_fault_for(i) {
                seen.insert(k);
            }
        }
        assert_eq!(seen.len(), WorkloadFaultKind::ALL.len());
    }

    #[test]
    fn distinct_seeds_give_distinct_schedules() {
        let a = FaultPlan {
            workload: Some(WorkloadFaults::storm()),
            ..FaultPlan::none(1)
        };
        let b = FaultPlan {
            workload: Some(WorkloadFaults::storm()),
            ..FaultPlan::none(2)
        };
        let sa: Vec<_> = (0..200).map(|i| a.workload_fault_for(i)).collect();
        let sb: Vec<_> = (0..200).map(|i| b.workload_fault_for(i)).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn bad_channels_are_rejected() {
        let mut wf = WorkloadFaults::storm();
        wf.anomaly_prob = 1.5;
        assert!(wf.validate().is_err());

        let mut wf = WorkloadFaults::storm();
        wf.loop_factor = 1;
        assert!(wf.validate().is_err());

        let mut wf = WorkloadFaults::storm();
        wf.working_set_multiplier = 0.5;
        assert!(wf.validate().is_err());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(
            WorkloadFaultKind::InflatedWorkingSet.label(),
            "inflated-working-set"
        );
        assert_eq!(
            WorkloadFaultKind::RunawaySegmentLoop.label(),
            "runaway-segment-loop"
        );
        assert_eq!(WorkloadFaultKind::StuckSyscall.label(), "stuck-syscall");
    }
}
