//! Observer-effect cost accountant (§3.4, "do no harm").
//!
//! The paper's measurement infrastructure promises to stay within a fixed
//! fraction of the machine: sampling must not consume more than about one
//! percent of the cycles the workload itself uses. This module turns a
//! run's per-mode sample counts into that ledger line: each sampling hook
//! ([`SampleMode`]) is priced at its Table 1 context cost, summed, and
//! compared against the budget to report the remaining slack.
//!
//! The accountant prices samples at the Mbench-Spin floor
//! ([`spin_baseline`]), matching the engine's "do no harm" compensation,
//! which subtracts exactly that minimum from the counter stream. The
//! reported overhead is therefore the *guaranteed* cost — cache pollution
//! can only add to it, and that surplus is already visible in the
//! workload's own counters.

use crate::observer::{spin_baseline, SampleMode};
use crate::result::RunStats;
use rbv_telemetry::Json;

/// "Do no harm" budget: sampling may spend at most this fraction of the
/// workload's busy cycles (§3.4). The same budget the guard's sampling
/// governor enforces per accounting window.
pub const DO_NO_HARM_BUDGET: f64 = rbv_guard::governor::BUDGET_FRAC;

/// The priced cost of one sampling mode over a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModeCost {
    /// Which sampling hook.
    pub mode: SampleMode,
    /// Samples the hook took.
    pub samples: u64,
    /// Per-sample price in cycles (the mode's Table 1 context floor).
    pub cycles_per_sample: f64,
    /// Total simulated cycles attributed to the mode.
    pub cycles: f64,
    /// Total instructions the mode's handler retired.
    pub instructions: f64,
}

/// Per-run observer-effect accounting: what measurement cost, mode by
/// mode, against the "do no harm" budget.
#[derive(Debug, Clone, PartialEq)]
pub struct ObserverReport {
    /// Cost per sampling mode, in [`SampleMode::ALL`] order.
    pub per_mode: [ModeCost; 4],
    /// Total cycles attributed to sampling.
    pub total_cycles: f64,
    /// The workload's busy cycles (the budget denominator).
    pub busy_cycles: f64,
    /// The budget fraction the report was judged against
    /// ([`DO_NO_HARM_BUDGET`]).
    pub budget_frac: f64,
}

impl ObserverReport {
    /// Prices a run's per-mode sample counts into an observer report.
    pub fn account(stats: &RunStats) -> ObserverReport {
        let per_mode = SampleMode::ALL.map(|mode| {
            let cost = spin_baseline(mode.context());
            let samples = stats.samples_by_mode[mode.index()];
            ModeCost {
                mode,
                samples,
                cycles_per_sample: cost.cycles,
                cycles: samples as f64 * cost.cycles,
                instructions: samples as f64 * cost.instructions,
            }
        });
        ObserverReport {
            per_mode,
            total_cycles: per_mode.iter().map(|m| m.cycles).sum(),
            busy_cycles: stats.busy_cycles,
            budget_frac: DO_NO_HARM_BUDGET,
        }
    }

    /// Measured overhead as a fraction of busy cycles (0 when the run did
    /// no work).
    pub fn overhead_frac(&self) -> f64 {
        if self.busy_cycles > 0.0 {
            self.total_cycles / self.busy_cycles
        } else {
            0.0
        }
    }

    /// Remaining budget: `budget - measured` (negative when over).
    pub fn slack_frac(&self) -> f64 {
        self.budget_frac - self.overhead_frac()
    }

    /// Whether measurement stayed within the "do no harm" budget.
    pub fn within_budget(&self) -> bool {
        self.overhead_frac() <= self.budget_frac
    }

    /// Serializes the report for the run ledger: per-mode breakdown plus
    /// the budget verdict.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "per_mode".into(),
                Json::Obj(
                    self.per_mode
                        .iter()
                        .map(|m| {
                            (
                                m.mode.label().to_string(),
                                Json::Obj(vec![
                                    ("samples".into(), Json::Num(m.samples as f64)),
                                    ("cycles_per_sample".into(), Json::Num(m.cycles_per_sample)),
                                    ("cycles".into(), Json::Num(m.cycles)),
                                    ("instructions".into(), Json::Num(m.instructions)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            ("total_cycles".into(), Json::Num(self.total_cycles)),
            ("busy_cycles".into(), Json::Num(self.busy_cycles)),
            ("overhead_frac".into(), Json::Num(self.overhead_frac())),
            ("budget_frac".into(), Json::Num(self.budget_frac)),
            ("slack_frac".into(), Json::Num(self.slack_frac())),
            ("within_budget".into(), Json::Bool(self.within_budget())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::SamplingContext;

    fn stats_with(modes: [u64; 4], busy: f64) -> RunStats {
        let mut s = RunStats {
            busy_cycles: busy,
            samples_by_mode: modes,
            ..RunStats::default()
        };
        s.samples_inkernel = modes[0] + modes[1];
        s.samples_interrupt = modes[2] + modes[3];
        s
    }

    #[test]
    fn account_prices_each_mode_at_its_context() {
        let stats = stats_with([10, 5, 3, 2], 1e9);
        let report = ObserverReport::account(&stats);
        let ik = spin_baseline(SamplingContext::InKernel).cycles;
        let ir = spin_baseline(SamplingContext::Interrupt).cycles;
        assert_eq!(report.per_mode[0].cycles, 10.0 * ik);
        assert_eq!(report.per_mode[1].cycles, 5.0 * ik);
        assert_eq!(report.per_mode[2].cycles, 3.0 * ir);
        assert_eq!(report.per_mode[3].cycles, 2.0 * ir);
        assert!((report.total_cycles - (15.0 * ik + 5.0 * ir)).abs() < 1e-6);
        // Consistent with the aggregate pricing on RunStats (up to float
        // summation order).
        assert!((report.total_cycles - stats.sampling_overhead_cycles()).abs() < 1e-6);
    }

    #[test]
    fn budget_verdict_flips_when_overhead_exceeds_one_percent() {
        let ik = spin_baseline(SamplingContext::InKernel).cycles;
        // 100 in-kernel samples against plenty of work: inside budget.
        let ok = ObserverReport::account(&stats_with([100, 0, 0, 0], 100.0 * ik / 0.001));
        assert!(ok.within_budget());
        assert!(ok.slack_frac() > 0.0);
        // The same samples against barely any work: over budget.
        let over = ObserverReport::account(&stats_with([100, 0, 0, 0], 100.0 * ik / 0.05));
        assert!(!over.within_budget());
        assert!(over.slack_frac() < 0.0);
    }

    #[test]
    fn idle_run_has_zero_overhead() {
        let report = ObserverReport::account(&stats_with([0, 0, 0, 0], 0.0));
        assert_eq!(report.overhead_frac(), 0.0);
        assert!(report.within_budget());
    }

    #[test]
    fn json_reports_every_mode_by_label() {
        let report = ObserverReport::account(&stats_with([1, 2, 3, 4], 1e9));
        let json = report.to_json();
        let per_mode = json.get("per_mode").expect("per_mode member");
        for mode in SampleMode::ALL {
            let entry = per_mode.get(mode.label()).expect("mode entry");
            let samples = entry.get("samples").and_then(Json::as_f64).unwrap();
            assert_eq!(samples, (mode.index() + 1) as f64);
        }
        assert_eq!(
            json.get("within_budget"),
            Some(&Json::Bool(report.within_budget()))
        );
    }
}
