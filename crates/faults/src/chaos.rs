//! The chaos matrix: one run per fault level plus the easing fault
//! storm, folded into a single [`ChaosReport`] for `repro chaos <app>`.
//!
//! Four scenarios, all deterministic in `(app, seed)`:
//!
//! 1. **Anomaly injection** — a workload-fault storm over a clean
//!    engine; the §4.3 detector is scored precision/recall against the
//!    injected ground truth.
//! 2. **Degradation** — a measurement-fault storm over syscall-triggered
//!    sampling; the engine must degrade to the backup interrupt timer
//!    and flag low-confidence samples while every request still
//!    completes.
//! 3. **Overload** — open-loop arrivals at twice the measured service
//!    capacity against bounded runqueues, deadlines, and client retry;
//!    every offered request is accounted for as completed or failed.
//! 4. **Easing storm** — the contention-easing scheduler with its
//!    prediction-confidence gate under the same measurement storm,
//!    compared against stock scheduling at p99 request CPI.

use std::io::{self, Write};

use rbv_os::{
    run_simulation, LadderRung, MeasurementFaults, RbvError, RunResult, SchedulerPolicy, SimConfig,
    DO_NO_HARM_BUDGET,
};
use rbv_sim::Cycles;
use rbv_telemetry::Json;
use rbv_workloads::{factory_for, AppId};

use crate::detect::{detect_anomalies, score, DetectorConfig, PrecisionRecall};
use crate::inject::FaultyFactory;
use crate::plan::{FaultPlan, WorkloadFaultKind, WorkloadFaults};

/// Outcome of the anomaly-injection scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct AnomalyOutcome {
    /// Injected anomalies that completed (the scoring ground truth).
    pub injected: usize,
    /// Injected count per fault kind, aligned with
    /// [`WorkloadFaultKind::ALL`].
    pub injected_by_kind: [usize; 3],
    /// Requests the detector flagged.
    pub flagged: usize,
    /// Detection quality.
    pub score: PrecisionRecall,
}

/// Outcome of the measurement-degradation scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradationOutcome {
    /// Requests that completed despite the storm.
    pub completed: usize,
    /// Samples taken in syscall/context-switch contexts.
    pub samples_inkernel: u64,
    /// Samples the (backup) interrupt path collected.
    pub samples_interrupt: u64,
    /// Sampling interrupts lost to injected faults.
    pub samples_lost: u64,
    /// Samples flagged low-confidence instead of corrupting series.
    pub low_confidence: u64,
    /// Counter overflows detected and zeroed.
    pub counter_overflows: u64,
    /// Syscall-sampling starvation windows the backup timer covered.
    pub starvation_windows: u64,
}

/// Outcome of the overload scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadOutcome {
    /// Requests offered to the system.
    pub offered: usize,
    /// Requests that completed.
    pub completed: usize,
    /// Requests shed or aborted.
    pub failed: usize,
    /// Admission-control bounces (one request may bounce repeatedly).
    pub admission_rejections: u64,
    /// Client retries scheduled with backoff + jitter.
    pub admission_retries: u64,
    /// Requests shed for good after exhausting retries.
    pub load_shed: u64,
    /// Requests aborted at their deadline.
    pub deadline_aborts: u64,
    /// 99th-percentile latency of the completed requests, microseconds.
    pub p99_latency_micros: f64,
}

/// Outcome of the easing-under-fault-storm comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EasingStormOutcome {
    /// p99 request CPI under the stock scheduler.
    pub stock_p99_cpi: f64,
    /// p99 request CPI under gated contention easing, same storm.
    pub eased_p99_cpi: f64,
    /// Scheduling decisions the confidence gate sent back to stock.
    pub gate_fallbacks: u64,
}

/// Outcome of the governed-storm scenario: the adaptive sampling
/// governor, health ladder, and invariant monitor riding the same
/// measurement storm as scenario 4.
#[derive(Debug, Clone, PartialEq)]
pub struct GovernorOutcome {
    /// Requests that completed under the governed storm.
    pub completed: usize,
    /// Accounting windows the governor closed.
    pub windows: u64,
    /// Multiplicative interval backoffs applied.
    pub backoffs: u64,
    /// Additive interval recoveries applied.
    pub recoveries: u64,
    /// Windows whose compensated observer overhead breached the budget.
    pub budget_breaches: u64,
    /// Longest run of consecutive over-budget windows (do-no-harm allows
    /// at most one: the AIMD correction lag).
    pub max_breach_streak: u64,
    /// Sampling-interval scale at run end (1 = configured baseline).
    pub final_scale: f64,
    /// Cumulative priced observer overhead across governed windows as a
    /// fraction of busy cycles.
    pub overhead_frac: f64,
    /// One-window slack: the costliest single window's sampling cycles
    /// as a fraction of all busy cycles (the overshoot allowance the
    /// AIMD correction lag is permitted).
    pub slack_frac: f64,
    /// The do-no-harm budget the governor enforced.
    pub budget_frac: f64,
    /// Measurement-health ladder transitions taken.
    pub health_transitions: u64,
    /// Ladder rung at run end ("easing" / "frozen_predictions" /
    /// "stock").
    pub final_rung: String,
    /// Runtime invariant checks performed.
    pub invariant_checks: u64,
    /// Runtime invariant violations (must be zero on a healthy engine).
    pub invariant_violations: u64,
    /// p99 request CPI under the stock scheduler, same storm.
    pub stock_p99_cpi: f64,
    /// p99 request CPI under governed contention easing, same storm.
    pub governed_p99_cpi: f64,
}

/// Outcome of the retry-storm scenario (opt-in via `repro chaos
/// --retry-storm`): sustained open-loop overdrive with impatient
/// clients, run twice — once with the overload defenses (admission,
/// CoDel shedding, guard ladder) armed and once with them ablated — so
/// the metastable retry amplification and the goodput the defenses
/// preserve are both on the record.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryStormOutcome {
    /// Requests offered to each contender.
    pub offered: usize,
    /// Completions with the defenses armed.
    pub defended_completed: u64,
    /// Completions with admission and shedding ablated.
    pub undefended_completed: u64,
    /// Client timeout firings in the undefended storm.
    pub undefended_timeouts: u64,
    /// Client resubmissions in the undefended storm.
    pub undefended_retries: u64,
    /// Service cycles the undefended storm burned on attempts that were
    /// later abandoned.
    pub undefended_wasted_cycles: f64,
    /// Wasted cycles with the defenses armed (should be far smaller).
    pub defended_wasted_cycles: f64,
    /// Requests the armed defenses turned away (admission + CoDel +
    /// brownout).
    pub defended_shed: u64,
    /// Brownout-rung rejections among the defended sheds.
    pub brownout_rejections: u64,
    /// Health-ladder transitions the defended run took.
    pub health_transitions: u64,
    /// Defended run's final ladder rung; must not be an overload rung.
    pub final_rung: String,
    /// Whether the defended ladder ended at or above normal operation.
    pub recovered: bool,
}

impl RetryStormOutcome {
    /// Fraction of offered requests the defended run completed.
    pub fn defended_goodput(&self) -> f64 {
        self.defended_completed as f64 / self.offered as f64
    }

    /// Fraction of offered requests the undefended run completed.
    pub fn undefended_goodput(&self) -> f64 {
        self.undefended_completed as f64 / self.offered as f64
    }

    /// Serializes the retry-storm outcome (the `retry_storm` member of
    /// the chaos report).
    pub fn to_json(&self) -> Json {
        let num = Json::Num;
        Json::Obj(vec![
            ("offered".into(), num(self.offered as f64)),
            (
                "defended_completed".into(),
                num(self.defended_completed as f64),
            ),
            (
                "undefended_completed".into(),
                num(self.undefended_completed as f64),
            ),
            ("defended_goodput".into(), num(self.defended_goodput())),
            ("undefended_goodput".into(), num(self.undefended_goodput())),
            (
                "undefended_timeouts".into(),
                num(self.undefended_timeouts as f64),
            ),
            (
                "undefended_retries".into(),
                num(self.undefended_retries as f64),
            ),
            (
                "undefended_wasted_cycles".into(),
                num(self.undefended_wasted_cycles),
            ),
            (
                "defended_wasted_cycles".into(),
                num(self.defended_wasted_cycles),
            ),
            ("defended_shed".into(), num(self.defended_shed as f64)),
            (
                "brownout_rejections".into(),
                num(self.brownout_rejections as f64),
            ),
            (
                "health_transitions".into(),
                num(self.health_transitions as f64),
            ),
            ("final_rung".into(), Json::str(self.final_rung.clone())),
            ("recovered".into(), Json::Bool(self.recovered)),
        ])
    }
}

/// Outcome of the thermal-storm scenario (opt-in via `repro chaos
/// --thermal`): sub-capacity open-loop serving under a permanent
/// heatwave with a cooling-failure victim core, run twice — once with
/// the guard's power-capping rungs armed and once with only the
/// firmware throttle latch to fall back on — so the goodput and tail
/// latency the proactive cap preserves are both on the record.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalOutcome {
    /// Requests offered to each contender.
    pub offered: usize,
    /// Completions with the power-capping defense armed.
    pub defended_completed: u64,
    /// Completions with the defense ablated (firmware latch only).
    pub undefended_completed: u64,
    /// p99 client latency with the defense armed, microseconds.
    pub defended_p99_latency_micros: f64,
    /// p99 client latency with the defense ablated, microseconds.
    pub undefended_p99_latency_micros: f64,
    /// Firmware throttle latches the defended run suffered.
    pub defended_throttle_engages: u64,
    /// Firmware throttle latches the ablated run suffered.
    pub undefended_throttle_engages: u64,
    /// Power-ladder rung transitions the defended guard took.
    pub power_rung_transitions: u64,
    /// Defended run's power rung at run end ("nominal" / "freq_cap" /
    /// "core_park").
    pub power_final_rung: String,
    /// Defended run's health-ladder rung at run end.
    pub final_rung: String,
    /// Whether the defended health ladder ended at or above normal
    /// operation.
    pub recovered: bool,
    /// Joules the defended run burned.
    pub defended_joules: f64,
    /// Joules the ablated run burned.
    pub undefended_joules: f64,
}

impl ThermalOutcome {
    /// Fraction of offered requests the defended run completed.
    pub fn defended_goodput(&self) -> f64 {
        self.defended_completed as f64 / self.offered as f64
    }

    /// Fraction of offered requests the ablated run completed.
    pub fn undefended_goodput(&self) -> f64 {
        self.undefended_completed as f64 / self.offered as f64
    }

    /// Serializes the thermal outcome (the `thermal` member of the
    /// chaos report).
    pub fn to_json(&self) -> Json {
        let num = Json::Num;
        Json::Obj(vec![
            ("offered".into(), num(self.offered as f64)),
            (
                "defended_completed".into(),
                num(self.defended_completed as f64),
            ),
            (
                "undefended_completed".into(),
                num(self.undefended_completed as f64),
            ),
            ("defended_goodput".into(), num(self.defended_goodput())),
            ("undefended_goodput".into(), num(self.undefended_goodput())),
            (
                "defended_p99_latency_micros".into(),
                num(self.defended_p99_latency_micros),
            ),
            (
                "undefended_p99_latency_micros".into(),
                num(self.undefended_p99_latency_micros),
            ),
            (
                "defended_throttle_engages".into(),
                num(self.defended_throttle_engages as f64),
            ),
            (
                "undefended_throttle_engages".into(),
                num(self.undefended_throttle_engages as f64),
            ),
            (
                "power_rung_transitions".into(),
                num(self.power_rung_transitions as f64),
            ),
            (
                "power_final_rung".into(),
                Json::str(self.power_final_rung.clone()),
            ),
            ("final_rung".into(), Json::str(self.final_rung.clone())),
            ("recovered".into(), Json::Bool(self.recovered)),
            ("defended_joules".into(), num(self.defended_joules)),
            ("undefended_joules".into(), num(self.undefended_joules)),
        ])
    }
}

impl GovernorOutcome {
    /// Serializes the governed-storm outcome (the `governor` member of
    /// the chaos report and the run ledger's guard section).
    pub fn to_json(&self) -> Json {
        let num = Json::Num;
        Json::Obj(vec![
            ("completed".into(), num(self.completed as f64)),
            ("windows".into(), num(self.windows as f64)),
            ("backoffs".into(), num(self.backoffs as f64)),
            ("recoveries".into(), num(self.recoveries as f64)),
            ("budget_breaches".into(), num(self.budget_breaches as f64)),
            (
                "max_breach_streak".into(),
                num(self.max_breach_streak as f64),
            ),
            ("final_scale".into(), num(self.final_scale)),
            ("overhead_frac".into(), num(self.overhead_frac)),
            ("slack_frac".into(), num(self.slack_frac)),
            ("budget_frac".into(), num(self.budget_frac)),
            (
                "health_transitions".into(),
                num(self.health_transitions as f64),
            ),
            ("final_rung".into(), Json::str(self.final_rung.clone())),
            ("invariant_checks".into(), num(self.invariant_checks as f64)),
            (
                "invariant_violations".into(),
                num(self.invariant_violations as f64),
            ),
            ("stock_p99_cpi".into(), num(self.stock_p99_cpi)),
            ("governed_p99_cpi".into(), num(self.governed_p99_cpi)),
        ])
    }
}

/// Everything `repro chaos <app>` reports.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// Application under test.
    pub app: AppId,
    /// Seed of the whole matrix.
    pub seed: u64,
    /// Scenario 1.
    pub anomaly: AnomalyOutcome,
    /// Scenario 2.
    pub degradation: DegradationOutcome,
    /// Scenario 3.
    pub overload: OverloadOutcome,
    /// Scenario 4.
    pub easing: EasingStormOutcome,
    /// Scenario 5 (opt-in via `repro chaos --governor`): the sampling
    /// governor under the storm.
    pub governor: Option<GovernorOutcome>,
    /// Scenario 6 (opt-in via `repro chaos --retry-storm`): metastable
    /// retry amplification, defended vs ablated.
    pub retry_storm: Option<RetryStormOutcome>,
    /// Scenario 7 (opt-in via `repro chaos --thermal`): serving through
    /// a thermal-fault storm, power-capping defense vs firmware-only
    /// ablation.
    pub thermal: Option<ThermalOutcome>,
}

impl ChaosReport {
    /// Serializes the whole matrix outcome as a self-describing JSON
    /// object — the shape `repro chaos --json` prints and the run ledger
    /// embeds per app.
    pub fn to_json(&self) -> Json {
        let num = Json::Num;
        let a = &self.anomaly;
        let d = &self.degradation;
        let o = &self.overload;
        let e = &self.easing;
        Json::Obj(
            vec![
                ("app".into(), Json::str(self.app.to_string())),
                ("seed".into(), num(self.seed as f64)),
                (
                    "anomaly".into(),
                    Json::Obj(vec![
                        ("injected".into(), num(a.injected as f64)),
                        (
                            "injected_by_kind".into(),
                            Json::Obj(
                                WorkloadFaultKind::ALL
                                    .iter()
                                    .enumerate()
                                    .map(|(slot, kind)| {
                                        (
                                            kind.label().to_string(),
                                            num(a.injected_by_kind[slot] as f64),
                                        )
                                    })
                                    .collect(),
                            ),
                        ),
                        ("flagged".into(), num(a.flagged as f64)),
                        ("precision".into(), num(a.score.precision())),
                        ("recall".into(), num(a.score.recall())),
                    ]),
                ),
                (
                    "degradation".into(),
                    Json::Obj(vec![
                        ("completed".into(), num(d.completed as f64)),
                        ("samples_inkernel".into(), num(d.samples_inkernel as f64)),
                        ("samples_interrupt".into(), num(d.samples_interrupt as f64)),
                        ("samples_lost".into(), num(d.samples_lost as f64)),
                        ("low_confidence".into(), num(d.low_confidence as f64)),
                        ("counter_overflows".into(), num(d.counter_overflows as f64)),
                        (
                            "starvation_windows".into(),
                            num(d.starvation_windows as f64),
                        ),
                    ]),
                ),
                (
                    "overload".into(),
                    Json::Obj(vec![
                        ("offered".into(), num(o.offered as f64)),
                        ("completed".into(), num(o.completed as f64)),
                        ("failed".into(), num(o.failed as f64)),
                        (
                            "admission_rejections".into(),
                            num(o.admission_rejections as f64),
                        ),
                        ("admission_retries".into(), num(o.admission_retries as f64)),
                        ("load_shed".into(), num(o.load_shed as f64)),
                        ("deadline_aborts".into(), num(o.deadline_aborts as f64)),
                        ("p99_latency_micros".into(), num(o.p99_latency_micros)),
                    ]),
                ),
                (
                    "easing".into(),
                    Json::Obj(vec![
                        ("stock_p99_cpi".into(), num(e.stock_p99_cpi)),
                        ("eased_p99_cpi".into(), num(e.eased_p99_cpi)),
                        ("gate_fallbacks".into(), num(e.gate_fallbacks as f64)),
                    ]),
                ),
            ]
            .into_iter()
            .chain(
                self.governor
                    .as_ref()
                    .map(|g| ("governor".into(), g.to_json())),
            )
            .chain(
                self.retry_storm
                    .as_ref()
                    .map(|s| ("retry_storm".into(), s.to_json())),
            )
            .chain(
                self.thermal
                    .as_ref()
                    .map(|t| ("thermal".into(), t.to_json())),
            )
            .collect(),
        )
    }
}

/// Requests per scenario (the run ledger's standard run uses the same
/// sizes).
pub fn requests_of(app: AppId, fast: bool) -> usize {
    let full = match app {
        AppId::WebServer => 320,
        AppId::Tpcc => 240,
        AppId::Rubis => 200,
        AppId::Tpch => 120,
        AppId::Webwork | AppId::MbenchSpin | AppId::MbenchData => 60,
    };
    if fast {
        (full / 4).max(40)
    } else {
        full
    }
}

/// The measurement-fault storm shared by scenarios 2 and 4.
fn measurement_storm(app: AppId) -> MeasurementFaults {
    MeasurementFaults {
        lost_interrupt_prob: 0.25,
        counter_overflow_prob: 0.05,
        counter_skid_sigma: 0.05,
        syscall_starvation_prob: 0.3,
        syscall_starvation_window: Cycles::from_micros(app.sampling_period_micros() * 20),
    }
}

/// The standard interrupt-sampled config for `app`.
pub fn base_config(app: AppId, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::paper_default().with_interrupt_sampling(app.sampling_period_micros());
    cfg.seed = seed;
    cfg
}

/// Runs the full chaos matrix for `app` at `seed`.
///
/// # Errors
///
/// Propagates [`RbvError`] from configuration validation (none of the
/// built-in scenarios should trigger it; custom plans might).
pub fn run_matrix(app: AppId, seed: u64, fast: bool) -> Result<ChaosReport, RbvError> {
    run_matrix_with(app, seed, fast, false)
}

/// Runs the chaos matrix, optionally adding scenario 5: the adaptive
/// sampling governor (with health ladder and invariant monitor) under
/// the measurement storm.
///
/// # Errors
///
/// Propagates [`RbvError`] from configuration validation.
pub fn run_matrix_with(
    app: AppId,
    seed: u64,
    fast: bool,
    governor: bool,
) -> Result<ChaosReport, RbvError> {
    run_matrix_pooled(
        app,
        seed,
        fast,
        governor,
        false,
        false,
        &rbv_par::Pool::serial(),
    )
}

/// One scenario's outcome, tagged for ordered collection by
/// [`run_matrix_pooled`].
enum ScenarioResult {
    Anomaly(AnomalyOutcome),
    Degradation(DegradationOutcome),
    Overload(OverloadOutcome),
    Easing(EasingStormOutcome),
    Governor(GovernorOutcome),
    RetryStorm(RetryStormOutcome),
    Thermal(ThermalOutcome),
}

/// Runs the chaos matrix with its scenarios fanned over `pool`.
///
/// Every scenario is an independent simulation deterministic in
/// `(app, seed, fast)`, so distributing them over worker threads and
/// collecting in scenario order produces a report **bit-identical** to
/// the serial matrix at any thread count ([`rbv_par`]'s ordered-collect
/// contract). `run_matrix` / [`run_matrix_with`] are the serial-pool
/// special case.
///
/// # Errors
///
/// Propagates the first scenario's [`RbvError`] in scenario order
/// (deterministic regardless of which worker hit it first).
pub fn run_matrix_pooled(
    app: AppId,
    seed: u64,
    fast: bool,
    governor: bool,
    retry_storm: bool,
    thermal: bool,
    pool: &rbv_par::Pool,
) -> Result<ChaosReport, RbvError> {
    let n = requests_of(app, fast);
    let mut scenarios: Vec<u8> = vec![0, 1, 2, 3];
    if governor {
        scenarios.push(4);
    }
    if retry_storm {
        scenarios.push(5);
    }
    if thermal {
        scenarios.push(6);
    }
    let results = pool.ordered_map(&scenarios, |&which| match which {
        0 => scenario_anomaly(app, seed, n).map(ScenarioResult::Anomaly),
        1 => scenario_degradation(app, seed, n).map(ScenarioResult::Degradation),
        2 => scenario_overload(app, seed, n).map(ScenarioResult::Overload),
        3 => easing_storm(app, seed, n).map(ScenarioResult::Easing),
        4 => governor_storm(app, seed, n).map(ScenarioResult::Governor),
        5 => scenario_retry_storm(app, seed).map(ScenarioResult::RetryStorm),
        _ => scenario_thermal(app, seed).map(ScenarioResult::Thermal),
    });
    let mut anomaly = None;
    let mut degradation = None;
    let mut overload = None;
    let mut easing = None;
    let mut governor_outcome = None;
    let mut storm_outcome = None;
    let mut thermal_outcome = None;
    for result in results {
        match result? {
            ScenarioResult::Anomaly(o) => anomaly = Some(o),
            ScenarioResult::Degradation(o) => degradation = Some(o),
            ScenarioResult::Overload(o) => overload = Some(o),
            ScenarioResult::Easing(o) => easing = Some(o),
            ScenarioResult::Governor(o) => governor_outcome = Some(o),
            ScenarioResult::RetryStorm(o) => storm_outcome = Some(o),
            ScenarioResult::Thermal(o) => thermal_outcome = Some(o),
        }
    }
    Ok(ChaosReport {
        app,
        seed,
        anomaly: anomaly.unwrap_or_else(|| unreachable!("scenario 1 always runs")),
        degradation: degradation.unwrap_or_else(|| unreachable!("scenario 2 always runs")),
        overload: overload.unwrap_or_else(|| unreachable!("scenario 3 always runs")),
        easing: easing.unwrap_or_else(|| unreachable!("scenario 4 always runs")),
        governor: governor_outcome,
        retry_storm: storm_outcome,
        thermal: thermal_outcome,
    })
}

/// Scenario 1: anomaly injection and detection.
fn scenario_anomaly(app: AppId, seed: u64, n: usize) -> Result<AnomalyOutcome, RbvError> {
    let plan = FaultPlan {
        workload: Some(WorkloadFaults::storm()),
        ..FaultPlan::none(seed)
    };
    plan.validate()?;
    let mut factory = FaultyFactory::new(factory_for(app, seed, app.harness_scale()), plan);
    let result = run_simulation(base_config(app, seed), &mut factory, n)?;
    let completed_ids: std::collections::BTreeSet<usize> =
        result.completed.iter().map(|r| r.id).collect();
    let mut injected_by_kind = [0usize; 3];
    let truth: Vec<usize> = factory
        .injected()
        .iter()
        .filter(|f| completed_ids.contains(&f.index))
        .map(|f| {
            let slot = WorkloadFaultKind::ALL
                .iter()
                .position(|&k| k == f.kind)
                .unwrap_or_else(|| unreachable!("every kind is in ALL"));
            injected_by_kind[slot] += 1;
            f.index
        })
        .collect();
    let flagged = detect_anomalies(&result.completed, &DetectorConfig::default());
    Ok(AnomalyOutcome {
        injected: truth.len(),
        injected_by_kind,
        flagged: flagged.len(),
        score: score(&flagged, &truth),
    })
}

/// Scenario 2: measurement storm over syscall-triggered sampling.
fn scenario_degradation(app: AppId, seed: u64, n: usize) -> Result<DegradationOutcome, RbvError> {
    let period = app.sampling_period_micros();
    let mut cfg = base_config(app, seed ^ 0xDE6).with_syscall_sampling(period / 2, period * 5);
    cfg.faults = measurement_storm(app);
    let mut factory = factory_for(app, seed ^ 0xDE6, app.harness_scale());
    let r = run_simulation(cfg, factory.as_mut(), n / 2)?;
    Ok(DegradationOutcome {
        completed: r.completed.len(),
        samples_inkernel: r.stats.samples_inkernel,
        samples_interrupt: r.stats.samples_interrupt,
        samples_lost: r.stats.samples_lost,
        low_confidence: r.stats.samples_low_confidence,
        counter_overflows: r.stats.counter_overflows,
        starvation_windows: r.stats.starvation_windows,
    })
}

/// Scenario 3: open-loop overdrive against overload protection.
fn scenario_overload(app: AppId, seed: u64, n: usize) -> Result<OverloadOutcome, RbvError> {
    // The serve harness's probe salts its seed with `0x5EED_0B5E`;
    // cancelling that salt keeps the probe on this scenario's stream.
    let mean_service = rbv_openloop::probe_mean_service(app, seed ^ 0x9B0E ^ 0x5EED_0B5E)?;
    // Poisson arrivals at twice capacity against admission control only.
    let mut spec = rbv_openloop::ServeSpec::new(app, n, seed);
    spec.overload = 2.0;
    spec.shed = false;
    spec.retries = false;
    let cfg = rbv_openloop::shard_config(&spec, mean_service, seed ^ 0x0F7);
    let mut factory = factory_for(app, seed ^ 0x0F7, app.harness_scale());
    let r = run_simulation(cfg, factory.as_mut(), n)?;
    Ok(OverloadOutcome {
        offered: r.completed.len() + r.failed.len(),
        completed: r.completed.len(),
        failed: r.failed.len(),
        admission_rejections: r.stats.admission_rejections,
        admission_retries: r.stats.admission_retries,
        load_shed: r.stats.load_shed,
        deadline_aborts: r.stats.deadline_aborts,
        p99_latency_micros: r.latency_sketch().p99().unwrap_or(0.0),
    })
}

/// Scenario 6: the metastable retry storm. Sustained 4x open-loop
/// overdrive with impatient retrying clients, served twice through the
/// `rbv-openloop` harness: once with admission control, CoDel shedding,
/// and the guard ladder armed, once with all three ablated (clients
/// still time out and retry). The defended run must preserve strictly
/// more goodput than the storm it prevents, and its ladder must end
/// back at a normal operating rung.
pub fn scenario_retry_storm(app: AppId, seed: u64) -> Result<RetryStormOutcome, RbvError> {
    // The storm needs a backlog deep enough to outlast client patience;
    // request counts below a few hundred drain before amplification
    // sets in, independent of `fast`.
    let offered = 400;
    let mut defended = rbv_openloop::ServeSpec::new(app, offered, seed ^ 0x5708);
    defended.overload = 4.0;
    defended.guard = true;
    let mut undefended = defended;
    undefended.admission = false;
    undefended.shed = false;
    undefended.guard = false;
    let pool = rbv_par::Pool::serial();
    let d = rbv_openloop::serve(&defended, &pool)?;
    let u = rbv_openloop::serve(&undefended, &pool)?;
    Ok(RetryStormOutcome {
        offered,
        defended_completed: d.completed,
        undefended_completed: u.completed,
        undefended_timeouts: u.client_timeouts,
        undefended_retries: u.client_retries,
        undefended_wasted_cycles: u.wasted_cycles,
        defended_wasted_cycles: d.wasted_cycles,
        defended_shed: d.shed_total(),
        brownout_rejections: d.failed_by_reason[4],
        health_transitions: d.health_transitions,
        final_rung: d.final_rung.label().to_string(),
        recovered: d.recovered(),
    })
}

/// Scenario 7: serving through a thermal-fault storm. A permanent
/// heatwave plus a cooling-failure victim core push every core toward
/// the firmware throttle cap while open-loop arrivals hold the machine
/// just below its *nominal* capacity. Served twice through
/// `rbv-openloop`: once with the guard's power-capping rungs armed
/// (proactive frequency cap at 0.7x keeps cores below the punitive
/// firmware latch) and once ablated, where the firmware latch clamps
/// cores to 0.4x with a release point the heatwave never lets them
/// reach — collapsing capacity below the offered load. The defense must
/// preserve strictly more goodput *and* a strictly better p99, and the
/// health ladder must end back at a normal operating rung.
pub fn scenario_thermal(app: AppId, seed: u64) -> Result<ThermalOutcome, RbvError> {
    // Load sits at ~55% of nominal capacity: comfortably served at the
    // defended 0.7x cap, unserviceable once the firmware latch drags
    // the ablated run to 0.4x. The count must outlast the thermal RC
    // transient (tau 5ms) by a wide margin.
    let offered = 1600;
    let mut defended = rbv_openloop::ServeSpec::new(app, offered, seed ^ 0x7e41);
    defended.overload = 0.55;
    defended.power = true;
    defended.thermal = true;
    defended.guard = true;
    let mut undefended = defended;
    undefended.guard = false;
    let pool = rbv_par::Pool::serial();
    let d = rbv_openloop::serve(&defended, &pool)?;
    let u = rbv_openloop::serve(&undefended, &pool)?;
    let missing = || RbvError::Config("powered serve reported no energy ledger".into());
    let d_energy = d.energy.as_ref().ok_or_else(missing)?;
    let u_energy = u.energy.as_ref().ok_or_else(missing)?;
    Ok(ThermalOutcome {
        offered,
        defended_completed: d.completed,
        undefended_completed: u.completed,
        defended_p99_latency_micros: d.latency_us.p99().unwrap_or(f64::NAN),
        undefended_p99_latency_micros: u.latency_us.p99().unwrap_or(f64::NAN),
        defended_throttle_engages: d_energy.throttle_engages,
        undefended_throttle_engages: u_energy.throttle_engages,
        power_rung_transitions: d_energy.power_rung_transitions,
        power_final_rung: d_energy.power_rung_label().to_string(),
        final_rung: d.final_rung.label().to_string(),
        recovered: d.recovered(),
        defended_joules: d_energy.total_joules(),
        undefended_joules: u_energy.total_joules(),
    })
}

/// The per-application high-usage threshold shared by the easing and
/// governed storms, calibrated on a clean stock profiling run (§5.2).
fn storm_threshold(app: AppId, seed: u64, n: usize) -> Result<f64, RbvError> {
    let mut cfg = base_config(app, seed ^ 0xB0);
    cfg.concurrency = 12;
    let mut factory = factory_for(app, seed ^ 0xB0, app.harness_scale());
    let profile = run_simulation(cfg, factory.as_mut(), (n / 2).max(20))?;
    Ok(profile.easing_threshold())
}

/// Runs the stock-vs-gated-easing comparison under the measurement
/// storm; also used directly by the acceptance test.
pub fn easing_storm(app: AppId, seed: u64, n: usize) -> Result<EasingStormOutcome, RbvError> {
    let threshold = storm_threshold(app, seed, n)?;

    let storm_run = |easing: bool| -> Result<RunResult, RbvError> {
        let mut cfg = base_config(app, seed ^ 0x57);
        cfg.concurrency = 12;
        cfg.faults = measurement_storm(app);
        if easing {
            cfg.scheduler = SchedulerPolicy::ContentionEasing {
                high_usage_threshold: threshold,
            };
            cfg.easing_error_gate = true;
        }
        let mut factory = factory_for(app, seed ^ 0x57, app.harness_scale());
        run_simulation(cfg, factory.as_mut(), n)
    };
    let stock = storm_run(false)?;
    let eased = storm_run(true)?;
    Ok(EasingStormOutcome {
        stock_p99_cpi: stock.cpi_sketch().p99().unwrap_or(f64::NAN),
        eased_p99_cpi: eased.cpi_sketch().p99().unwrap_or(f64::NAN),
        gate_fallbacks: eased.stats.easing_gate_fallbacks,
    })
}

/// Runs the governed storm: contention easing under the measurement
/// storm with the adaptive sampling governor, measurement-health ladder
/// (superseding the one-shot confidence gate), and invariant monitor
/// enabled — compared against stock scheduling under the same storm.
/// Also used directly by the run ledger and the guard acceptance test.
///
/// # Errors
///
/// Propagates [`RbvError`] from configuration validation.
pub fn governor_storm(app: AppId, seed: u64, n: usize) -> Result<GovernorOutcome, RbvError> {
    let threshold = storm_threshold(app, seed, n)?;

    let storm_run = |governed: bool| -> Result<RunResult, RbvError> {
        let mut cfg = base_config(app, seed ^ 0x57);
        cfg.concurrency = 12;
        cfg.faults = measurement_storm(app);
        if governed {
            cfg.scheduler = SchedulerPolicy::ContentionEasing {
                high_usage_threshold: threshold,
            };
            // The ladder replaces the one-shot confidence gate.
            cfg.easing_error_gate = false;
            cfg.guard = true;
        }
        let mut factory = factory_for(app, seed ^ 0x57, app.harness_scale());
        run_simulation(cfg, factory.as_mut(), n)
    };
    let stock = storm_run(false)?;
    let governed = storm_run(true)?;
    let stats = &governed.stats;
    Ok(GovernorOutcome {
        completed: governed.completed.len(),
        windows: stats.governor_windows,
        backoffs: stats.governor_backoffs,
        recoveries: stats.governor_recoveries,
        budget_breaches: stats.governor_budget_breaches,
        max_breach_streak: stats.governor_max_breach_streak,
        final_scale: stats.governor_final_scale,
        overhead_frac: stats.governor_overhead_frac,
        slack_frac: stats.governor_slack_frac,
        budget_frac: DO_NO_HARM_BUDGET,
        health_transitions: stats.health_transitions,
        final_rung: LadderRung::ALL[stats.health_final_rung as usize]
            .label()
            .to_string(),
        invariant_checks: stats.invariant_checks,
        invariant_violations: stats.invariant_violations.iter().sum(),
        stock_p99_cpi: stock.cpi_sketch().p99().unwrap_or(f64::NAN),
        governed_p99_cpi: governed.cpi_sketch().p99().unwrap_or(f64::NAN),
    })
}

/// Writes the human-readable chaos report.
pub fn summarize<W: Write>(report: &ChaosReport, out: &mut W) -> io::Result<()> {
    writeln!(out)?;
    writeln!(out, "==== chaos {} (seed {}) ====", report.app, report.seed)?;

    let a = &report.anomaly;
    writeln!(out)?;
    writeln!(out, "anomaly injection:")?;
    for (slot, kind) in WorkloadFaultKind::ALL.iter().enumerate() {
        writeln!(
            out,
            "  injected {:22} {}",
            kind.label(),
            a.injected_by_kind[slot]
        )?;
    }
    writeln!(out, "  injected total           {}", a.injected)?;
    writeln!(out, "  flagged                  {}", a.flagged)?;
    writeln!(out, "  precision                {:.3}", a.score.precision())?;
    writeln!(out, "  recall                   {:.3}", a.score.recall())?;

    let d = &report.degradation;
    writeln!(out)?;
    writeln!(out, "measurement-storm degradation:")?;
    writeln!(out, "  requests completed       {}", d.completed)?;
    writeln!(
        out,
        "  samples in-kernel/intr   {} / {}",
        d.samples_inkernel, d.samples_interrupt
    )?;
    writeln!(out, "  interrupts lost          {}", d.samples_lost)?;
    writeln!(out, "  low-confidence samples   {}", d.low_confidence)?;
    writeln!(out, "  counter overflows        {}", d.counter_overflows)?;
    writeln!(out, "  starvation windows       {}", d.starvation_windows)?;

    let o = &report.overload;
    writeln!(out)?;
    writeln!(out, "overload protection (2x overdrive):")?;
    writeln!(
        out,
        "  offered / completed / failed  {} / {} / {}",
        o.offered, o.completed, o.failed
    )?;
    writeln!(out, "  admission rejections     {}", o.admission_rejections)?;
    writeln!(out, "  admission retries        {}", o.admission_retries)?;
    writeln!(out, "  load shed                {}", o.load_shed)?;
    writeln!(out, "  deadline aborts          {}", o.deadline_aborts)?;
    writeln!(
        out,
        "  p99 latency (us)         {:.1}",
        o.p99_latency_micros
    )?;

    let e = &report.easing;
    writeln!(out)?;
    writeln!(out, "easing under fault storm:")?;
    writeln!(out, "  stock p99 CPI            {:.3}", e.stock_p99_cpi)?;
    writeln!(out, "  gated easing p99 CPI     {:.3}", e.eased_p99_cpi)?;
    writeln!(out, "  gate fallbacks           {}", e.gate_fallbacks)?;

    if let Some(g) = &report.governor {
        writeln!(out)?;
        writeln!(out, "sampling governor under storm:")?;
        writeln!(out, "  requests completed       {}", g.completed)?;
        writeln!(out, "  accounting windows       {}", g.windows)?;
        writeln!(
            out,
            "  backoffs / recoveries    {} / {}",
            g.backoffs, g.recoveries
        )?;
        writeln!(
            out,
            "  budget breaches          {} (max streak {})",
            g.budget_breaches, g.max_breach_streak
        )?;
        writeln!(
            out,
            "  overhead vs budget       {:.4} / {:.4} of busy cycles",
            g.overhead_frac, g.budget_frac
        )?;
        writeln!(out, "  final interval scale     {:.2}x", g.final_scale)?;
        writeln!(
            out,
            "  ladder transitions       {} (final rung {})",
            g.health_transitions, g.final_rung
        )?;
        writeln!(
            out,
            "  invariants checked       {} ({} violations)",
            g.invariant_checks, g.invariant_violations
        )?;
        writeln!(out, "  stock p99 CPI            {:.3}", g.stock_p99_cpi)?;
        writeln!(out, "  governed p99 CPI         {:.3}", g.governed_p99_cpi)?;
    }

    if let Some(s) = &report.retry_storm {
        writeln!(out)?;
        writeln!(out, "retry storm (4x overdrive, impatient clients):")?;
        writeln!(
            out,
            "  goodput defended/ablated {:.3} / {:.3}",
            s.defended_goodput(),
            s.undefended_goodput()
        )?;
        writeln!(
            out,
            "  storm timeouts/retries   {} / {}",
            s.undefended_timeouts, s.undefended_retries
        )?;
        writeln!(
            out,
            "  wasted cycles def/abl    {:.2e} / {:.2e}",
            s.defended_wasted_cycles, s.undefended_wasted_cycles
        )?;
        writeln!(
            out,
            "  defended shed (brownout) {} ({})",
            s.defended_shed, s.brownout_rejections
        )?;
        writeln!(
            out,
            "  ladder transitions       {} (final rung {})",
            s.health_transitions, s.final_rung
        )?;
        writeln!(
            out,
            "  recovered                {}",
            if s.recovered { "yes" } else { "NO" }
        )?;
    }

    if let Some(t) = &report.thermal {
        writeln!(out)?;
        writeln!(out, "thermal storm (heatwave + cooling failure):")?;
        writeln!(
            out,
            "  goodput defended/ablated {:.3} / {:.3}",
            t.defended_goodput(),
            t.undefended_goodput()
        )?;
        writeln!(
            out,
            "  p99 latency def/abl (us) {:.1} / {:.1}",
            t.defended_p99_latency_micros, t.undefended_p99_latency_micros
        )?;
        writeln!(
            out,
            "  throttle latches def/abl {} / {}",
            t.defended_throttle_engages, t.undefended_throttle_engages
        )?;
        writeln!(
            out,
            "  power rung transitions   {} (final rung {})",
            t.power_rung_transitions, t.power_final_rung
        )?;
        writeln!(
            out,
            "  joules defended/ablated  {:.2} / {:.2}",
            t.defended_joules, t.undefended_joules
        )?;
        writeln!(
            out,
            "  health ladder            final rung {}, recovered {}",
            t.final_rung,
            if t.recovered { "yes" } else { "NO" }
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_is_deterministic_and_accounts_for_every_request() {
        let a = run_matrix(AppId::WebServer, 7, true).expect("matrix runs");
        let b = run_matrix(AppId::WebServer, 7, true).expect("matrix runs");
        assert_eq!(a, b);
        assert_eq!(a.overload.offered, a.overload.completed + a.overload.failed);
        assert!(a.degradation.completed > 0);
        assert!(a.degradation.samples_lost > 0);
        assert!(a.degradation.low_confidence > 0);
        assert!(a.anomaly.injected > 0);
    }

    #[test]
    fn governor_storm_holds_do_no_harm_and_invariants() {
        let g = governor_storm(AppId::WebServer, 7, 60).expect("governed storm runs");
        assert_eq!(g.completed, 60);
        assert!(g.windows > 0, "governor closed no accounting window");
        assert!(
            g.max_breach_streak <= 1,
            "overhead exceeded budget beyond the one-window AIMD lag: streak {}",
            g.max_breach_streak
        );
        assert_eq!(g.invariant_violations, 0, "engine invariant violated");
        assert!(g.invariant_checks > 0);
        // The governed report serializes under the `governor` member.
        let json = g.to_json().to_string_compact();
        let parsed = Json::parse(&json).expect("valid json");
        assert_eq!(
            parsed.get("windows").and_then(Json::as_f64),
            Some(g.windows as f64)
        );
    }

    #[test]
    fn retry_storm_defenses_preserve_goodput_and_recover() {
        // The acceptance criteria of the retry-storm scenario, at the
        // exact seed the CI smoke step uses: the armed defenses keep
        // goodput strictly above the no-defense ablation, the ablation
        // actually storms, and the guard ladder does not stay on an
        // overload rung after the storm drains.
        let s = scenario_retry_storm(AppId::WebServer, 42).expect("storm runs");
        assert!(
            s.undefended_timeouts > 100 && s.undefended_retries > 100,
            "ablated run did not storm: {} timeouts, {} retries",
            s.undefended_timeouts,
            s.undefended_retries
        );
        assert!(
            s.defended_goodput() > s.undefended_goodput(),
            "defenses lost goodput: {:.3} <= {:.3}",
            s.defended_goodput(),
            s.undefended_goodput()
        );
        assert!(
            s.defended_wasted_cycles < s.undefended_wasted_cycles,
            "defenses wasted more cycles than the storm"
        );
        assert!(s.recovered, "ladder stuck on {}", s.final_rung);
        // Deterministic: the scenario is a pure function of (app, seed).
        let again = scenario_retry_storm(AppId::WebServer, 42).expect("storm runs");
        assert_eq!(s, again);
    }

    #[test]
    fn thermal_storm_defense_beats_ablation_on_goodput_and_p99() {
        // The acceptance criteria of the thermal scenario, at the exact
        // seed the CI smoke step uses: the proactive power cap beats the
        // firmware-latch ablation on goodput AND p99 latency, the
        // ablation actually latches, and the health ladder ends back at
        // a normal operating rung.
        let t = scenario_thermal(AppId::WebServer, 42).expect("thermal storm runs");
        assert!(
            t.undefended_throttle_engages > 0,
            "ablated run never hit the firmware throttle"
        );
        assert!(
            t.defended_goodput() > t.undefended_goodput(),
            "power cap lost goodput: {:.3} <= {:.3}",
            t.defended_goodput(),
            t.undefended_goodput()
        );
        assert!(
            t.defended_p99_latency_micros < t.undefended_p99_latency_micros,
            "power cap lost p99: {:.1} >= {:.1}",
            t.defended_p99_latency_micros,
            t.undefended_p99_latency_micros
        );
        assert!(t.recovered, "health ladder stuck on {}", t.final_rung);
        assert!(
            t.power_rung_transitions > 0,
            "defended guard never engaged a power rung"
        );
        // Deterministic: the scenario is a pure function of (app, seed).
        let again = scenario_thermal(AppId::WebServer, 42).expect("thermal storm runs");
        assert_eq!(t, again);
    }

    #[test]
    fn report_renders() {
        let report = run_matrix(AppId::WebServer, 3, true).expect("matrix runs");
        let mut buf = Vec::new();
        summarize(&report, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("precision"));
        assert!(s.contains("recall"));
        assert!(s.contains("gated easing p99 CPI"));

        // The JSON view carries the same numbers and parses back.
        let text = report.to_json().to_string_compact();
        let parsed = Json::parse(&text).expect("valid json");
        assert_eq!(
            parsed.get("app").and_then(Json::as_str),
            Some(report.app.to_string().as_str())
        );
        assert_eq!(
            parsed
                .get("anomaly")
                .and_then(|a| a.get("recall"))
                .and_then(Json::as_f64),
            Some(report.anomaly.score.recall())
        );
        assert_eq!(
            parsed
                .get("easing")
                .and_then(|e| e.get("stock_p99_cpi"))
                .and_then(Json::as_f64),
            Some(report.easing.stock_p99_cpi)
        );
    }
}
