//! Results of a simulation run: completed requests with their serialized
//! counter timelines, sampling statistics, transition-signal training data,
//! and contention accounting.

use rbv_core::series::{Metric, MetricSeries, Timeline};
use rbv_sim::Cycles;
use rbv_workloads::{AppId, RequestClass, SyscallName};

/// One system call occurrence on a request's execution timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyscallRecord {
    /// Wall-clock simulation time of the call.
    pub at: Cycles,
    /// Request-local CPU cycles consumed before the call.
    pub request_cycles: f64,
    /// Request-local instructions retired before the call.
    pub request_ins: f64,
    /// Which call.
    pub name: SyscallName,
}

/// A finished request with everything the modeling layer needs.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedRequest {
    /// Engine-assigned identifier (arrival order).
    pub id: usize,
    /// Application.
    pub app: AppId,
    /// Application-level class.
    pub class: RequestClass,
    /// Serialized per-request counter timeline (§2.1).
    pub timeline: Timeline,
    /// System calls in execution order.
    pub syscalls: Vec<SyscallRecord>,
    /// Arrival time.
    pub arrived_at: Cycles,
    /// Completion time.
    pub finished_at: Cycles,
}

impl CompletedRequest {
    /// Total CPU cycles consumed (the "request CPU time" of Figure 7A).
    pub fn cpu_cycles(&self) -> f64 {
        self.timeline.total_cycles()
    }

    /// Whole-request CPI (total cycles / total instructions, Figure 1).
    pub fn request_cpi(&self) -> Option<f64> {
        self.timeline.average(Metric::Cpi)
    }

    /// The 90-percentile CPI across the request's sample periods (the
    /// "peak CPI" property of Figure 7B), answered from the same
    /// mergeable sketch the run ledger records.
    pub fn peak_cpi(&self) -> Option<f64> {
        let (_, values) = self.timeline.weighted_values(Metric::Cpi);
        rbv_telemetry::QuantileSketch::of(values).quantile(0.9)
    }

    /// Fixed-bucket variation pattern on `metric` (§4.1 signatures).
    pub fn series(&self, metric: Metric, bucket_ins: f64) -> MetricSeries {
        self.timeline.series(metric, bucket_ins)
    }

    /// The syscall name sequence (for Levenshtein differencing).
    pub fn syscall_names(&self) -> Vec<SyscallName> {
        self.syscalls.iter().map(|s| s.name).collect()
    }

    /// End-to-end latency including queueing, in cycles.
    pub fn latency(&self) -> Cycles {
        self.finished_at.saturating_sub(self.arrived_at)
    }

    /// Per-sample-period L2 misses per instruction, in timeline order —
    /// the samples the contention-easing threshold is calibrated on.
    pub fn l2_mpi_samples(&self) -> Vec<f64> {
        self.timeline.weighted_values(Metric::L2MissesPerIns).1
    }
}

/// The contention-easing high-usage threshold (§5.2): the exact 80th
/// percentile of per-period L2 misses per instruction, or 0.0 without
/// samples. Exact rather than sketched because the threshold is a
/// scheduler input: moving it even within sketch resolution would change
/// which requests easing displaces.
pub fn easing_threshold(l2_mpi_samples: &[f64]) -> f64 {
    rbv_core::stats::percentile(l2_mpi_samples, 0.8).unwrap_or(0.0)
}

/// Why a request failed instead of completing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailReason {
    /// Admission control rejected the request on every retry (load shed).
    AdmissionShed,
    /// The request exceeded its deadline and was aborted mid-execution.
    DeadlineAbort,
    /// The client timed out on every resubmission and gave up
    /// ([`crate::ClientPolicy`]).
    ClientTimeout,
    /// CoDel-style dequeue-time shedding dropped the request after its
    /// queue sojourn stayed over target for a full control interval
    /// ([`crate::ShedPolicy`]).
    CodelShed,
    /// The guard ladder's brownout rung deterministically rejected the
    /// arrival before admission.
    BrownoutReject,
}

impl FailReason {
    /// Stable lower-case label used in traces and reports.
    pub fn label(self) -> &'static str {
        match self {
            FailReason::AdmissionShed => "shed",
            FailReason::DeadlineAbort => "deadline",
            FailReason::ClientTimeout => "timeout",
            FailReason::CodelShed => "codel",
            FailReason::BrownoutReject => "brownout",
        }
    }
}

/// A request the overload-protection machinery turned away or aborted.
#[derive(Debug, Clone, PartialEq)]
pub struct FailedRequest {
    /// Engine-assigned identifier (arrival order).
    pub id: usize,
    /// Application.
    pub app: AppId,
    /// Application-level class.
    pub class: RequestClass,
    /// Arrival time.
    pub arrived_at: Cycles,
    /// Shed or abort time.
    pub failed_at: Cycles,
    /// What happened.
    pub reason: FailReason,
}

/// A behavior-transition training record (§3.2, Table 2): the CPI of the
/// sample periods immediately before and after one system call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransitionRecord {
    /// The system call at the boundary.
    pub name: SyscallName,
    /// The request's previous system call, if any (for bigram signals).
    pub prev_name: Option<SyscallName>,
    /// CPI of the period ending at the call.
    pub before_cpi: f64,
    /// CPI of the period starting at the call.
    pub after_cpi: f64,
}

impl TransitionRecord {
    /// The CPI change the call signals.
    pub fn change(&self) -> f64 {
        self.after_cpi - self.before_cpi
    }
}

/// Energy/thermal accounting of a powered run ([`crate::SimConfig::power`]).
///
/// Energy is carried as the exact fixed-point accumulators (µW·cycles in
/// `u128`) rather than floating-point joules: integer addition is
/// order-free, so shard merges produce byte-identical totals at any thread
/// count. Convert with [`rbv_power::joules`] only at the reporting edge.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EnergyStats {
    /// Per-core dissipated energy in µW·cycles.
    pub core_uw_cycles: Vec<u128>,
    /// Machine-wide total in µW·cycles; the energy-conservation invariant
    /// requires this to equal the per-core sum exactly.
    pub total_uw_cycles: u128,
    /// Firmware throttle engagements across all cores.
    pub throttle_engages: u64,
    /// Firmware throttle releases across all cores.
    pub throttle_releases: u64,
    /// Cores still throttled when the run ended (the throttle-conservation
    /// invariant is `engages == releases + throttled_final`).
    pub throttled_final: u64,
    /// DVFS transition edges across all cores (throttle clamps and guard
    /// frequency caps included).
    pub dvfs_transitions: u64,
    /// Hottest temperature any core reached, milli-°C.
    pub max_temp_milli_c: i64,
    /// Per-core temperature when the run ended, milli-°C.
    pub final_temp_milli_c: Vec<i64>,
    /// Power-capping ladder transitions (0 without a guard power ladder).
    pub power_rung_transitions: u64,
    /// Power-capping rung in effect when the run ended, as
    /// [`rbv_guard::PowerRung::index`] (0 = nominal).
    pub power_final_rung: u64,
}

impl EnergyStats {
    /// Machine-wide dissipated energy in joules (reporting only; the
    /// exact quantity is [`EnergyStats::total_uw_cycles`]).
    pub fn total_joules(&self) -> f64 {
        rbv_power::joules(self.total_uw_cycles)
    }
}

/// Aggregate statistics of a run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunStats {
    /// Counter samples taken in an in-kernel context (context switches and
    /// system call entrances).
    pub samples_inkernel: u64,
    /// Counter samples taken at (periodic or backup) interrupts.
    pub samples_interrupt: u64,
    /// Counter samples by sampling hook, indexed by
    /// [`crate::observer::SampleMode::index`] — the fine-grained split the
    /// observer-effect accountant prices (sums to `samples_inkernel +
    /// samples_interrupt`).
    pub samples_by_mode: [u64; 4],
    /// Simulated cycles during which exactly `k` cores simultaneously ran
    /// requests in high-resource-usage periods (index `k`; Figure 12).
    pub high_usage_cycles: Vec<f64>,
    /// Cycles during which at least one core was running.
    pub busy_cycles: f64,
    /// Involuntary context switches (quantum rotations, stage handoffs,
    /// and contention-easing displacements).
    pub context_switches: u64,
    /// Cross-core runqueue migrations performed by work stealing.
    pub migrations: u64,
    /// Contention-easing displacement decisions actually taken (a subset
    /// of `context_switches`).
    pub resched_decisions: u64,
    /// Discrete events the simulation engine processed.
    pub engine_events: u64,
    /// Contention-model solves: calls, fixed-point iterations, restarts
    /// at half the damping, and solves that did not converge (each also
    /// an [`rbv_guard::InvariantKind::SolverConvergence`] violation).
    /// Ledgers report them only in their non-diffed `profile` member.
    pub solver: rbv_mem::SolverStats,
    /// Engine events by kind, live and stale (their sum is
    /// `engine_events`). Ledgers report them only in their non-diffed
    /// `profile` member.
    pub pops: EventPops,
    /// Sampling interrupts dropped by injected measurement faults.
    pub samples_lost: u64,
    /// Samples collected but flagged low-confidence (lost-interrupt
    /// stretch or detected counter overflow) and excluded from predictor
    /// training and transition records.
    pub samples_low_confidence: u64,
    /// Detected counter overflows (the L2 counters were zeroed for the
    /// affected period instead of reporting wrapped values).
    pub counter_overflows: u64,
    /// Injected syscall-sampling starvation windows the backup interrupt
    /// timer had to cover.
    pub starvation_windows: u64,
    /// Admission-control rejections (a request bounced off a full
    /// runqueue; one request may be rejected several times).
    pub admission_rejections: u64,
    /// Admission retries the closed-loop client scheduled (with
    /// exponential backoff plus jitter).
    pub admission_retries: u64,
    /// Requests permanently shed after exhausting admission retries.
    pub load_shed: u64,
    /// Requests aborted at their deadline.
    pub deadline_aborts: u64,
    /// Client-side timeout expirations (every firing, terminal or not).
    pub client_timeouts: u64,
    /// Client resubmissions after a timeout (capped exponential backoff).
    pub client_retries: u64,
    /// Requests shed by the CoDel-style dequeue controller.
    pub codel_shed: u64,
    /// Arrivals the guard ladder's brownout rung rejected outright.
    pub brownout_rejections: u64,
    /// CPU cycles consumed by attempts the client later abandoned —
    /// the wasted work that makes retry storms metastable.
    pub wasted_cycles: f64,
    /// Scheduling decisions where the prediction-confidence gate held
    /// contention easing back and stock scheduling ran instead.
    pub easing_gate_fallbacks: u64,
    /// Guard accounting windows the sampling governor closed (0 when the
    /// run was ungoverned).
    pub governor_windows: u64,
    /// Multiplicative backoffs the governor applied on budget breaches.
    pub governor_backoffs: u64,
    /// Additive recovery steps the governor applied under budget.
    pub governor_recoveries: u64,
    /// Accounting windows whose compensated observer overhead exceeded
    /// the do-no-harm budget.
    pub governor_budget_breaches: u64,
    /// Longest run of consecutive over-budget windows (the do-no-harm
    /// guarantee allows at most one: the AIMD correction lag).
    pub governor_max_breach_streak: u64,
    /// Sampling-interval scale in effect when the run ended (1.0 = full
    /// rate; 0.0 = ungoverned run).
    pub governor_final_scale: f64,
    /// Cumulative priced observer overhead across governed windows as a
    /// fraction of their busy cycles (0.0 when ungoverned).
    pub governor_overhead_frac: f64,
    /// One-window slack: the costliest single window's sampling cycles
    /// as a fraction of all busy cycles. The do-no-harm contract is
    /// `governor_overhead_frac <= budget + governor_slack_frac`.
    pub governor_slack_frac: f64,
    /// Measurement-health ladder transitions (degradations + recoveries).
    pub health_transitions: u64,
    /// Ladder rung in effect when the run ended, as
    /// [`rbv_guard::LadderRung::index`] (0 = easing, 2 = stock,
    /// 4 = brownout).
    pub health_final_rung: u64,
    /// Runtime invariant checks performed.
    pub invariant_checks: u64,
    /// Runtime invariant violations, indexed by
    /// [`rbv_guard::InvariantKind::index`].
    pub invariant_violations: [u64; rbv_guard::InvariantKind::ALL.len()],
    /// Energy/thermal accounting; `None` for power-off runs, keeping
    /// their stats (and every downstream ledger) bit-identical to
    /// power-unaware builds.
    pub energy: Option<EnergyStats>,
}

impl RunStats {
    /// Fraction of (any-core-busy) execution time with at least `k` cores
    /// simultaneously at high resource usage (Figure 12's y-axis).
    pub fn high_usage_fraction_at_least(&self, k: usize) -> f64 {
        if self.busy_cycles <= 0.0 {
            return 0.0;
        }
        let sum: f64 = self.high_usage_cycles.iter().skip(k).sum();
        sum / self.busy_cycles
    }

    /// Total sampling overhead in cycles, costing each sample at the
    /// Mbench-Spin (minimum) rate per Figure 5's methodology.
    pub fn sampling_overhead_cycles(&self) -> f64 {
        use crate::observer::{spin_baseline, SamplingContext};
        self.samples_inkernel as f64 * spin_baseline(SamplingContext::InKernel).cycles
            + self.samples_interrupt as f64 * spin_baseline(SamplingContext::Interrupt).cycles
    }
}

/// The `solver` object of the serve and cluster ledgers' non-diffed
/// `profile` member: contention-model solves, their fixed-point
/// iterations, restarts at half the damping, and unconverged solves.
pub fn solver_profile(stats: &rbv_mem::SolverStats) -> rbv_telemetry::Json {
    let num = |v: u64| rbv_telemetry::Json::Num(v as f64);
    rbv_telemetry::Json::Obj(vec![
        ("calls".into(), num(stats.calls)),
        ("iterations".into(), num(stats.iterations)),
        ("restarts".into(), num(stats.restarts)),
        ("unconverged".into(), num(stats.unconverged)),
    ])
}

/// Engine events by kind: how many reached their handler (live) and how
/// many were dropped as stale, each indexed like [`EventPops::KINDS`]. A
/// per-core timer lives in a slot that re-arming overwrites, so timer
/// kinds never go stale; a request-keyed event goes stale when its
/// request resolved or moved to a later attempt before it fell due.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventPops {
    /// Events handled, by kind.
    pub live: [u64; EventPops::KINDS.len()],
    /// Events dropped as stale, by kind.
    pub stale: [u64; EventPops::KINDS.len()],
}

impl EventPops {
    /// The event kinds, in index order: the four per-core timers, then
    /// the queued events.
    pub const KINDS: [&'static str; 11] = [
        "milestone",
        "quantum",
        "sample",
        "resched",
        "arrival",
        "hop_wakeup",
        "retry",
        "deadline_check",
        "client_timeout",
        "client_resubmit",
        "guard_tick",
    ];

    /// Counts one event of kind index `kind`.
    pub fn record(&mut self, kind: usize, live: bool) {
        let counts = if live {
            &mut self.live
        } else {
            &mut self.stale
        };
        counts[kind] += 1;
    }

    /// Adds another run's counts.
    pub fn merge(&mut self, other: &EventPops) {
        for (a, b) in self.live.iter_mut().zip(&other.live) {
            *a += b;
        }
        for (a, b) in self.stale.iter_mut().zip(&other.stale) {
            *a += b;
        }
    }

    /// Every event counted, live or stale.
    pub fn total(&self) -> u64 {
        self.live.iter().sum::<u64>() + self.stale_total()
    }

    /// Every event dropped as stale.
    pub fn stale_total(&self) -> u64 {
        self.stale.iter().sum()
    }
}

/// The `events` object of the serve and cluster ledgers' non-diffed
/// `profile` member: `{kind: {live, stale}}` in [`EventPops::KINDS`]
/// order.
pub fn pops_profile(pops: &EventPops) -> rbv_telemetry::Json {
    let num = |v: u64| rbv_telemetry::Json::Num(v as f64);
    rbv_telemetry::Json::Obj(
        EventPops::KINDS
            .iter()
            .enumerate()
            .map(|(i, kind)| {
                (
                    (*kind).into(),
                    rbv_telemetry::Json::Obj(vec![
                        ("live".into(), num(pops.live[i])),
                        ("stale".into(), num(pops.stale[i])),
                    ]),
                )
            })
            .collect(),
    )
}

/// Everything a simulation run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Requests in completion order.
    pub completed: Vec<CompletedRequest>,
    /// Requests shed or aborted by overload protection, in failure order.
    /// Empty unless an [`crate::OverloadPolicy`] is configured.
    pub failed: Vec<FailedRequest>,
    /// Transition-signal training records.
    pub transitions: Vec<TransitionRecord>,
    /// Aggregate statistics.
    pub stats: RunStats,
    /// Total simulated time.
    pub total_time: Cycles,
}

impl RunResult {
    /// Per-request CPI values (skipping degenerate requests).
    pub fn request_cpis(&self) -> Vec<f64> {
        self.completed
            .iter()
            .filter_map(CompletedRequest::request_cpi)
            .collect()
    }

    /// Every completed request's [`CompletedRequest::l2_mpi_samples`],
    /// concatenated in completion order.
    pub fn l2_mpi_samples(&self) -> Vec<f64> {
        self.completed
            .iter()
            .flat_map(CompletedRequest::l2_mpi_samples)
            .collect()
    }

    /// The [`easing_threshold`] calibrated on this run — the paper's
    /// per-application threshold when this is a stock profiling run.
    pub fn easing_threshold(&self) -> f64 {
        easing_threshold(&self.l2_mpi_samples())
    }

    /// Requests of one class.
    pub fn of_class(&self, class: RequestClass) -> Vec<&CompletedRequest> {
        self.completed.iter().filter(|r| r.class == class).collect()
    }

    /// Mergeable digest of end-to-end request latencies, in microseconds
    /// on the 3 GHz platform.
    pub fn latency_sketch(&self) -> rbv_telemetry::QuantileSketch {
        rbv_telemetry::QuantileSketch::of(
            self.completed.iter().map(|r| r.latency().as_micros_f64()),
        )
    }

    /// Mergeable digest of whole-request CPIs.
    pub fn cpi_sketch(&self) -> rbv_telemetry::QuantileSketch {
        rbv_telemetry::QuantileSketch::of(self.request_cpis())
    }

    /// Mergeable digest of per-request L2 misses per kilo-instruction.
    pub fn l2_mpki_sketch(&self) -> rbv_telemetry::QuantileSketch {
        rbv_telemetry::QuantileSketch::of(self.completed.iter().filter_map(|r| {
            let totals = r.timeline.totals();
            (totals.instructions > 0.0).then(|| totals.l2_misses / totals.instructions * 1_000.0)
        }))
    }

    /// Mean ± standard deviation of the CPI change signaled by each
    /// syscall name, sorted by descending |mean| (Table 2). Names with
    /// fewer than `min_count` occurrences are dropped.
    pub fn transition_table(&self, min_count: usize) -> Vec<(SyscallName, f64, f64, usize)> {
        use std::collections::HashMap;
        let mut by_name: HashMap<SyscallName, Vec<f64>> = HashMap::new();
        for t in &self.transitions {
            by_name.entry(t.name).or_default().push(t.change());
        }
        let mut rows: Vec<(SyscallName, f64, f64, usize)> = by_name
            .into_iter()
            .filter(|(_, v)| v.len() >= min_count)
            .map(|(name, v)| {
                let n = v.len();
                let mean = v.iter().sum::<f64>() / n as f64;
                let var = v.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
                (name, mean, var.sqrt(), n)
            })
            .collect();
        rows.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()).then_with(|| a.0.cmp(&b.0)));
        rows
    }

    /// Like [`RunResult::transition_table`] but keyed on `(previous,
    /// current)` syscall-name bigrams — the paper's suggested refinement
    /// for long requests whose individual names recur in many semantic
    /// contexts.
    #[allow(clippy::type_complexity)]
    pub fn transition_table_bigrams(
        &self,
        min_count: usize,
    ) -> Vec<((SyscallName, SyscallName), f64, f64, usize)> {
        use std::collections::HashMap;
        let mut by_pair: HashMap<(SyscallName, SyscallName), Vec<f64>> = HashMap::new();
        for t in &self.transitions {
            if let Some(prev) = t.prev_name {
                by_pair.entry((prev, t.name)).or_default().push(t.change());
            }
        }
        let mut rows: Vec<((SyscallName, SyscallName), f64, f64, usize)> = by_pair
            .into_iter()
            .filter(|(_, v)| v.len() >= min_count)
            .map(|(pair, v)| {
                let n = v.len();
                let mean = v.iter().sum::<f64>() / n as f64;
                let var = v.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
                (pair, mean, var.sqrt(), n)
            })
            .collect();
        rows.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()).then_with(|| a.0.cmp(&b.0)));
        rows
    }

    /// Per-request "next syscall distance" samples, length-biased as in
    /// Figure 4: from an arbitrary instant of request execution, how far
    /// (in request CPU cycles or instructions) is the next system call?
    /// Returns the gap list (each gap weighted by sampling within it is
    /// handled by the CDF evaluation in the harness).
    pub fn syscall_gaps(&self) -> Vec<SyscallGap> {
        let mut gaps = Vec::new();
        for r in &self.completed {
            let mut prev_cycles = 0.0f64;
            let mut prev_ins = 0.0f64;
            for s in &r.syscalls {
                let dc = s.request_cycles - prev_cycles;
                let di = s.request_ins - prev_ins;
                if dc > 0.0 || di > 0.0 {
                    gaps.push(SyscallGap {
                        cycles: dc.max(0.0),
                        instructions: di.max(0.0),
                    });
                }
                prev_cycles = s.request_cycles;
                prev_ins = s.request_ins;
            }
        }
        gaps
    }

    /// Populates `registry` with the run's aggregate metrics: run totals,
    /// engine and scheduler counters, the sampling/observer-effect budget
    /// (Figure 5's costing), and per-request latency/CPI histograms.
    pub fn fill_metrics(&self, registry: &mut rbv_telemetry::MetricsRegistry) {
        use crate::observer::{spin_baseline, SamplingContext};

        let stats = &self.stats;
        registry.count("run.requests_completed", self.completed.len() as u64);
        registry.gauge("run.total_time_cycles", self.total_time.as_f64());
        registry.count("run.transition_records", self.transitions.len() as u64);

        registry.count("engine.events", stats.engine_events);
        registry.count("scheduler.context_switches", stats.context_switches);
        registry.count("scheduler.migrations", stats.migrations);
        registry.count("scheduler.resched_decisions", stats.resched_decisions);
        registry.gauge("scheduler.busy_cycles", stats.busy_cycles);
        registry.gauge(
            "scheduler.high_usage_frac_ge2",
            stats.high_usage_fraction_at_least(2),
        );
        registry.gauge(
            "scheduler.high_usage_frac_ge3",
            stats.high_usage_fraction_at_least(3),
        );

        registry.count("sampling.inkernel", stats.samples_inkernel);
        registry.count("sampling.interrupt", stats.samples_interrupt);
        for mode in crate::observer::SampleMode::ALL {
            registry.count(
                &format!("sampling.mode.{}", mode.label()),
                stats.samples_by_mode[mode.index()],
            );
        }
        registry.count("sampling.lost", stats.samples_lost);
        registry.count("sampling.low_confidence", stats.samples_low_confidence);
        registry.count("sampling.counter_overflows", stats.counter_overflows);
        registry.count("sampling.starvation_windows", stats.starvation_windows);

        registry.count("overload.requests_failed", self.failed.len() as u64);
        registry.count("overload.admission_rejections", stats.admission_rejections);
        registry.count("overload.admission_retries", stats.admission_retries);
        registry.count("overload.load_shed", stats.load_shed);
        registry.count("overload.deadline_aborts", stats.deadline_aborts);
        registry.count("overload.client_timeouts", stats.client_timeouts);
        registry.count("overload.client_retries", stats.client_retries);
        registry.count("overload.codel_shed", stats.codel_shed);
        registry.count("overload.brownout_rejections", stats.brownout_rejections);
        registry.gauge("overload.wasted_cycles", stats.wasted_cycles);
        registry.count(
            "scheduler.easing_gate_fallbacks",
            stats.easing_gate_fallbacks,
        );

        // Observer-effect budget: what the measurement apparatus itself
        // cost, priced at the Mbench-Spin floor per sampling context.
        let report = crate::accountant::ObserverReport::account(stats);
        registry.gauge("observer.overhead_cycles", report.total_cycles);
        if stats.busy_cycles > 0.0 {
            registry.gauge("observer.overhead_frac_of_busy", report.overhead_frac());
        }
        registry.gauge("observer.budget_frac", report.budget_frac);
        registry.gauge("observer.slack_frac", report.slack_frac());
        for m in &report.per_mode {
            registry.gauge(&format!("observer.cycles.{}", m.mode.label()), m.cycles);
        }
        registry.gauge(
            "observer.cycles_per_inkernel_sample",
            spin_baseline(SamplingContext::InKernel).cycles,
        );
        registry.gauge(
            "observer.cycles_per_interrupt_sample",
            spin_baseline(SamplingContext::Interrupt).cycles,
        );

        // Guard family: governor control-loop activity, health-ladder
        // movement, and invariant-monitor verdicts. Emitted (as zeros)
        // even for ungoverned runs so ledger diffs see a stable key set.
        registry.count("guard.governor_windows", stats.governor_windows);
        registry.count("guard.governor_backoffs", stats.governor_backoffs);
        registry.count("guard.governor_recoveries", stats.governor_recoveries);
        registry.count("guard.budget_breaches", stats.governor_budget_breaches);
        registry.gauge(
            "guard.max_breach_streak",
            stats.governor_max_breach_streak as f64,
        );
        registry.gauge("guard.final_scale", stats.governor_final_scale);
        registry.gauge("guard.overhead_frac", stats.governor_overhead_frac);
        registry.gauge("guard.slack_frac", stats.governor_slack_frac);
        registry.count("guard.health_transitions", stats.health_transitions);
        registry.gauge("guard.final_rung", stats.health_final_rung as f64);
        registry.count("guard.invariant_checks", stats.invariant_checks);
        registry.count(
            "guard.invariant_violations",
            stats.invariant_violations.iter().sum(),
        );
        for kind in rbv_guard::InvariantKind::ALL {
            registry.count(
                &format!("guard.invariant.{}", kind.label()),
                stats.invariant_violations[kind.index()],
            );
        }

        // Energy family: only for powered runs — absent keys keep
        // power-off ledgers byte-identical to power-unaware builds.
        if let Some(energy) = &stats.energy {
            registry.gauge("energy.total_joules", energy.total_joules());
            for (c, &uw_cycles) in energy.core_uw_cycles.iter().enumerate() {
                registry.gauge(
                    &format!("energy.core{c}_joules"),
                    rbv_power::joules(uw_cycles),
                );
            }
            registry.count("energy.throttle_engages", energy.throttle_engages);
            registry.count("energy.throttle_releases", energy.throttle_releases);
            registry.count("energy.throttled_final", energy.throttled_final);
            registry.count("energy.dvfs_transitions", energy.dvfs_transitions);
            registry.gauge("energy.max_temp_milli_c", energy.max_temp_milli_c as f64);
            registry.count(
                "energy.power_rung_transitions",
                energy.power_rung_transitions,
            );
            registry.gauge("energy.power_final_rung", energy.power_final_rung as f64);
        }

        for r in &self.completed {
            registry.observe("request.latency_cycles", r.latency().as_f64());
            registry.observe("request.cpu_cycles", r.cpu_cycles());
            registry.observe("request.syscalls", r.syscalls.len() as f64);
            if let Some(cpi) = r.request_cpi() {
                // Histogram buckets are log2; scale CPI (~0.5–10) so
                // adjacent values land in distinct buckets.
                registry.observe("request.cpi_x1000", cpi * 1000.0);
            }
        }
    }
}

/// The execution distance between two consecutive system calls of one
/// request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyscallGap {
    /// Request CPU cycles between the calls.
    pub cycles: f64,
    /// Instructions between the calls.
    pub instructions: f64,
}

/// Length-biased cumulative probability that the next syscall is within
/// distance `d` from an arbitrary instant (Figure 4): instants fall into a
/// gap with probability proportional to the gap's length, and within a gap
/// of length `g` the next call is within `d` for the last `min(d, g)`
/// portion.
pub fn next_syscall_cumulative(gaps: &[f64], d: f64) -> f64 {
    let total: f64 = gaps.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    gaps.iter().map(|&g| g.min(d)).sum::<f64>() / total
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbv_core::series::SamplePeriod;

    fn request_with_timeline(periods: Vec<(f64, f64)>) -> CompletedRequest {
        let mut t = Timeline::new();
        for (cycles, ins) in periods {
            t.push(SamplePeriod {
                cycles,
                instructions: ins,
                l2_refs: ins * 0.01,
                l2_misses: ins * 0.001,
            });
        }
        CompletedRequest {
            id: 0,
            app: AppId::Tpcc,
            class: RequestClass::Mbench,
            timeline: t,
            syscalls: vec![],
            arrived_at: Cycles::ZERO,
            finished_at: Cycles::new(1000),
        }
    }

    #[test]
    fn request_cpi_is_totals_ratio() {
        let r = request_with_timeline(vec![(100.0, 100.0), (300.0, 100.0)]);
        assert!((r.request_cpi().unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(r.cpu_cycles(), 400.0);
        assert_eq!(r.latency(), Cycles::new(1000));
    }

    #[test]
    fn peak_cpi_is_90th_percentile_of_periods() {
        let r = request_with_timeline(vec![
            (100.0, 100.0),
            (100.0, 100.0),
            (100.0, 100.0),
            (500.0, 100.0),
        ]);
        let peak = r.peak_cpi().unwrap();
        assert!(peak > 3.0, "peak {peak}");
    }

    #[test]
    fn transition_table_aggregates_by_name() {
        let result = RunResult {
            completed: vec![],
            failed: vec![],
            transitions: vec![
                TransitionRecord {
                    name: SyscallName::Writev,
                    prev_name: Some(SyscallName::Stat),
                    before_cpi: 1.0,
                    after_cpi: 4.0,
                },
                TransitionRecord {
                    name: SyscallName::Writev,
                    prev_name: Some(SyscallName::Stat),
                    before_cpi: 1.0,
                    after_cpi: 6.0,
                },
                TransitionRecord {
                    name: SyscallName::Lseek,
                    prev_name: Some(SyscallName::Writev),
                    before_cpi: 4.0,
                    after_cpi: 1.0,
                },
                TransitionRecord {
                    name: SyscallName::Read,
                    prev_name: None,
                    before_cpi: 1.0,
                    after_cpi: 1.0,
                },
            ],
            stats: RunStats::default(),
            total_time: Cycles::ZERO,
        };
        let table = result.transition_table(1);
        // writev first (mean +4), then lseek (mean -3), then read (0).
        assert_eq!(table[0].0, SyscallName::Writev);
        assert!((table[0].1 - 4.0).abs() < 1e-12);
        assert!((table[0].2 - 1.0).abs() < 1e-12); // std of {3, 5}
        assert_eq!(table[0].3, 2);
        assert_eq!(table[1].0, SyscallName::Lseek);
        assert!((table[1].1 + 3.0).abs() < 1e-12);
        // min_count filters singles.
        let filtered = result.transition_table(2);
        assert_eq!(filtered.len(), 1);
    }

    #[test]
    fn easing_threshold_of_an_empty_run_is_zero() {
        let empty = RunResult {
            completed: vec![],
            failed: vec![],
            transitions: vec![],
            stats: RunStats::default(),
            total_time: Cycles::ZERO,
        };
        assert!(empty.l2_mpi_samples().is_empty());
        assert_eq!(empty.easing_threshold().to_bits(), 0.0f64.to_bits());
        assert_eq!(easing_threshold(&[]).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn easing_threshold_is_exact_80th_percentile_of_concatenated_samples() {
        let cfg = crate::SimConfig::paper_default().with_interrupt_sampling(1_000);
        let mut f = rbv_workloads::Tpch::new(3, 0.05);
        let run = crate::run_simulation(cfg, &mut f, 8).expect("valid");
        let mut concatenated = Vec::new();
        for r in &run.completed {
            let (_, mut v) = r.timeline.weighted_values(Metric::L2MissesPerIns);
            concatenated.append(&mut v);
        }
        assert!(
            concatenated.len() > run.completed.len(),
            "multi-period requests"
        );
        assert_eq!(run.l2_mpi_samples(), concatenated);
        let exact = rbv_core::stats::percentile(&concatenated, 0.8).expect("samples");
        assert!(exact > 0.0);
        assert_eq!(run.easing_threshold().to_bits(), exact.to_bits());
    }

    #[test]
    fn high_usage_fractions() {
        let stats = RunStats {
            high_usage_cycles: vec![50.0, 20.0, 20.0, 5.0, 5.0],
            busy_cycles: 100.0,
            ..RunStats::default()
        };
        assert!((stats.high_usage_fraction_at_least(0) - 1.0).abs() < 1e-12);
        assert!((stats.high_usage_fraction_at_least(2) - 0.3).abs() < 1e-12);
        assert!((stats.high_usage_fraction_at_least(4) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn sampling_overhead_prices_by_context() {
        let a = RunStats {
            samples_inkernel: 10,
            samples_interrupt: 0,
            ..Default::default()
        };
        let b = RunStats {
            samples_inkernel: 0,
            samples_interrupt: 10,
            ..Default::default()
        };
        assert!(b.sampling_overhead_cycles() > a.sampling_overhead_cycles());
    }

    #[test]
    fn next_syscall_cumulative_is_length_biased() {
        // Gaps 1 and 9: from an arbitrary instant, P(next within 1) =
        // (1 + 1)/10 = 0.2.
        let gaps = [1.0, 9.0];
        assert!((next_syscall_cumulative(&gaps, 1.0) - 0.2).abs() < 1e-12);
        assert!((next_syscall_cumulative(&gaps, 9.0) - 1.0).abs() < 1e-12);
        assert_eq!(next_syscall_cumulative(&[], 5.0), 0.0);
    }

    #[test]
    fn syscall_gaps_computed_per_request() {
        let mut r = request_with_timeline(vec![(100.0, 100.0)]);
        r.syscalls = vec![
            SyscallRecord {
                at: Cycles::new(10),
                request_cycles: 10.0,
                request_ins: 5.0,
                name: SyscallName::Read,
            },
            SyscallRecord {
                at: Cycles::new(50),
                request_cycles: 40.0,
                request_ins: 25.0,
                name: SyscallName::Write,
            },
        ];
        let result = RunResult {
            completed: vec![r],
            failed: vec![],
            transitions: vec![],
            stats: RunStats::default(),
            total_time: Cycles::ZERO,
        };
        let gaps = result.syscall_gaps();
        assert_eq!(gaps.len(), 2);
        assert_eq!(gaps[1].cycles, 30.0);
        assert_eq!(gaps[1].instructions, 20.0);
    }
}

#[cfg(test)]
mod bigram_tests {
    use super::*;

    fn rec(prev: Option<SyscallName>, name: SyscallName, delta: f64) -> TransitionRecord {
        TransitionRecord {
            name,
            prev_name: prev,
            before_cpi: 1.0,
            after_cpi: 1.0 + delta,
        }
    }

    #[test]
    fn bigram_table_disambiguates_contexts() {
        // `sendto` after `futex` raises CPI; after `read` it lowers it.
        // The name table averages them away; the bigram table separates.
        let result = RunResult {
            completed: vec![],
            failed: vec![],
            transitions: vec![
                rec(Some(SyscallName::Futex), SyscallName::Sendto, 2.0),
                rec(Some(SyscallName::Futex), SyscallName::Sendto, 2.2),
                rec(Some(SyscallName::Read), SyscallName::Sendto, -2.0),
                rec(Some(SyscallName::Read), SyscallName::Sendto, -2.2),
                rec(None, SyscallName::Sendto, 0.0),
            ],
            stats: RunStats::default(),
            total_time: Cycles::ZERO,
        };
        let names = result.transition_table(1);
        let sendto = names.iter().find(|r| r.0 == SyscallName::Sendto).unwrap();
        assert!(sendto.1.abs() < 0.1, "name mean washes out: {}", sendto.1);
        assert!(sendto.2 > 1.5, "name std reveals mixed contexts");

        let bigrams = result.transition_table_bigrams(1);
        assert_eq!(bigrams.len(), 2, "the None-prev record is excluded");
        let futex = bigrams
            .iter()
            .find(|r| r.0 == (SyscallName::Futex, SyscallName::Sendto))
            .unwrap();
        assert!((futex.1 - 2.1).abs() < 1e-9);
        assert!(futex.2 < 0.2, "per-context std is tight");
        let read = bigrams
            .iter()
            .find(|r| r.0 == (SyscallName::Read, SyscallName::Sendto))
            .unwrap();
        assert!((read.1 + 2.1).abs() < 1e-9);
    }

    #[test]
    fn bigram_min_count_filters() {
        let result = RunResult {
            completed: vec![],
            failed: vec![],
            transitions: vec![
                rec(Some(SyscallName::Stat), SyscallName::Writev, 3.0),
                rec(Some(SyscallName::Stat), SyscallName::Writev, 3.5),
                rec(Some(SyscallName::Open), SyscallName::Writev, 1.0),
            ],
            stats: RunStats::default(),
            total_time: Cycles::ZERO,
        };
        assert_eq!(result.transition_table_bigrams(2).len(), 1);
        assert_eq!(result.transition_table_bigrams(1).len(), 2);
    }
}
