//! The event-driven execution engine: a simulated 4-core server machine.
//!
//! Requests from a [`RequestFactory`] execute on per-core runqueues under
//! a configurable scheduler, while hardware counters advance according to
//! the analytical contention model of `rbv-mem` — re-evaluated whenever the
//! set of co-running execution phases changes. The kernel instrumentation
//! of §2.1/§3 is modeled faithfully:
//!
//! * counters are sampled at every request context switch (attribution),
//!   at periodic interrupts, and/or at system call entrances per the
//!   configured [`crate::SamplingPolicy`];
//! * each sample injects its observer-effect events into the counter
//!   stream and "do no harm" compensation subtracts the Mbench-Spin
//!   minimum at collection time (§3.1);
//! * request contexts propagate across server components (stage hops over
//!   socket IPC), and each request's sample periods are serialized into a
//!   continuous timeline;
//! * the contention-easing scheduler (§5.2) re-evaluates placement every
//!   few milliseconds using per-request vaEWMA predictions of L2 misses
//!   per instruction.
//!
//! Between events every core's progress is linear in cycles (rates change
//! only at events), so lazily advancing all cores at each event timestamp
//! is exact, not an approximation.
//!
//! One deliberate approximation: the observer-effect events injected by
//! each sample are charged to the request's *counters* but do not consume
//! wall-clock time (stretching time at every sample would break the exact
//! linear advancement above). At the paper's sampling periods the residue
//! after "do no harm" compensation is well under 1% of cycles; only
//! pathological microsecond-scale sampling makes it visible (see
//! `tests/stress.rs`).

use rbv_sim::Cycles;
use rbv_telemetry::TraceSink;
use rbv_workloads::{Request, RequestFactory};

use crate::config::SimConfig;
use crate::engine::Engine;
use crate::error::RbvError;
use crate::result::{CompletedRequest, FailedRequest, RunResult};

/// Runs `n_requests` from `factory` under `cfg` and returns everything the
/// modeling layer needs.
///
/// # Errors
///
/// Returns [`RbvError::Config`] if `cfg` is invalid.
pub fn run_simulation(
    cfg: SimConfig,
    factory: &mut dyn RequestFactory,
    n_requests: usize,
) -> Result<RunResult, RbvError> {
    cfg.validate()?;
    Ok(Engine::new(cfg, n_requests, None, None).run(factory))
}

/// Like [`run_simulation`], but streams structured
/// [`TraceEvent`](rbv_telemetry::TraceEvent)s into `sink` as the
/// simulated kernel acts.
///
/// Tracing is observation-only: event emission reads engine state but
/// never mutates it (and draws nothing from the random streams), so a
/// traced run returns results bit-identical to an untraced one with the
/// same configuration.
///
/// # Errors
///
/// Returns [`RbvError::Config`] if `cfg` is invalid.
pub fn run_simulation_traced(
    cfg: SimConfig,
    factory: &mut dyn RequestFactory,
    n_requests: usize,
    sink: &mut dyn TraceSink,
) -> Result<RunResult, RbvError> {
    cfg.validate()?;
    let result = Engine::new(cfg, n_requests, Some(&mut *sink), None).run(factory);
    sink.finish();
    Ok(result)
}

/// Streaming consumer of finished requests for bounded-memory runs: the
/// engine hands each completion or failure over exactly once, in event
/// order, and then drops it instead of retaining it in the result
/// vectors. A request's slot is freed once it and every older request
/// have resolved, so memory stays proportional to the span of ids from
/// the oldest live request to the newest, regardless of run length.
pub trait CompletionSink {
    /// One request completed end to end.
    fn on_complete(&mut self, request: &CompletedRequest);
    /// One request was shed, timed out, or aborted.
    fn on_fail(&mut self, request: &FailedRequest);
}

/// Like [`run_simulation`], but folds every finished request into
/// `completions` instead of retaining it, so memory stays bounded by the
/// span of live request ids (see [`CompletionSink`]), not the run length.
/// The returned [`RunResult`] carries empty `completed`/`failed` vectors
/// alongside the full statistics.
///
/// Streaming is observation-only bookkeeping: the engine's event
/// schedule and random streams are untouched, so the statistics are
/// bit-identical to a retaining run of the same configuration.
///
/// # Errors
///
/// Returns [`RbvError::Config`] if `cfg` is invalid.
pub fn run_simulation_streaming(
    cfg: SimConfig,
    factory: &mut dyn RequestFactory,
    n_requests: usize,
    completions: &mut dyn CompletionSink,
) -> Result<RunResult, RbvError> {
    cfg.validate()?;
    Ok(Engine::new(cfg, n_requests, None, Some(completions)).run(factory))
}

/// Combines [`run_simulation_streaming`] and [`run_simulation_traced`]:
/// finished requests fold into `completions` while structured
/// [`TraceEvent`](rbv_telemetry::TraceEvent)s stream into `sink`, both in
/// event order. With a streaming trace consumer (one that folds events
/// instead of retaining them) memory stays bounded as in
/// [`run_simulation_streaming`] — the discipline span reconstruction
/// relies on.
///
/// Both observers are observation-only, so the statistics and completion
/// stream are bit-identical to [`run_simulation_streaming`] with the same
/// configuration.
///
/// # Errors
///
/// Returns [`RbvError::Config`] if `cfg` is invalid.
pub fn run_simulation_streaming_traced(
    cfg: SimConfig,
    factory: &mut dyn RequestFactory,
    n_requests: usize,
    completions: &mut dyn CompletionSink,
    sink: &mut dyn TraceSink,
) -> Result<RunResult, RbvError> {
    cfg.validate()?;
    let result = Engine::new(cfg, n_requests, Some(&mut *sink), Some(completions)).run(factory);
    sink.finish();
    Ok(result)
}

/// A single simulated machine exposed to an external event loop.
///
/// [`run_simulation`] drives the engine to completion in one call; a
/// `Machine` instead surfaces the same engine one event at a time so a
/// cluster scheduler (`rbv-cluster`) can interleave several machines on
/// one global clock and hand requests across them. [`Machine::start`]
/// plus repeated [`Machine::step`] is *structurally* the loop
/// [`run_simulation`] runs, so a lone machine reproduces it bit for bit;
/// under [`ArrivalProcess::External`](crate::config::ArrivalProcess::External)
/// the machine spawns nothing itself and every request enters through
/// [`Machine::inject`].
///
/// # Example
///
/// ```
/// use rbv_os::{Machine, SimConfig};
/// use rbv_workloads::{RequestFactory, Tpcc};
///
/// let mut factory = Tpcc::new(42, 0.05);
/// let mut machine = Machine::new(SimConfig::paper_default(), 3).expect("valid configuration");
/// machine.start(&mut factory);
/// while !machine.target_reached() && machine.step(&mut factory) {}
/// let result = machine.finish();
/// assert_eq!(result.completed.len(), 3);
/// ```
pub struct Machine {
    engine: Engine<'static>,
}

impl Machine {
    /// Builds a machine that will resolve `target` requests (spawned
    /// by the machine itself under closed-loop or open-loop arrivals;
    /// irrelevant under
    /// [`ArrivalProcess::External`](crate::config::ArrivalProcess::External),
    /// where the owner decides when the cluster is done).
    ///
    /// # Errors
    ///
    /// Returns [`RbvError::Config`] if `cfg` is invalid.
    pub fn new(cfg: SimConfig, target: usize) -> Result<Machine, RbvError> {
        cfg.validate()?;
        Ok(Machine {
            engine: Engine::new(cfg, target, None, None),
        })
    }

    /// Seeds the event queue: initial spawns (or the first open-loop
    /// arrival) and the first guard tick. Call exactly once, before the
    /// first [`Machine::step`].
    pub fn start(&mut self, factory: &mut dyn RequestFactory) {
        self.engine.start(factory);
    }

    /// Pops and handles exactly one engine event. Returns `false` when
    /// the machine's queue is empty (idle until the next injection).
    pub fn step(&mut self, factory: &mut dyn RequestFactory) -> bool {
        self.engine.step(factory)
    }

    /// The machine's local clock: the timestamp of the last handled
    /// event.
    pub fn now(&self) -> Cycles {
        self.engine.queue.now()
    }

    /// Timestamp of the machine's earliest pending event, or `None` when
    /// idle. A cluster loop compares these across machines (and against
    /// in-flight network deliveries) to pick the globally next event.
    pub fn peek_time(&self) -> Option<Cycles> {
        self.engine.next_time()
    }

    /// Whether the machine has resolved (completed or failed) its
    /// configured target of self-spawned requests.
    pub fn target_reached(&self) -> bool {
        self.engine.target_reached()
    }

    /// Requests resolved so far (completed plus failed).
    pub fn resolved(&self) -> usize {
        self.engine.out.resolved()
    }

    /// Hands the machine a request arriving over the network at absolute
    /// time `at` (clamped to the machine's clock; the cluster's global
    /// ordering guarantees `at` is never in the machine's past). Returns
    /// the machine-local request id, which tags the eventual
    /// [`CompletedRequest`] from [`Machine::drain_finished`].
    ///
    /// An injected request is delivered by a wakeup event straight into
    /// a runqueue — admission control is the ingress machine's business,
    /// not the receiving tier's.
    pub fn inject(&mut self, request: Request, at: Cycles) -> usize {
        debug_assert!(request.validate().is_ok());
        self.engine.inject(request, at)
    }

    /// Takes every request resolved since the last drain, in resolution
    /// order. The cluster correlates the machine-local ids back to its
    /// global request identities.
    pub fn drain_finished(&mut self) -> (Vec<CompletedRequest>, Vec<FailedRequest>) {
        let out = &mut self.engine.out;
        (
            std::mem::take(&mut out.completed),
            std::mem::take(&mut out.failed),
        )
    }

    /// Closes the run (final guard window or debug invariant sweep,
    /// power finalization) and returns the machine's [`RunResult`].
    pub fn finish(self) -> RunResult {
        self.engine.finish_run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ArrivalProcess, SamplingPolicy, SchedulerPolicy};
    use rbv_workloads::{factory_for, AppId, Mbench, SyscallName, Tpcc, TpccTxn, WebServer};

    fn small_run(cfg: SimConfig, app: AppId, n: usize) -> RunResult {
        let mut factory = factory_for(app, 7, 0.05);
        run_simulation(cfg, factory.as_mut(), n).expect("valid config")
    }

    #[test]
    fn completes_the_requested_number() {
        let r = small_run(SimConfig::paper_default(), AppId::Tpcc, 20);
        assert_eq!(r.completed.len(), 20);
        assert!(r.total_time > Cycles::ZERO);
    }

    #[test]
    fn unthrottled_power_model_is_schedule_identical() {
        // The power model observes (energy, temperature) without acting
        // until something clamps frequency. The paper-default policy never
        // throttles without a fault (hottest steady state 89 °C < 95 °C
        // cap), so a powered run executes the exact same schedule as a
        // power-off run — completions, timelines, and total time all equal.
        let off = small_run(SimConfig::paper_default(), AppId::Tpcc, 25);
        let cfg = SimConfig {
            power: Some(rbv_power::PowerPolicy::paper_default()),
            ..SimConfig::paper_default()
        };
        let on = small_run(cfg, AppId::Tpcc, 25);
        assert_eq!(off.completed, on.completed);
        assert_eq!(off.failed, on.failed);
        assert_eq!(off.total_time, on.total_time);
        assert_eq!(off.stats.energy, None);
        let energy = on.stats.energy.expect("powered run accounts energy");
        assert!(energy.total_uw_cycles > 0);
        assert_eq!(
            energy.core_uw_cycles.iter().sum::<u128>(),
            energy.total_uw_cycles,
            "energy conservation is exact"
        );
        assert_eq!(energy.throttle_engages, 0);
        assert_eq!(energy.dvfs_transitions, 0);
        assert!(
            energy.max_temp_milli_c > 45_000,
            "cores heated above ambient"
        );
    }

    #[test]
    fn powered_runs_are_deterministic() {
        let cfg = SimConfig {
            power: Some(rbv_power::PowerPolicy::paper_default()),
            thermal_storm: true,
            ..SimConfig::paper_default()
        };
        let a = small_run(cfg.clone(), AppId::Tpcc, 20);
        let b = small_run(cfg, AppId::Tpcc, 20);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.stats.energy, b.stats.energy);
    }

    /// Requests of [`thermal_storm_run`].
    const STORM_REQUESTS: usize = 800;

    /// Open-loop web serving through the thermal storm at 0.55× nominal
    /// capacity (the load of `repro serve --power --thermal`: a mean web
    /// service of about 116 600 cycles over 4 cores), with or without
    /// the guard.
    fn thermal_storm_run(guard: bool) -> RunResult {
        let app = AppId::WebServer;
        let mut cfg =
            SimConfig::paper_default().with_interrupt_sampling(app.sampling_period_micros());
        cfg.arrivals = ArrivalProcess::OpenPoisson {
            mean_interarrival: Cycles::new(53_000),
        };
        cfg.power = Some(rbv_power::PowerPolicy::paper_default());
        cfg.thermal_storm = true;
        cfg.guard = guard;
        cfg.seed = 42;
        let mut factory = factory_for(app, 42, app.harness_scale());
        run_simulation(cfg, factory.as_mut(), STORM_REQUESTS).expect("valid config")
    }

    #[test]
    fn thermal_storm_trips_the_firmware_throttle() {
        let r = thermal_storm_run(false);
        assert_eq!(r.completed.len(), STORM_REQUESTS);
        let energy = r.stats.energy.expect("powered run accounts energy");
        assert!(energy.throttle_engages >= 1, "storm must throttle");
        assert_eq!(
            energy.throttle_engages,
            energy.throttle_releases + energy.throttled_final,
            "throttle conservation"
        );
        assert!(
            energy.dvfs_transitions >= 1,
            "clamping is a DVFS transition"
        );
        assert_eq!(
            energy.core_uw_cycles.iter().sum::<u128>(),
            energy.total_uw_cycles
        );
    }

    #[test]
    fn power_capping_ladder_engages_under_storm() {
        // Defended: guard power-capping rungs react to smoothed thermal
        // pressure well before the firmware cap.
        let r = thermal_storm_run(true);
        assert_eq!(
            r.completed.len(),
            STORM_REQUESTS,
            "parking must not strand requests"
        );
        let energy = r.stats.energy.expect("powered run accounts energy");
        assert!(
            energy.power_rung_transitions >= 1,
            "pressure must move the power ladder"
        );
        // The invariant monitor ran the energy/frequency/throttle checks
        // every window and none fired.
        assert_eq!(
            r.stats.invariant_violations.iter().sum::<u64>(),
            0,
            "all guard invariants hold under the storm"
        );
    }

    #[test]
    fn counters_are_conserved() {
        // Total instructions in timelines ~ total instructions generated
        // (modulo observer-effect injection/compensation).
        let mut factory = Tpcc::new(3, 0.05);
        let mut factory2 = Tpcc::new(3, 0.05);
        let expected: f64 = (0..10)
            .map(|_| factory2.next_request().total_instructions().as_f64())
            .sum();
        let r = run_simulation(SimConfig::paper_default(), &mut factory, 10).unwrap();
        let measured: f64 = r
            .completed
            .iter()
            .map(|c| c.timeline.total_instructions())
            .sum();
        let rel = (measured - expected).abs() / expected;
        assert!(rel < 0.02, "measured {measured} expected {expected}");
    }

    #[test]
    fn request_cpi_reflects_profiles() {
        let r = small_run(SimConfig::paper_default().serial(), AppId::Tpcc, 10);
        for c in &r.completed {
            let cpi = c.request_cpi().expect("has instructions");
            assert!((0.8..6.0).contains(&cpi), "cpi {cpi}");
        }
    }

    #[test]
    fn serial_mode_runs_one_at_a_time() {
        let r = small_run(SimConfig::paper_default().serial(), AppId::WebServer, 10);
        // With concurrency 1, completions are strictly ordered by arrival.
        for w in r.completed.windows(2) {
            assert!(w[0].finished_at <= w[1].arrived_at);
        }
    }

    #[test]
    fn concurrent_execution_inflates_cpi() {
        // Multicore obfuscation (Figure 1): the same workload seeded the
        // same way gets worse tail CPI when run 8-way concurrent.
        let mut f1 = Tpcc::new(11, 0.05);
        let mut f2 = Tpcc::new(11, 0.05);
        let serial = run_simulation(SimConfig::paper_default().serial(), &mut f1, 30).unwrap();
        let conc = run_simulation(SimConfig::paper_default(), &mut f2, 30).unwrap();
        let p90 =
            |r: &RunResult| rbv_core::stats::percentile(&r.request_cpis(), 0.9).expect("cpis");
        assert!(
            p90(&conc) > p90(&serial),
            "serial p90 {} vs concurrent p90 {}",
            p90(&serial),
            p90(&conc)
        );
    }

    #[test]
    fn syscalls_are_recorded_in_order() {
        let r = small_run(SimConfig::paper_default().serial(), AppId::WebServer, 5);
        for c in &r.completed {
            assert!(!c.syscalls.is_empty());
            for w in c.syscalls.windows(2) {
                assert!(w[0].request_ins <= w[1].request_ins);
            }
        }
    }

    #[test]
    fn interrupt_sampling_creates_fine_periods() {
        let cfg = SimConfig::paper_default()
            .serial()
            .with_interrupt_sampling(10);
        let mut f = WebServer::new(5, 1.0);
        let r = run_simulation(cfg, &mut f, 5).unwrap();
        assert!(r.stats.samples_interrupt > 0);
        for c in &r.completed {
            assert!(
                c.timeline.len() >= 3,
                "expected several periods, got {}",
                c.timeline.len()
            );
        }
    }

    #[test]
    fn syscall_sampling_prefers_inkernel_context() {
        let cfg = SimConfig::paper_default()
            .serial()
            .with_syscall_sampling(10, 1_000);
        let mut f = WebServer::new(5, 1.0);
        let r = run_simulation(cfg, &mut f, 10).unwrap();
        // The web server is syscall-dense: backup interrupts should be rare.
        assert!(
            r.stats.samples_inkernel > 10 * r.stats.samples_interrupt,
            "inkernel {} interrupt {}",
            r.stats.samples_inkernel,
            r.stats.samples_interrupt
        );
    }

    #[test]
    fn backup_interrupt_covers_quiet_stretches() {
        // Mbench-Spin makes no syscalls at all: every sample beyond context
        // switches must come from the backup interrupt.
        let cfg = SimConfig::paper_default()
            .serial()
            .with_syscall_sampling(10, 100);
        let mut f = Mbench::spin(30_000_000);
        let r = run_simulation(cfg, &mut f, 3).unwrap();
        assert!(
            r.stats.samples_interrupt > 50,
            "interrupt samples {}",
            r.stats.samples_interrupt
        );
    }

    #[test]
    fn transition_records_capture_writev_increase() {
        let cfg = SimConfig::paper_default()
            .serial()
            .with_syscall_sampling(2, 1_000);
        let mut f = WebServer::new(5, 1.0);
        let r = run_simulation(cfg, &mut f, 60).unwrap();
        let table = r.transition_table(5);
        let writev = table
            .iter()
            .find(|(n, ..)| *n == SyscallName::Writev)
            .expect("writev observed");
        assert!(
            writev.1 > 0.5,
            "writev should signal a CPI increase, got {}",
            writev.1
        );
    }

    #[test]
    fn multi_stage_requests_complete() {
        let r = small_run(SimConfig::paper_default(), AppId::Rubis, 12);
        assert_eq!(r.completed.len(), 12);
        for c in &r.completed {
            // All three stages' instructions are attributed.
            assert!(c.timeline.total_instructions() > 0.0);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut f = Tpcc::new(9, 0.05);
            run_simulation(SimConfig::paper_default(), &mut f, 10).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.completed.len(), b.completed.len());
        for (x, y) in a.completed.iter().zip(&b.completed) {
            assert_eq!(x.class, y.class);
            assert_eq!(x.finished_at, y.finished_at);
            assert_eq!(x.timeline, y.timeline);
        }
    }

    #[test]
    fn high_usage_accounting_tracks_threshold() {
        let mut cfg = SimConfig::paper_default();
        cfg.measure_threshold = Some(0.0); // everything counts as high
        let mut f = Tpcc::new(2, 0.05);
        let r = run_simulation(cfg, &mut f, 10).unwrap();
        assert!(r.stats.busy_cycles > 0.0);
        assert!((r.stats.high_usage_fraction_at_least(1) - 1.0).abs() < 1e-9);

        let mut cfg = SimConfig::paper_default();
        cfg.measure_threshold = Some(f64::INFINITY); // nothing is high
        let mut f = Tpcc::new(2, 0.05);
        let r = run_simulation(cfg, &mut f, 10).unwrap();
        assert_eq!(r.stats.high_usage_fraction_at_least(1), 0.0);
    }

    #[test]
    fn contention_easing_config_runs() {
        let mut cfg = SimConfig::paper_default();
        cfg.scheduler = SchedulerPolicy::ContentionEasing {
            high_usage_threshold: 1e-4,
        };
        cfg.sampling = SamplingPolicy::Interrupt {
            period: Cycles::from_micros(100),
        };
        let mut f = Tpcc::new(4, 0.05);
        let r = run_simulation(cfg, &mut f, 15).unwrap();
        assert_eq!(r.completed.len(), 15);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut cfg = SimConfig::paper_default();
        cfg.concurrency = 0;
        let mut f = Tpcc::new(1, 0.05);
        assert!(run_simulation(cfg, &mut f, 1).is_err());
    }

    #[test]
    fn latency_and_cpu_time_are_consistent() {
        let r = small_run(SimConfig::paper_default(), AppId::Tpcc, 10);
        for c in &r.completed {
            // CPU time cannot exceed wall latency.
            assert!(
                c.cpu_cycles() <= c.latency().as_f64() * 1.001,
                "cpu {} latency {}",
                c.cpu_cycles(),
                c.latency()
            );
        }
    }

    #[test]
    fn tpcc_txn_mix_survives_the_engine() {
        let r = small_run(SimConfig::paper_default(), AppId::Tpcc, 120);
        let new_orders = r
            .of_class(rbv_workloads::RequestClass::TpccTxn(TpccTxn::NewOrder))
            .len();
        assert!((30..75).contains(&new_orders), "new orders {new_orders}");
    }
}

#[cfg(test)]
mod fault_and_overload_tests {
    use super::*;
    use crate::config::{ArrivalProcess, OverloadPolicy, SimConfig};
    use crate::result::FailReason;
    use rbv_telemetry::TraceEvent;
    use rbv_workloads::{Tpcc, WebServer};

    #[test]
    fn permissive_overload_policy_is_bit_identical_to_none() {
        // With unbounded queues and no deadline, the admission path takes
        // the same decisions (and draws nothing from the fault stream) as
        // the unprotected engine: results match exactly.
        let run = |overload: Option<OverloadPolicy>| {
            let mut cfg = SimConfig::paper_default().with_syscall_sampling(10, 1_000);
            cfg.overload = overload;
            let mut f = Tpcc::new(33, 0.05);
            run_simulation(cfg, &mut f, 15).expect("valid")
        };
        let baseline = run(None);
        let permissive = run(Some(OverloadPolicy {
            max_runqueue: usize::MAX,
            deadline: None,
            max_retries: 5,
            retry_backoff: Cycles::from_micros(100),
        }));
        assert_eq!(baseline, permissive);
        assert!(permissive.failed.is_empty());
    }

    #[test]
    fn lost_interrupts_flag_low_confidence_samples() {
        let mut cfg = SimConfig::paper_default()
            .serial()
            .with_interrupt_sampling(20);
        cfg.faults.lost_interrupt_prob = 0.3;
        let mut f = WebServer::new(5, 1.0);
        let r = run_simulation(cfg, &mut f, 10).expect("valid");
        assert!(r.stats.samples_lost > 0, "lost {}", r.stats.samples_lost);
        assert!(
            r.stats.samples_low_confidence > 0,
            "low confidence {}",
            r.stats.samples_low_confidence
        );
        // Degradation, not corruption: the run still completes everything.
        assert_eq!(r.completed.len(), 10);
    }

    #[test]
    fn counter_overflows_are_zeroed_and_flagged() {
        let mut cfg = SimConfig::paper_default()
            .serial()
            .with_interrupt_sampling(20);
        cfg.faults.counter_overflow_prob = 0.2;
        let mut f = Tpcc::new(6, 0.05);
        let r = run_simulation(cfg, &mut f, 10).expect("valid");
        assert!(r.stats.counter_overflows > 0);
        assert!(r.stats.samples_low_confidence >= r.stats.counter_overflows);
    }

    #[test]
    fn starvation_windows_degrade_to_backup_interrupts() {
        // Extends `backup_interrupt_covers_quiet_stretches`: there the
        // workload makes no syscalls; here the workload is syscall-dense
        // but injected starvation suppresses the syscall sampling path, so
        // the backup interrupt timer must pick up the slack.
        let run = |prob: f64| {
            let mut cfg = SimConfig::paper_default()
                .serial()
                .with_syscall_sampling(5, 25);
            cfg.faults.syscall_starvation_prob = prob;
            cfg.faults.syscall_starvation_window = Cycles::from_millis(1);
            let mut f = WebServer::new(5, 1.0);
            run_simulation(cfg, &mut f, 20).expect("valid")
        };
        let healthy = run(0.0);
        let starved = run(0.5);
        assert!(starved.stats.starvation_windows > 0);
        assert!(
            starved.stats.samples_interrupt > healthy.stats.samples_interrupt,
            "backup must cover starved stretches: {} vs healthy {}",
            starved.stats.samples_interrupt,
            healthy.stats.samples_interrupt
        );
        assert!(
            starved.stats.samples_inkernel < healthy.stats.samples_inkernel,
            "starvation must suppress syscall samples: {} vs healthy {}",
            starved.stats.samples_inkernel,
            healthy.stats.samples_inkernel
        );
    }

    #[test]
    fn deadlines_abort_straggling_requests() {
        let deadline = Cycles::from_micros(150);
        let mut cfg = SimConfig::paper_default();
        cfg.overload = Some(OverloadPolicy {
            max_runqueue: usize::MAX,
            deadline: Some(deadline),
            max_retries: 0,
            retry_backoff: Cycles::from_micros(100),
        });
        let mut f = Tpcc::new(7, 0.05);
        let r = run_simulation(cfg, &mut f, 20).expect("valid");
        assert!(r.stats.deadline_aborts > 0);
        assert_eq!(r.completed.len() + r.failed.len(), 20);
        for fr in &r.failed {
            assert_eq!(fr.reason, FailReason::DeadlineAbort);
            assert!(fr.failed_at.saturating_sub(fr.arrived_at) >= deadline);
        }
        // Every completion beat its deadline.
        for c in &r.completed {
            assert!(c.latency() <= deadline);
        }
    }

    #[test]
    fn bounded_admission_sheds_under_open_loop_overload() {
        let mut cfg = SimConfig::paper_default();
        cfg.arrivals = ArrivalProcess::OpenPoisson {
            mean_interarrival: Cycles::from_micros(6),
        };
        cfg.overload = Some(OverloadPolicy {
            max_runqueue: 2,
            deadline: None,
            max_retries: 1,
            retry_backoff: Cycles::from_micros(50),
        });
        let mut f = Tpcc::new(13, 0.05);
        let r = run_simulation(cfg, &mut f, 40).expect("valid");
        assert!(r.stats.admission_rejections > 0);
        assert!(r.stats.admission_retries > 0);
        assert!(r.stats.load_shed > 0, "shed {}", r.stats.load_shed);
        assert_eq!(r.completed.len() + r.failed.len(), 40);
        for fr in &r.failed {
            assert_eq!(fr.reason, FailReason::AdmissionShed);
        }
    }

    /// End-to-end label flow for the overload rungs: a guarded run driven
    /// into sustained admission pressure walks the ladder below `stock`,
    /// and the trace stream carries the `shed`/`brownout` labels that the
    /// Perfetto exporter passes through verbatim.
    #[test]
    fn traced_overload_descent_emits_overload_rung_transitions() {
        let mut cfg = SimConfig::paper_default();
        cfg.arrivals = ArrivalProcess::OpenPoisson {
            mean_interarrival: Cycles::from_micros(6),
        };
        cfg.overload = Some(OverloadPolicy {
            max_runqueue: 2,
            deadline: None,
            max_retries: 1,
            retry_backoff: Cycles::from_micros(50),
        });
        cfg.guard = true;
        let mut sink = rbv_telemetry::MemorySink::new();
        let mut f = Tpcc::new(13, 0.05);
        // Long enough for the descent to reach brownout at one rung per
        // 2 ms dwell.
        let r = run_simulation_traced(cfg, &mut f, 1600, &mut sink).expect("valid");
        assert!(r.stats.admission_rejections > 0);
        let moves: Vec<(String, String)> = sink
            .into_events()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::HealthTransition { from, to, .. } => Some((from, to)),
                _ => None,
            })
            .collect();
        assert!(
            moves.contains(&("stock".to_string(), "shed".to_string())),
            "no stock->shed transition in {moves:?}"
        );
        assert!(
            moves.contains(&("shed".to_string(), "brownout".to_string())),
            "no shed->brownout transition in {moves:?}"
        );
        let known = ["easing", "frozen_predictions", "stock", "shed", "brownout"];
        for (from, to) in &moves {
            assert!(known.contains(&from.as_str()), "unknown rung label {from}");
            assert!(known.contains(&to.as_str()), "unknown rung label {to}");
        }
        assert_eq!(r.stats.health_transitions, moves.len() as u64);
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let run = || {
            let mut cfg = SimConfig::paper_default().with_interrupt_sampling(50);
            cfg.faults.lost_interrupt_prob = 0.2;
            cfg.faults.counter_skid_sigma = 0.1;
            cfg.faults.counter_overflow_prob = 0.05;
            let mut f = Tpcc::new(9, 0.05);
            run_simulation(cfg, &mut f, 12).expect("valid")
        };
        assert_eq!(run(), run());
    }
}

#[cfg(test)]
mod arrival_and_partition_tests {
    use super::*;
    use crate::config::{ArrivalProcess, SimConfig};
    use rbv_workloads::Tpcc;

    #[test]
    fn open_loop_arrivals_complete_and_queue() {
        let mut cfg = SimConfig::paper_default();
        // Arrivals far faster than service: a queue must form, and
        // latencies must exceed CPU times by the queueing delay.
        cfg.arrivals = ArrivalProcess::OpenPoisson {
            mean_interarrival: Cycles::from_micros(6),
        };
        let mut f = Tpcc::new(13, 0.05);
        let r = run_simulation(cfg, &mut f, 30).expect("valid");
        assert_eq!(r.completed.len(), 30);
        let queued = r
            .completed
            .iter()
            .filter(|c| c.latency().as_f64() > c.cpu_cycles() * 1.5)
            .count();
        assert!(queued > 5, "overloaded open loop should queue ({queued})");
    }

    #[test]
    fn light_open_loop_rarely_queues() {
        let mut cfg = SimConfig::paper_default();
        cfg.arrivals = ArrivalProcess::OpenPoisson {
            mean_interarrival: Cycles::from_millis(4),
        };
        let mut f = Tpcc::new(13, 0.05);
        let r = run_simulation(cfg, &mut f, 30).expect("valid");
        assert_eq!(r.completed.len(), 30);
        let unqueued = r
            .completed
            .iter()
            .filter(|c| c.latency().as_f64() < c.cpu_cycles() * 1.2)
            .count();
        assert!(
            unqueued > 20,
            "light load should mostly run directly ({unqueued})"
        );
    }

    #[test]
    fn open_loop_is_deterministic() {
        let run = || {
            let mut cfg = SimConfig::paper_default();
            cfg.arrivals = ArrivalProcess::OpenPoisson {
                mean_interarrival: Cycles::from_micros(200),
            };
            let mut f = Tpcc::new(14, 0.05);
            run_simulation(cfg, &mut f, 12).expect("valid")
        };
        let (a, b) = (run(), run());
        for (x, y) in a.completed.iter().zip(&b.completed) {
            assert_eq!(x.arrived_at, y.arrived_at);
            assert_eq!(x.finished_at, y.finished_at);
        }
    }

    #[test]
    fn static_partitioning_changes_contention_outcomes() {
        let run = |partition: bool| {
            let mut cfg = SimConfig::paper_default().with_interrupt_sampling(100);
            cfg.static_cache_partition = partition;
            let mut f = Tpcc::new(15, 0.1);
            run_simulation(cfg, &mut f, 25).expect("valid")
        };
        let shared = run(false);
        let partitioned = run(true);
        assert_eq!(partitioned.completed.len(), 25);
        // The policies must produce genuinely different performance.
        let mean = |r: &RunResult| {
            let c = r.request_cpis();
            c.iter().sum::<f64>() / c.len() as f64
        };
        assert!((mean(&shared) - mean(&partitioned)).abs() > 1e-3);
    }
}

#[cfg(test)]
mod stealing_tests {
    use super::*;
    use crate::config::SimConfig;
    use rbv_workloads::{Tpcc, TpccTxn};

    /// A factory producing one giant request followed by many tiny ones:
    /// without migration the tiny ones can starve behind the giant's core.
    struct Skewed {
        inner: Tpcc,
        emitted: usize,
    }

    impl rbv_workloads::RequestFactory for Skewed {
        fn app(&self) -> rbv_workloads::AppId {
            rbv_workloads::AppId::Tpcc
        }

        fn next_request(&mut self) -> rbv_workloads::Request {
            self.emitted += 1;
            if self.emitted % 4 == 1 {
                self.inner.request_of_txn(TpccTxn::Delivery) // ~10x longer
            } else {
                self.inner.request_of_txn(TpccTxn::OrderStatus)
            }
        }
    }

    #[test]
    fn work_stealing_reduces_makespan_on_skewed_load() {
        let run = |stealing: bool| {
            let mut cfg = SimConfig::paper_default();
            cfg.work_stealing = stealing;
            cfg.concurrency = 12;
            let mut f = Skewed {
                inner: Tpcc::new(50, 0.2),
                emitted: 0,
            };
            run_simulation(cfg, &mut f, 40).expect("valid")
        };
        let without = run(false);
        let with = run(true);
        assert_eq!(with.completed.len(), 40);
        assert!(
            with.total_time <= without.total_time,
            "stealing should not lengthen the run: {} vs {}",
            with.total_time,
            without.total_time
        );
    }

    #[test]
    fn stealing_never_loses_requests() {
        let mut cfg = SimConfig::paper_default();
        cfg.work_stealing = true;
        cfg.concurrency = 20;
        let mut f = Tpcc::new(51, 0.05);
        let r = run_simulation(cfg, &mut f, 60).expect("valid");
        assert_eq!(r.completed.len(), 60);
        let mut ids: Vec<usize> = r.completed.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 60, "no duplicates or losses");
    }
}

#[cfg(test)]
mod bigram_policy_tests {
    use super::*;
    use crate::config::SimConfig;
    use rbv_workloads::WebServer;

    #[test]
    fn transition_records_carry_previous_names() {
        let mut cfg = SimConfig::paper_default().with_syscall_sampling(2, 1_000);
        let mut f = WebServer::new(62, 1.0);
        let r = run_simulation(cfg.clone(), &mut f, 20).expect("valid");
        cfg.seed = 1;
        let with_prev = r
            .transitions
            .iter()
            .filter(|t| t.prev_name.is_some())
            .count();
        assert!(
            with_prev * 2 > r.transitions.len(),
            "most transitions should know their predecessor ({with_prev}/{})",
            r.transitions.len()
        );
    }
}

#[cfg(test)]
mod openloop_tests {
    use super::*;
    use crate::config::{
        ArrivalProcess, ClientPolicy, OverloadPolicy, QueueDiscipline, ShedPolicy, SimConfig,
    };
    use crate::result::FailReason;
    use rbv_workloads::Tpcc;

    fn open_cfg(mean_micros: u64) -> SimConfig {
        let mut cfg = SimConfig::paper_default();
        cfg.arrivals = ArrivalProcess::OpenPoisson {
            mean_interarrival: Cycles::from_micros(mean_micros),
        };
        cfg
    }

    /// Sorted arrival instants of every finished request (completions and
    /// failures), for arrival-process statistics.
    fn arrival_times(r: &RunResult) -> Vec<Cycles> {
        let mut at: Vec<Cycles> = r
            .completed
            .iter()
            .map(|c| c.arrived_at)
            .chain(r.failed.iter().map(|f| f.arrived_at))
            .collect();
        at.sort_unstable();
        at
    }

    /// Squared coefficient of variation of the interarrival gaps: 1 for
    /// Poisson, above 1 for bursty processes.
    fn gap_cv2(times: &[Cycles]) -> f64 {
        let gaps: Vec<f64> = times
            .windows(2)
            .map(|w| w[1].saturating_sub(w[0]).as_f64())
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        var / (mean * mean)
    }

    #[test]
    fn permissive_client_and_shed_policies_are_bit_identical_to_none() {
        // A client too patient to ever time out and a CoDel target no
        // sojourn can exceed take none of the new paths: results match
        // the plain open-loop engine bit for bit.
        let run = |defended: bool| {
            let mut cfg = open_cfg(50).with_syscall_sampling(10, 1_000);
            if defended {
                cfg.client = Some(ClientPolicy {
                    timeout: Cycles::from_millis(60_000),
                    max_retries: 3,
                    retry_backoff: Cycles::from_micros(100),
                });
                cfg.shed = Some(ShedPolicy {
                    target: Cycles::from_millis(60_000),
                    interval: Cycles::from_millis(60_000),
                });
            }
            let mut f = Tpcc::new(23, 0.05);
            run_simulation(cfg, &mut f, 20).expect("valid")
        };
        let baseline = run(false);
        let permissive = run(true);
        assert_eq!(baseline, permissive);
        assert!(permissive.failed.is_empty());
        assert_eq!(permissive.stats.client_timeouts, 0);
        assert_eq!(permissive.stats.codel_shed, 0);
    }

    #[test]
    fn mmpp_arrivals_are_deterministic_and_burstier_than_poisson() {
        let mmpp = || {
            let mut cfg = SimConfig::paper_default();
            cfg.arrivals = ArrivalProcess::OpenMmpp {
                mean_interarrival: Cycles::from_micros(200),
                burst_mean_interarrival: Cycles::from_micros(10),
                mean_calm_dwell: Cycles::from_millis(2),
                mean_burst_dwell: Cycles::from_millis(1),
            };
            let mut f = Tpcc::new(31, 0.05);
            run_simulation(cfg, &mut f, 60).expect("valid")
        };
        let (a, b) = (mmpp(), mmpp());
        assert_eq!(a, b, "MMPP arrivals must be deterministic");

        let mut f = Tpcc::new(31, 0.05);
        let poisson = run_simulation(open_cfg(200), &mut f, 60).expect("valid");
        let cv2_mmpp = gap_cv2(&arrival_times(&a));
        let cv2_poisson = gap_cv2(&arrival_times(&poisson));
        assert!(
            cv2_mmpp > cv2_poisson,
            "MMPP should be burstier: cv2 {cv2_mmpp} vs poisson {cv2_poisson}"
        );
    }

    #[test]
    fn queue_disciplines_complete_everything_and_differ() {
        let run = |d: Option<QueueDiscipline>| {
            let mut cfg = open_cfg(100);
            cfg.queue_discipline = d;
            let mut f = Tpcc::new(37, 0.05);
            run_simulation(cfg, &mut f, 40).expect("valid")
        };
        let dfcfs = run(Some(QueueDiscipline::Dfcfs));
        let cfcfs = run(Some(QueueDiscipline::Cfcfs));
        assert_eq!(dfcfs.completed.len(), 40);
        assert_eq!(cfcfs.completed.len(), 40);
        // RSS hash steering and the shared central queue genuinely place
        // requests differently.
        assert_ne!(
            dfcfs.completed.last().expect("nonempty").finished_at,
            cfcfs.completed.last().expect("nonempty").finished_at
        );
    }

    #[test]
    fn client_timeouts_retry_and_conserve_requests() {
        let mut cfg = open_cfg(6);
        // Queues deep enough that admitted requests wait well past the
        // client's patience, so timeouts fire while requests sit queued.
        cfg.overload = Some(OverloadPolicy {
            max_runqueue: 16,
            deadline: None,
            max_retries: 1,
            retry_backoff: Cycles::from_micros(50),
        });
        cfg.client = Some(ClientPolicy {
            timeout: Cycles::from_micros(300),
            max_retries: 2,
            retry_backoff: Cycles::from_micros(30),
        });
        let mut f = Tpcc::new(41, 0.05);
        let r = run_simulation(cfg, &mut f, 50).expect("valid");
        assert!(r.stats.client_timeouts > 0);
        assert!(r.stats.client_retries > 0);
        assert!(r.stats.wasted_cycles > 0.0);
        // Conservation under the retry storm: every generated request is
        // accounted for exactly once.
        assert_eq!(r.completed.len() + r.failed.len(), 50);
        for fr in &r.failed {
            assert!(
                matches!(
                    fr.reason,
                    FailReason::AdmissionShed | FailReason::ClientTimeout
                ),
                "unexpected reason {:?}",
                fr.reason
            );
        }
    }

    #[test]
    fn codel_sheds_persistently_overqueued_requests() {
        let mut cfg = open_cfg(6);
        cfg.shed = Some(ShedPolicy {
            target: Cycles::from_micros(30),
            interval: Cycles::from_micros(60),
        });
        let mut f = Tpcc::new(43, 0.05);
        let r = run_simulation(cfg, &mut f, 40).expect("valid");
        assert!(r.stats.codel_shed > 0, "shed {}", r.stats.codel_shed);
        assert_eq!(r.completed.len() + r.failed.len(), 40);
        for fr in &r.failed {
            assert_eq!(fr.reason, FailReason::CodelShed);
        }
    }

    struct CountSink {
        completed: u64,
        failed: u64,
        cpu_cycles: f64,
    }

    impl CompletionSink for CountSink {
        fn on_complete(&mut self, request: &CompletedRequest) {
            self.completed += 1;
            self.cpu_cycles += request.cpu_cycles();
        }

        fn on_fail(&mut self, _request: &FailedRequest) {
            self.failed += 1;
        }
    }

    #[test]
    fn streaming_run_matches_retained_run() {
        let cfg = || {
            let mut cfg = open_cfg(6);
            cfg.overload = Some(OverloadPolicy {
                max_runqueue: 2,
                deadline: None,
                max_retries: 1,
                retry_backoff: Cycles::from_micros(50),
            });
            cfg
        };
        let mut f = Tpcc::new(47, 0.05);
        let retained = run_simulation(cfg(), &mut f, 40).expect("valid");
        let mut f = Tpcc::new(47, 0.05);
        let mut sink = CountSink {
            completed: 0,
            failed: 0,
            cpu_cycles: 0.0,
        };
        let streamed = run_simulation_streaming(cfg(), &mut f, 40, &mut sink).expect("valid");
        // Identical statistics and simulated time; nothing retained.
        assert_eq!(retained.stats, streamed.stats);
        assert_eq!(retained.total_time, streamed.total_time);
        assert!(streamed.completed.is_empty() && streamed.failed.is_empty());
        assert_eq!(sink.completed as usize, retained.completed.len());
        assert_eq!(sink.failed as usize, retained.failed.len());
        let retained_cpu: f64 = retained.completed.iter().map(|c| c.cpu_cycles()).sum();
        assert!((sink.cpu_cycles - retained_cpu).abs() < 1e-6 * retained_cpu.max(1.0));
    }
}
