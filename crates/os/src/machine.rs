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
//!   configured [`SamplingPolicy`];
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

// The engine's `expect`s assert cross-structure scheduling invariants
// (a running rid always indexes a live request, a checked Option is
// re-read one line later, and so on). A violated invariant is a
// simulator bug where continuing would silently corrupt results;
// panicking with the invariant named is the designed failure mode, so
// these sites are exempt from the crate-wide `expect_used` ban.
#![allow(clippy::expect_used)]

use std::collections::VecDeque;

use rbv_core::predict::{Predictor, VaEwma};
use rbv_core::series::{Metric, SamplePeriod, Timeline};
use rbv_guard::{
    governor, health, Governor, GovernorAction, HealthLadder, InvariantKind, InvariantMonitor,
    LadderRung, PowerLadder, WindowSample, EASING_ERROR_GATE,
};
use rbv_mem::{ContentionSolver, PerfEstimate, SegmentProfile};
use rbv_power::{CorePower, ThermalStorm};
use rbv_sim::rng::mix64;
use rbv_sim::{Cycles, EventQueue, SimRng};
use rbv_telemetry::{SampleOrigin, SwitchReason, TraceEvent, TraceSink};
use rbv_workloads::{Request, RequestFactory, Stage, SyscallName};

use crate::config::{ArrivalProcess, QueueDiscipline, SamplingPolicy, SchedulerPolicy, SimConfig};
use crate::error::RbvError;
use crate::observer::{injected_cost, pollution_of, spin_baseline, SampleMode, SamplingContext};
use crate::result::{
    CompletedRequest, EnergyStats, FailReason, FailedRequest, RunResult, RunStats, SyscallRecord,
    TransitionRecord,
};

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
    let mut engine = Engine::new(cfg, n_requests, None);
    Ok(engine.run(factory))
}

/// Like [`run_simulation`], but streams structured [`TraceEvent`]s into
/// `sink` as the simulated kernel acts.
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
    let mut engine = Engine::new(cfg, n_requests, Some(sink));
    let result = engine.run(factory);
    drop(engine);
    sink.finish();
    Ok(result)
}

/// Streaming consumer of finished requests for bounded-memory runs: the
/// engine hands each completion or failure over exactly once, in event
/// order, and then drops it instead of retaining it in the result
/// vectors. Memory stays proportional to the number of *live* requests
/// regardless of run length.
pub trait CompletionSink {
    /// One request completed end to end.
    fn on_complete(&mut self, request: &CompletedRequest);
    /// One request was shed, timed out, or aborted.
    fn on_fail(&mut self, request: &FailedRequest);
}

/// Like [`run_simulation`], but folds every finished request into
/// `completions` instead of retaining it, so memory stays bounded by the
/// live-request population. The returned [`RunResult`] carries empty
/// `completed`/`failed` vectors alongside the full statistics.
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
    let mut engine = Engine::new(cfg, n_requests, None);
    engine.completions = Some(completions);
    Ok(engine.run(factory))
}

/// Combines [`run_simulation_streaming`] and [`run_simulation_traced`]:
/// finished requests fold into `completions` while structured
/// [`TraceEvent`]s stream into `sink`, both in event order. With a
/// streaming trace consumer (one that folds events instead of retaining
/// them) memory stays proportional to the live-request population — the
/// discipline span reconstruction relies on.
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
    let mut engine = Engine::new(cfg, n_requests, Some(sink));
    engine.completions = Some(completions);
    let result = engine.run(factory);
    drop(engine);
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
/// under [`ArrivalProcess::External`] the machine spawns nothing itself
/// and every request enters through [`Machine::inject`].
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
    /// irrelevant under [`ArrivalProcess::External`], where the owner
    /// decides when the cluster is done).
    ///
    /// # Errors
    ///
    /// Returns [`RbvError::Config`] if `cfg` is invalid.
    pub fn new(cfg: SimConfig, target: usize) -> Result<Machine, RbvError> {
        cfg.validate()?;
        Ok(Machine {
            engine: Engine::new(cfg, target, None),
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
        self.engine.queue.peek_time()
    }

    /// Whether the machine has resolved (completed or failed) its
    /// configured target of self-spawned requests.
    pub fn target_reached(&self) -> bool {
        self.engine.n_completed + self.engine.n_failed >= self.engine.target
    }

    /// Requests resolved so far (completed plus failed).
    pub fn resolved(&self) -> usize {
        self.engine.n_completed + self.engine.n_failed
    }

    /// Hands the machine a request arriving over the network at absolute
    /// time `at` (clamped to the machine's clock; the cluster's global
    /// ordering guarantees `at` is never in the machine's past). Returns
    /// the machine-local request id, which tags the eventual
    /// [`CompletedRequest`] from [`Machine::drain_finished`].
    ///
    /// An injected request is delivered by a `HopWakeup` event straight
    /// into a runqueue — admission control is the ingress machine's
    /// business, not the receiving tier's.
    pub fn inject(&mut self, request: Request, at: Cycles) -> usize {
        debug_assert!(request.validate().is_ok());
        let engine = &mut self.engine;
        let at = at.max(engine.queue.now());
        let id = engine.push_live(request, at);
        engine.queue.schedule(at, Event::HopWakeup { rid: id });
        id
    }

    /// Takes every request resolved since the last drain, in resolution
    /// order. The cluster correlates the machine-local ids back to its
    /// global request identities.
    pub fn drain_finished(&mut self) -> (Vec<CompletedRequest>, Vec<FailedRequest>) {
        (
            std::mem::take(&mut self.engine.completed),
            std::mem::take(&mut self.engine.failed),
        )
    }

    /// Closes the run (final guard window or debug invariant sweep,
    /// power finalization) and returns the machine's [`RunResult`].
    pub fn finish(mut self) -> RunResult {
        self.engine.finish_run()
    }
}

/// Sub-instruction tolerance when matching instruction boundaries.
const INS_EPS: f64 = 0.5;

/// Relative sigma of the multiplicative measurement noise on the L2
/// reference/miss counts of each collected sample period. Real
/// performance-counter sampling jitters (interrupt skid, unattributed
/// speculative events, unrelated kernel activity); a noiseless simulator
/// would make trivial last-value prediction look unbeatable in Figure 11.
const COUNTER_NOISE: f64 = 0.08;
const _: () = assert!(COUNTER_NOISE > 0.0 && COUNTER_NOISE < 1.0);

/// A fault or power multiplier at its nominal value (milli-units).
const NOMINAL_MILLI: u32 = rbv_power::MILLI as u32;

// The guard's frequency cap is a real P-state, faster than the
// firmware clamp it exists to pre-empt.
const _: () = assert!(rbv_guard::power::CAP_PSTATE < rbv_power::SLOWEST);

/// The paper's "do no harm" compensation (§3.1): subtracts the minimum
/// observer effect of the sampling hook whose cost was `injected` into
/// this period from the period's counters.
fn subtract_observer_floor(period: &mut SamplePeriod, injected: Option<SamplingContext>) {
    if let Some(ctx) = injected {
        let min_cost = spin_baseline(ctx);
        period.cycles = (period.cycles - min_cost.cycles).max(0.0);
        period.instructions = (period.instructions - min_cost.instructions).max(0.0);
        period.l2_refs = (period.l2_refs - min_cost.l2_refs).max(0.0);
        period.l2_misses = (period.l2_misses - min_cost.l2_misses).max(0.0);
    }
}

/// Standard normal draw (Box–Muller) from the deterministic stream.
fn gaussian(rng: &mut SimRng) -> f64 {
    use rand::Rng;
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}
/// vaEWMA unit observation length t̂: 1 ms, as in §5.1.
const PREDICTOR_UNIT: f64 = 1.0;
/// vaEWMA gain α: the paper settles on 0.6 (§5.1).
const PREDICTOR_ALPHA: f64 = 0.6;
/// Contention-easing re-scheduling attempt interval: the paper's ≤ 5 ms
/// (§5.2).
const RESCHED_INTERVAL: Cycles = Cycles::from_millis(5);

#[derive(Debug, Clone, Copy)]
enum Event {
    /// The running task reaches its next instruction boundary (phase end,
    /// syscall, or stage end).
    Milestone { core: usize, epoch: u64 },
    /// Scheduling quantum expiry.
    Quantum { core: usize, epoch: u64 },
    /// Periodic or backup sampling interrupt.
    SampleTimer { core: usize, epoch: u64 },
    /// Contention-easing re-scheduling opportunity.
    Resched { core: usize, epoch: u64 },
    /// Open-loop request arrival.
    Arrival,
    /// A request delivered from another machine becomes runnable here
    /// (see [`Machine::inject`]).
    HopWakeup { rid: usize },
    /// The closed-loop client retries admission after backoff (overload
    /// protection). `gen` is the client attempt generation at scheduling
    /// time: a retry armed before a client timeout reset the request is
    /// stale and must not re-admit it.
    Retry { rid: usize, attempt: u32, gen: u32 },
    /// End-to-end deadline expiry check for a request.
    DeadlineCheck { rid: usize },
    /// The client's patience for attempt `gen` of a request runs out.
    ClientTimeout { rid: usize, gen: u32 },
    /// The client resubmits a timed-out request after backoff.
    ClientResubmit { rid: usize, gen: u32 },
    /// Guard accounting-window boundary: the governor reads the window's
    /// observer costs, the health ladder rescores, and the invariant
    /// monitor runs its checks. Never scheduled when
    /// [`SimConfig::guard`] is off.
    GuardTick,
}

#[derive(Debug, Default)]
struct Core {
    running: Option<usize>,
    milestone_epoch: u64,
    quantum_epoch: u64,
    sample_epoch: u64,
    resched_epoch: u64,
    last_sample: Cycles,
}

#[derive(Debug)]
struct LiveRequest {
    id: usize,
    request: Request,
    stage_idx: usize,
    ins_in_stage: f64,
    phase_idx: usize,
    next_syscall: usize,
    timeline: Timeline,
    accum: SamplePeriod,
    /// Sampling context whose observer events were injected into `accum`.
    accum_injection: Option<SamplingContext>,
    cum_cycles: f64,
    cum_ins: f64,
    syscalls: Vec<SyscallRecord>,
    arrived_at: Cycles,
    predictor: VaEwma,
    pending_transition: Option<(Option<SyscallName>, SyscallName, f64)>,
    last_syscall: Option<SyscallName>,
    noise_rng: SimRng,
    /// Client attempt generation: 0 for the first submission, bumped on
    /// every client-timeout resubmission. Stale timer events carrying an
    /// older generation are ignored.
    attempt: u32,
    /// Instant the request last entered a runqueue (CoDel sojourn base).
    queued_at: Cycles,
}

impl LiveRequest {
    fn stage(&self) -> &Stage {
        &self.request.stages[self.stage_idx]
    }

    fn profile(&self) -> SegmentProfile {
        self.stage().phases[self.phase_idx].profile
    }

    /// Next instruction boundary within the current stage and whether it
    /// is a syscall (syscalls win ties so transition records see the old
    /// phase as "before").
    fn next_boundary(&self) -> (f64, bool) {
        let stage = self.stage();
        let phase_end = stage.phases[self.phase_idx].end_ins.as_f64();
        let syscall_at = stage
            .syscalls
            .get(self.next_syscall)
            .map_or(f64::INFINITY, |s| s.at_ins.as_f64());
        if syscall_at <= phase_end {
            (syscall_at, true)
        } else {
            (phase_end, false)
        }
    }
}

/// Snapshot of the observer-cost counters at the start of the current
/// guard accounting window, plus the guard components themselves. Lives
/// in its own struct so `on_guard_tick` can `take()` it while borrowing
/// the rest of the engine.
struct GuardState {
    governor: Governor,
    ladder: HealthLadder,
    monitor: InvariantMonitor,
    /// Power-capping ladder, armed exactly when the engine also has a
    /// power model to read thermal pressure from.
    power_ladder: Option<PowerLadder>,
    /// Core parked by the ladder's emergency rung: chosen as the hottest
    /// core at the instant the ladder enters the park rung, and latched
    /// until it leaves (so the choice cannot thrash between cores as
    /// temperatures shift under it).
    parked: Option<usize>,
    /// Start instant of the current accounting window.
    win_start: Cycles,
    base_busy: f64,
    base_sampling: f64,
    base_samples: u64,
    base_lost: u64,
    base_low_conf: u64,
    base_starved: u64,
    base_offered: u64,
    base_rejected: u64,
}

impl GuardState {
    fn new(powered: bool) -> GuardState {
        GuardState {
            governor: Governor::new(),
            ladder: HealthLadder::new(),
            monitor: InvariantMonitor::new(),
            power_ladder: powered.then(PowerLadder::new),
            parked: None,
            win_start: Cycles::ZERO,
            base_busy: 0.0,
            base_sampling: 0.0,
            base_samples: 0,
            base_lost: 0,
            base_low_conf: 0,
            base_starved: 0,
            base_offered: 0,
            base_rejected: 0,
        }
    }
}

/// Per-core DVFS/thermal integration state, present only when
/// [`SimConfig::power`] is set. Everything here is accounted in exact
/// integer arithmetic (`rbv-power`), so powered ledgers stay byte-identical
/// under any shard count.
struct PowerState {
    /// The thermal storm, when [`SimConfig::thermal_storm`] is set.
    storm: Option<ThermalStorm>,
    /// Per-core temperature, throttle latch, and energy accumulator.
    cores: Vec<CorePower>,
    /// Effective P-state in force on each core during the current
    /// accounting slice (firmware throttle already applied).
    slice_pstate: Vec<usize>,
    /// Activity milli-fraction of each core during the current slice
    /// (0 for idle cores: static power only).
    slice_act_milli: Vec<u32>,
    /// Last P-state recorded per core, for DVFS transition edges.
    last_pstate: Vec<usize>,
    /// Running machine-wide energy total; the energy-conservation
    /// invariant requires this to equal the per-core sum *exactly*.
    total_uw_cycles: u128,
    /// DVFS transition edges observed across all cores.
    dvfs_transitions: u64,
    /// Hottest temperature any core reached, milli-°C.
    max_temp_milli_c: i64,
}

struct Engine<'s> {
    cfg: SimConfig,
    queue: EventQueue<Event>,
    cores: Vec<Core>,
    runqueues: Vec<VecDeque<usize>>,
    live: Vec<Option<LiveRequest>>,
    rates: Vec<Option<PerfEstimate>>,
    rates_dirty: bool,
    /// Reused contention-model buffers: the per-core profiles and static
    /// partition shares fed to the model, and its fixed-point scratch.
    profiles: Vec<Option<SegmentProfile>>,
    shares: Vec<f64>,
    solver: ContentionSolver,
    last_advance: Cycles,
    completed: Vec<CompletedRequest>,
    failed: Vec<FailedRequest>,
    transitions: Vec<TransitionRecord>,
    stats: RunStats,
    target: usize,
    generated: usize,
    rng: SimRng,
    /// Dedicated stream for fault injection and overload-protection
    /// jitter. Nothing is drawn from it when faults are disabled and no
    /// overload policy is set, so fault-free runs stay bit-identical to
    /// builds that predate fault injection.
    fault_rng: SimRng,
    /// Per-core end instants of injected syscall-sampling starvation
    /// windows (`ZERO` = not starved).
    starved_until: Vec<Cycles>,
    /// Per-core reason the next collected sample must be flagged
    /// low-confidence (set by a lost sampling interrupt).
    low_conf: Vec<Option<&'static str>>,
    /// Running mean relative error of vaEWMA predictions (easing gate).
    pred_err: f64,
    pred_err_primed: bool,
    /// Whether the prediction-confidence gate currently suspends easing.
    gate_engaged: bool,
    /// Structured-event sink; `None` costs one branch per emission point.
    sink: Option<&'s mut dyn TraceSink>,
    /// Simultaneous-high-usage core count last reported to the sink.
    trace_high: usize,
    /// Adaptive sampling governor, health ladder, and invariant monitor.
    /// `None` (the default) schedules no guard events and leaves every
    /// sampling interval untouched, keeping ungoverned runs bit-identical
    /// to builds that predate the guard.
    guard: Option<GuardState>,
    /// Sampling-interval multiplier the governor currently commands.
    /// Exactly 1.0 for ungoverned runs; the interval helpers return their
    /// input unchanged in that case.
    sample_scale: f64,
    /// Context switches since the last context-switch sample, for the
    /// governor's per-mode decimation (always 0 while `sample_scale` is
    /// 1.0, so ungoverned runs sample every switch).
    cs_skip: u64,
    /// Streaming completion sink for bounded-memory runs; `None` retains
    /// finished requests in the result vectors.
    completions: Option<&'s mut dyn CompletionSink>,
    /// Completion/failure counts — identical to the result vector lengths
    /// when not streaming, and the only record of them when streaming.
    n_completed: usize,
    n_failed: usize,
    /// MMPP arrival modulation: whether the process is currently in its
    /// burst state, and when the current dwell ends (`ZERO` = the first
    /// dwell has not been drawn yet).
    mmpp_burst: bool,
    mmpp_until: Cycles,
    /// Per-queue instant since when dequeued sojourns have continuously
    /// exceeded the CoDel target (`None` = last sojourn was below it).
    codel_above: Vec<Option<Cycles>>,
    /// DVFS/power/thermal integration state; `None` (the default) skips
    /// every power branch and keeps runs bit-identical to power-unaware
    /// builds.
    power: Option<PowerState>,
}

impl<'s> Engine<'s> {
    fn new(cfg: SimConfig, target: usize, sink: Option<&'s mut dyn TraceSink>) -> Engine<'s> {
        let cores = cfg.machine.topology.cores;
        let seed = cfg.seed;
        let guard = cfg.guard.then(|| GuardState::new(cfg.power.is_some()));
        let power = cfg.power.map(|_| PowerState {
            storm: cfg.thermal_storm.then(|| ThermalStorm::new(seed, cores)),
            cores: vec![CorePower::new(); cores],
            slice_pstate: vec![0; cores],
            slice_act_milli: vec![0; cores],
            last_pstate: vec![0; cores],
            total_uw_cycles: 0,
            dvfs_transitions: 0,
            max_temp_milli_c: rbv_power::AMBIENT_MILLI_C,
        });
        Engine {
            cfg,
            queue: EventQueue::new(),
            cores: (0..cores).map(|_| Core::default()).collect(),
            runqueues: (0..cores).map(|_| VecDeque::new()).collect(),
            live: Vec::new(),
            rates: vec![None; cores],
            rates_dirty: false,
            profiles: vec![None; cores],
            shares: vec![0.0; cores],
            solver: ContentionSolver::default(),
            last_advance: Cycles::ZERO,
            completed: Vec::new(),
            failed: Vec::new(),
            transitions: Vec::new(),
            stats: RunStats {
                high_usage_cycles: vec![0.0; cores + 1],
                ..RunStats::default()
            },
            target,
            generated: 0,
            rng: SimRng::seed_from(seed ^ 0x0515_e0e0),
            fault_rng: SimRng::seed_from(seed ^ 0xfa17_0b5e),
            starved_until: vec![Cycles::ZERO; cores],
            low_conf: vec![None; cores],
            pred_err: 0.0,
            pred_err_primed: false,
            gate_engaged: false,
            sink,
            trace_high: 0,
            guard,
            sample_scale: 1.0,
            cs_skip: 0,
            completions: None,
            n_completed: 0,
            n_failed: 0,
            mmpp_burst: false,
            mmpp_until: Cycles::ZERO,
            codel_above: vec![None; cores],
            power,
        }
    }

    fn run(&mut self, factory: &mut dyn RequestFactory) -> RunResult {
        self.start(factory);
        while self.n_completed + self.n_failed < self.target {
            if !self.step(factory) {
                break; // no runnable work left (target > generated would be a bug)
            }
        }
        self.finish_run()
    }

    /// Seeds the event queue: initial spawns (or the first open-loop
    /// arrival) and the first guard tick. Externally driven machines
    /// start empty — their owner injects every request.
    fn start(&mut self, factory: &mut dyn RequestFactory) {
        match self.cfg.arrivals {
            ArrivalProcess::ClosedLoop => {
                let initial = self.cfg.concurrency.min(self.target);
                for _ in 0..initial {
                    self.spawn(factory);
                }
            }
            ArrivalProcess::OpenPoisson { .. } | ArrivalProcess::OpenMmpp { .. } => {
                // First arrival at t = 0; subsequent ones self-schedule.
                self.spawn(factory);
                self.schedule_next_arrival();
            }
            ArrivalProcess::External => {}
        }
        self.flush_rates();
        if self.guard.is_some() {
            self.queue
                .schedule_after(governor::WINDOW, Event::GuardTick);
        }
    }

    /// Pops and handles exactly one event. Returns `false` when the
    /// queue is empty (nothing left to do).
    fn step(&mut self, factory: &mut dyn RequestFactory) -> bool {
        {
            let Some((now, event)) = self.queue.pop() else {
                return false;
            };
            self.stats.engine_events += 1;
            self.advance_all(now);
            match event {
                Event::Milestone { core, epoch } => {
                    if self.cores[core].milestone_epoch == epoch {
                        self.on_milestone(core, now, factory);
                    }
                }
                Event::Quantum { core, epoch } => {
                    if self.cores[core].quantum_epoch == epoch {
                        self.on_quantum(core, now);
                    }
                }
                Event::SampleTimer { core, epoch } => {
                    if self.cores[core].sample_epoch == epoch {
                        self.on_sample_timer(core, now);
                    }
                }
                Event::Resched { core, epoch } => {
                    if self.cores[core].resched_epoch == epoch {
                        self.on_resched(core, now);
                    }
                }
                Event::Arrival => {
                    self.spawn(factory);
                    self.schedule_next_arrival();
                }
                Event::HopWakeup { rid } => {
                    // Skip a request already resolved before delivery.
                    if self.live[rid].is_some() {
                        self.enqueue_runnable(rid);
                    }
                }
                Event::Retry { rid, attempt, gen } => {
                    // Stale once the client timed the attempt out and
                    // resubmitted: the resubmission owns admission now.
                    if self.live[rid].as_ref().is_some_and(|lr| lr.attempt == gen) {
                        self.try_admit(rid, attempt, factory);
                    }
                }
                Event::DeadlineCheck { rid } => {
                    if self.live[rid].is_some() {
                        self.fail_request(rid, now, FailReason::DeadlineAbort, factory);
                    }
                }
                Event::ClientTimeout { rid, gen } => {
                    if self.live[rid].as_ref().is_some_and(|lr| lr.attempt == gen) {
                        self.on_client_timeout(rid, now, factory);
                    }
                }
                Event::ClientResubmit { rid, gen } => {
                    if self.live[rid].as_ref().is_some_and(|lr| lr.attempt == gen) {
                        self.on_client_resubmit(rid, factory);
                    }
                }
                Event::GuardTick => self.on_guard_tick(now, true),
            }
            self.flush_rates();
        }
        true
    }

    /// Closes the run and takes the accumulated [`RunResult`].
    fn finish_run(&mut self) -> RunResult {
        // Close the final (partial) guard window so short runs still get
        // at least one governed observation, then fold the guard verdicts
        // into the run statistics.
        if self.guard.is_some() {
            self.on_guard_tick(self.queue.now(), false);
            self.finalize_guard_stats();
        } else if cfg!(debug_assertions) {
            self.debug_invariant_sweep();
        } else {
            // No monitor runs, but a solve that did not converge is a
            // violation in every run.
            self.stats.invariant_violations[InvariantKind::SolverConvergence.index()] =
                self.stats.solver.unconverged;
        }
        self.finalize_power_stats();

        RunResult {
            completed: std::mem::take(&mut self.completed),
            failed: std::mem::take(&mut self.failed),
            transitions: std::mem::take(&mut self.transitions),
            stats: std::mem::replace(
                &mut self.stats,
                RunStats {
                    high_usage_cycles: vec![],
                    ..RunStats::default()
                },
            ),
            total_time: self.queue.now(),
        }
    }

    // ----- workload entry -------------------------------------------------

    /// Registers a newly generated request as live, arrived (and queued)
    /// at `at`, and returns its request id. The noise stream is forked by
    /// id, so ids — and therefore streams — follow generation order.
    fn push_live(&mut self, request: Request, at: Cycles) -> usize {
        let id = self.live.len();
        self.generated += 1;
        self.live.push(Some(LiveRequest {
            id,
            request,
            stage_idx: 0,
            ins_in_stage: 0.0,
            phase_idx: 0,
            next_syscall: 0,
            timeline: Timeline::new(),
            accum: SamplePeriod::default(),
            accum_injection: None,
            cum_cycles: 0.0,
            cum_ins: 0.0,
            syscalls: Vec::new(),
            arrived_at: at,
            predictor: VaEwma::new(PREDICTOR_ALPHA, PREDICTOR_UNIT),
            pending_transition: None,
            last_syscall: None,
            noise_rng: self.rng.fork_labeled(id as u64),
            attempt: 0,
            queued_at: at,
        }));
        id
    }

    fn spawn(&mut self, factory: &mut dyn RequestFactory) {
        if self.generated >= self.target {
            return;
        }
        let request = factory.next_request();
        debug_assert!(request.validate().is_ok());
        let id = self.push_live(request, self.queue.now());
        if self.sink.is_some() {
            let lr = self.live[id].as_ref().expect("just pushed");
            let event = TraceEvent::RequestBegin {
                ts: self.queue.now(),
                rid: id as u64,
                app: lr.request.app.to_string(),
                class: lr.request.class.to_string(),
            };
            self.sink
                .as_deref_mut()
                .expect("checked above")
                .record(event);
        }
        // Brownout rung: the guard ladder's deepest defense rejects half
        // of all new arrivals up front. Hash-selected — no stream draws —
        // and open-loop only; config validation guarantees the policies
        // that can reach this rung never combine with closed-loop
        // arrivals, whose respawn-on-failure would recurse here.
        if self.cfg.arrivals.is_open()
            && self
                .guard
                .as_ref()
                .is_some_and(|g| g.ladder.rung() == LadderRung::Brownout)
            && mix64(self.cfg.seed ^ 0xb407 ^ (id as u64)) & 1 == 0
        {
            self.fail_request(id, self.queue.now(), FailReason::BrownoutReject, factory);
            return;
        }
        if let Some(client) = self.cfg.client {
            self.queue
                .schedule_after(client.timeout, Event::ClientTimeout { rid: id, gen: 0 });
        }
        if let Some(overload) = self.cfg.overload {
            if let Some(deadline) = overload.deadline {
                self.queue
                    .schedule_after(deadline, Event::DeadlineCheck { rid: id });
            }
            self.try_admit(id, 0, factory);
        } else {
            self.enqueue_runnable(id);
        }
    }

    /// Admission attempt `attempt` for a new request under the overload
    /// policy's bounded runqueues. Rejection schedules a client retry with
    /// exponential backoff plus jitter, or sheds the request for good once
    /// retries are exhausted. Mid-request stage hops and quantum requeues
    /// never pass through here — once admitted, a request finishes (or
    /// hits its deadline).
    fn try_admit(&mut self, rid: usize, attempt: u32, factory: &mut dyn RequestFactory) {
        let Some(overload) = self.cfg.overload else {
            self.enqueue_runnable(rid);
            return;
        };
        // dFCFS checks the RSS-steered core's queue; cFCFS checks the one
        // central queue against the machine-wide bound. The guard ladder's
        // shed rung halves the effective bound, turning excess load away
        // at the door before it can queue.
        let (queue, load, mut bound) = match self.cfg.queue_discipline {
            Some(QueueDiscipline::Cfcfs) => {
                let running = self.cores.iter().filter(|c| c.running.is_some()).count();
                (
                    0,
                    self.runqueues[0].len() + running,
                    overload.max_runqueue.saturating_mul(self.cores.len()),
                )
            }
            Some(QueueDiscipline::Dfcfs) => {
                let c = self.rss_core(rid);
                (
                    c,
                    self.runqueues[c].len() + usize::from(self.cores[c].running.is_some()),
                    overload.max_runqueue,
                )
            }
            None => {
                let c = self.least_loaded_core();
                (
                    c,
                    self.runqueues[c].len() + usize::from(self.cores[c].running.is_some()),
                    overload.max_runqueue,
                )
            }
        };
        if self.shed_rung_active() {
            bound = (bound / 2).max(1);
        }
        if load < bound {
            let now = self.queue.now();
            let gen = {
                let req = self.live[rid].as_mut().expect("admitted request is live");
                req.queued_at = now;
                req.attempt
            };
            self.runqueues[queue].push_back(rid);
            if let Some(sink) = self.sink.as_deref_mut() {
                sink.record(TraceEvent::QueueEnter {
                    ts: now,
                    rid: rid as u64,
                    queue: queue as u32,
                    attempt: gen,
                });
            }
            self.wake_idle_for(queue);
            return;
        }
        let now = self.queue.now();
        self.stats.admission_rejections += 1;
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.record(TraceEvent::AdmissionRejected {
                ts: now,
                rid: rid as u64,
                core: queue as u32,
                attempt,
            });
        }
        if attempt < overload.max_retries {
            use rand::Rng;
            let jitter: f64 = self.fault_rng.gen();
            let backoff = overload.retry_backoff.as_f64()
                * 2f64.powi(attempt.min(32) as i32)
                * (1.0 + 0.5 * jitter);
            let backoff = Cycles::new(backoff.max(1.0) as u64);
            self.stats.admission_retries += 1;
            if let Some(sink) = self.sink.as_deref_mut() {
                sink.record(TraceEvent::RetryScheduled {
                    ts: now,
                    rid: rid as u64,
                    attempt: attempt + 1,
                    backoff,
                    client: false,
                });
            }
            let gen = self.live[rid]
                .as_ref()
                .expect("rejected request is live")
                .attempt;
            self.queue.schedule_after(
                backoff,
                Event::Retry {
                    rid,
                    attempt: attempt + 1,
                    gen,
                },
            );
        } else {
            self.fail_request(rid, now, FailReason::AdmissionShed, factory);
        }
    }

    /// Sheds or aborts a live request: pulls it off whatever core or queue
    /// holds it, records the failure, and (closed loop) admits the
    /// client's next request.
    fn fail_request(
        &mut self,
        rid: usize,
        now: Cycles,
        reason: FailReason,
        factory: &mut dyn RequestFactory,
    ) {
        for c in 0..self.cores.len() {
            if self.cores[c].running == Some(rid) {
                self.cores[c].running = None;
                self.rates_dirty = true;
                self.stats.context_switches += 1;
                if let Some(sink) = self.sink.as_deref_mut() {
                    sink.record(TraceEvent::SliceEnd {
                        ts: now,
                        core: c as u32,
                        rid: rid as u64,
                    });
                }
                self.schedule_next_on(c);
                break;
            }
            if let Some(pos) = self.runqueues[c].iter().position(|&r| r == rid) {
                self.runqueues[c].remove(pos);
                break;
            }
        }
        self.retire_failed(rid, now, reason);
        if self.cfg.arrivals == ArrivalProcess::ClosedLoop {
            self.spawn(factory);
        }
    }

    /// The bookkeeping every terminal failure shares, once the request
    /// holds no core and sits in no runqueue: takes it out of `live`,
    /// charges the cycles it consumed as wasted, records the failure (and
    /// its trace event) and counts it under its reason.
    fn retire_failed(&mut self, rid: usize, now: Cycles, reason: FailReason) {
        match reason {
            FailReason::AdmissionShed => self.stats.load_shed += 1,
            FailReason::DeadlineAbort => self.stats.deadline_aborts += 1,
            // Counted where the timeout fires (terminal or not).
            FailReason::ClientTimeout => {}
            FailReason::CodelShed => self.stats.codel_shed += 1,
            FailReason::BrownoutReject => self.stats.brownout_rejections += 1,
        }
        let lr = self.live[rid].take().expect("failed request was live");
        self.stats.wasted_cycles += lr.cum_cycles;
        self.push_failed(FailedRequest {
            id: lr.id,
            app: lr.request.app,
            class: lr.request.class,
            arrived_at: lr.arrived_at,
            failed_at: now,
            reason,
        });
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.record(TraceEvent::RequestFailed {
                ts: now,
                rid: rid as u64,
                reason: reason.label().into(),
            });
        }
    }

    /// Schedules the next open-loop arrival at an exponential gap. Under
    /// MMPP arrivals the exponential's mean is modulated by a two-state
    /// Markov chain (calm/burst) whose dwell times are themselves
    /// exponential; Poisson arrivals draw exactly one uniform per
    /// arrival, exactly as before, so Poisson runs are bit-identical to
    /// builds that predate MMPP.
    fn schedule_next_arrival(&mut self) {
        if self.generated >= self.target {
            return;
        }
        let mean = match self.cfg.arrivals {
            ArrivalProcess::ClosedLoop | ArrivalProcess::External => return,
            ArrivalProcess::OpenPoisson { mean_interarrival } => mean_interarrival,
            ArrivalProcess::OpenMmpp {
                mean_interarrival,
                burst_mean_interarrival,
                mean_calm_dwell,
                mean_burst_dwell,
            } => {
                let now = self.queue.now();
                if self.mmpp_until.is_zero() {
                    // Lazy init: the first calm dwell is drawn when the
                    // first arrival schedules its successor.
                    self.mmpp_until = now + self.exp_gap(mean_calm_dwell);
                }
                while now >= self.mmpp_until {
                    self.mmpp_burst = !self.mmpp_burst;
                    let dwell = if self.mmpp_burst {
                        mean_burst_dwell
                    } else {
                        mean_calm_dwell
                    };
                    let gap = self.exp_gap(dwell);
                    self.mmpp_until += gap;
                }
                if self.mmpp_burst {
                    burst_mean_interarrival
                } else {
                    mean_interarrival
                }
            }
        };
        let gap = self.exp_gap(mean);
        self.queue.schedule_after(gap, Event::Arrival);
    }

    /// One exponential draw with the given mean from the engine stream,
    /// floored at a single cycle.
    fn exp_gap(&mut self, mean: Cycles) -> Cycles {
        use rand::Rng;
        let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        Cycles::new((-(mean.as_f64()) * u.ln()).max(1.0) as u64)
    }

    /// Makes a request runnable: picks its queue per the configured
    /// discipline (least-loaded placement by default, RSS steering under
    /// dFCFS, the one central queue under cFCFS) and wakes an idle core.
    fn enqueue_runnable(&mut self, rid: usize) {
        let queue = match self.cfg.queue_discipline {
            None => self.least_loaded_core(),
            Some(QueueDiscipline::Dfcfs) => self.rss_core(rid),
            Some(QueueDiscipline::Cfcfs) => 0,
        };
        let now = self.queue.now();
        let gen = {
            let req = self.live[rid].as_mut().expect("enqueued request is live");
            req.queued_at = now;
            req.attempt
        };
        self.runqueues[queue].push_back(rid);
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.record(TraceEvent::QueueEnter {
                ts: now,
                rid: rid as u64,
                queue: queue as u32,
                attempt: gen,
            });
        }
        self.wake_idle_for(queue);
    }

    /// The core currently parked by the guard's power-capping ladder:
    /// the hottest core at the instant the park rung engaged (latched
    /// until the rung releases), and never the only core. A parked core
    /// receives no new placements, pulls nothing from the cFCFS central
    /// queue, and steals no work — but it drains whatever already sits
    /// in its own queue, so no request is ever stranded. (RSS-pinned
    /// placement ignores parking: the indirection table is fixed.)
    fn parked_core(&self) -> Option<usize> {
        if self.power.is_none() || self.cores.len() <= 1 {
            return None;
        }
        self.guard.as_ref().and_then(|g| {
            g.power_ladder
                .as_ref()
                .filter(|l| l.rung().parks_core())
                .and(g.parked)
        })
    }

    /// Wakes a core that can serve `queue`: under cFCFS any idle core
    /// pulls from the central queue; otherwise the queue is per-core.
    fn wake_idle_for(&mut self, queue: usize) {
        if self.cfg.queue_discipline == Some(QueueDiscipline::Cfcfs) {
            let parked = self.parked_core();
            if let Some(idle) = (0..self.cores.len())
                .find(|&c| self.cores[c].running.is_none() && Some(c) != parked)
            {
                self.schedule_next_on(idle);
            }
        } else if self.cores[queue].running.is_none() {
            self.schedule_next_on(queue);
        }
    }

    /// NIC-style receive-side scaling: a deterministic hash of the
    /// request id indexes a 128-slot indirection table whose slots map
    /// round-robin onto cores, pinning each request to one queue for its
    /// whole lifetime (retries included).
    fn rss_core(&self, rid: usize) -> usize {
        let slot = mix64(self.cfg.seed ^ 0x55aa ^ (rid as u64)) % 128;
        (slot as usize) % self.cores.len()
    }

    /// Whether the guard ladder currently sits on its shed rung or lower,
    /// tightening admission bounds and CoDel targets.
    fn shed_rung_active(&self) -> bool {
        self.guard
            .as_ref()
            .is_some_and(|g| g.ladder.rung().is_overloaded())
    }

    /// The least-loaded core, skipping a parked one; ties go to the lowest
    /// index.
    fn least_loaded_core(&self) -> usize {
        let parked = self.parked_core();
        (0..self.cores.len())
            .filter(|&c| Some(c) != parked)
            .min_by_key(|&c| self.runqueues[c].len() + usize::from(self.cores[c].running.is_some()))
            .expect("at least one core")
    }

    // ----- time advancement ----------------------------------------------

    /// Advances every running core linearly from `last_advance` to `now`
    /// under the current rates. Exact because rates only change at events.
    fn advance_all(&mut self, now: Cycles) {
        let interval_start = self.last_advance;
        let elapsed = now.saturating_sub(interval_start);
        self.last_advance = now;
        if elapsed.is_zero() {
            return;
        }
        let dt = elapsed.as_f64();
        let mut running_count = 0usize;
        let mut high_count = 0usize;
        for c in 0..self.cores.len() {
            let Some(rid) = self.cores[c].running else {
                continue;
            };
            let rate = self.rates[c].expect("running core has a rate");
            running_count += 1;
            if let Some(threshold) = self.cfg.measure_threshold {
                if rate.l2_misses_per_ins() >= threshold {
                    high_count += 1;
                }
            }
            let d_ins = dt / rate.cpi;
            let d_refs = d_ins * rate.l2_refs_per_ins;
            let d_misses = d_refs * rate.l2_miss_ratio;
            let lr = self.live[rid].as_mut().expect("running request is live");
            lr.ins_in_stage += d_ins;
            lr.cum_cycles += dt;
            lr.cum_ins += d_ins;
            lr.accum.cycles += dt;
            lr.accum.instructions += d_ins;
            lr.accum.l2_refs += d_refs;
            lr.accum.l2_misses += d_misses;
        }
        if running_count > 0 {
            self.stats.busy_cycles += dt;
            self.stats.high_usage_cycles[high_count.min(self.cores.len())] += dt;
        }
        // An L2-pressure episode boundary: the simultaneous-high count over
        // [interval_start, now] differs from the previously reported one.
        // The change took effect at the event that started the interval.
        if self.sink.is_some() && self.cfg.measure_threshold.is_some() {
            let high = if running_count > 0 {
                high_count.min(self.cores.len())
            } else {
                0
            };
            if high != self.trace_high {
                self.trace_high = high;
                let event = TraceEvent::L2Pressure {
                    ts: interval_start,
                    high_cores: high as u32,
                };
                self.sink
                    .as_deref_mut()
                    .expect("checked above")
                    .record(event);
            }
        }
        // Energy/thermal integration: every core (idle ones pay static
        // power) advances across the elapsed slice under the P-state and
        // activity that were in force during it. Fault multipliers are
        // step functions of time, sampled at the slice start — the same
        // "state changes take effect at events" convention as the rates.
        if let Some(ps) = &mut self.power {
            let storm = ps.storm;
            let ambient_delta = storm.map_or(0, |s| s.ambient_delta_at(interval_start));
            let dyn_mult = storm.map_or(NOMINAL_MILLI, |s| s.dyn_mult_at(interval_start));
            for c in 0..ps.cores.len() {
                let r_mult = storm.map_or(NOMINAL_MILLI, |s| s.cooling_mult_for(c, interval_start));
                let out = ps.cores[c].advance(
                    elapsed,
                    ps.slice_pstate[c],
                    ps.slice_act_milli[c],
                    ambient_delta,
                    r_mult,
                    dyn_mult,
                );
                ps.total_uw_cycles += u128::from(out.power_uw) * u128::from(elapsed.get());
                ps.max_temp_milli_c = ps.max_temp_milli_c.max(out.temp_milli_c);
                if let Some(engaged) = out.throttle_edge {
                    // The firmware clamp (or its release) changes the
                    // effective CPI from the next slice on.
                    self.rates_dirty = true;
                    if let Some(sink) = self.sink.as_deref_mut() {
                        sink.record(TraceEvent::ThermalThrottle {
                            ts: now,
                            core: c as u32,
                            engaged,
                            temp_milli_c: out.temp_milli_c,
                        });
                    }
                }
            }
        }
    }

    // ----- rates and milestones -------------------------------------------

    fn flush_rates(&mut self) {
        if !self.rates_dirty {
            return;
        }
        self.rates_dirty = false;
        for (slot, core) in self.profiles.iter_mut().zip(&self.cores) {
            *slot = core
                .running
                .map(|rid| self.live[rid].as_ref().expect("running is live").profile());
        }
        let machine = &self.cfg.machine;
        let outcome = if self.cfg.static_cache_partition {
            // Equal page-coloring slices of each shared L2 among its
            // occupied cores.
            let topo = machine.topology;
            let profiles = &self.profiles;
            self.shares.fill(0.0);
            for cluster in 0..topo.clusters() {
                let lo = cluster * topo.cores_per_cluster;
                let hi = (lo + topo.cores_per_cluster).min(profiles.len());
                let occupied = profiles[lo..hi].iter().filter(|p| p.is_some()).count();
                if occupied > 0 {
                    let slice = machine.l2_capacity_bytes / occupied as f64;
                    for (share, p) in self.shares[lo..hi].iter_mut().zip(&profiles[lo..hi]) {
                        if p.is_some() {
                            *share = slice;
                        }
                    }
                }
            }
            machine.evaluate_partitioned_into(
                &self.profiles,
                &self.shares,
                &mut self.solver,
                &mut self.rates,
            )
        } else {
            machine.evaluate_into(&self.profiles, &mut self.solver, &mut self.rates)
        };
        self.stats.solver.record(outcome);
        self.apply_dvfs();
        for c in 0..self.cores.len() {
            self.push_milestone(c);
        }
    }

    /// Applies DVFS to the freshly evaluated rates: splits each running
    /// core's CPI into its compute base and memory-stall components, slows
    /// only the base by the effective P-state's inverse ratio (memory
    /// stalls are wall-time and the clock is counted in nominal cycles),
    /// and records the slice P-state/activity the next [`Engine::advance_all`]
    /// integrates power over. No-op without a power model; at full speed
    /// the rates are left bit-identical to a power-unaware build.
    fn apply_dvfs(&mut self) {
        let Some(ps) = &mut self.power else {
            return;
        };
        let cap = match self.guard.as_ref().and_then(|g| g.power_ladder.as_ref()) {
            Some(ladder) if ladder.rung().caps_frequency() => rbv_guard::power::CAP_PSTATE,
            _ => 0,
        };
        let now = self.queue.now();
        for c in 0..self.cores.len() {
            let effective = ps.cores[c].effective_pstate(cap);
            ps.slice_pstate[c] = effective;
            ps.slice_act_milli[c] = match self.rates[c].as_mut() {
                Some(rate) => {
                    let stall = rate.l2_refs_per_ins
                        * (self.cfg.machine.l2_hit_cycles * (1.0 - rate.l2_miss_ratio)
                            + rate.mem_latency_cycles * rate.l2_miss_ratio);
                    let base = (rate.cpi - stall).max(0.0);
                    let factor = rbv_power::compute_cpi_factor(effective);
                    if factor != 1.0 {
                        rate.cpi = base * factor + stall;
                    }
                    ((base * factor / rate.cpi) * 1000.0)
                        .round()
                        .clamp(0.0, 1000.0) as u32
                }
                None => 0,
            };
            if effective != ps.last_pstate[c] {
                ps.dvfs_transitions += 1;
                if let Some(sink) = self.sink.as_deref_mut() {
                    sink.record(TraceEvent::DvfsTransition {
                        ts: now,
                        core: c as u32,
                        from_pstate: ps.last_pstate[c] as u32,
                        to_pstate: effective as u32,
                        ratio_milli: rbv_power::ratio_milli(effective),
                    });
                }
                ps.last_pstate[c] = effective;
            }
        }
    }

    fn push_milestone(&mut self, core: usize) {
        self.cores[core].milestone_epoch += 1;
        let epoch = self.cores[core].milestone_epoch;
        let Some(rid) = self.cores[core].running else {
            return;
        };
        let rate = self.rates[core].expect("running core has a rate");
        let lr = self.live[rid].as_ref().expect("running is live");
        let (boundary, _) = lr.next_boundary();
        let d_ins = (boundary - lr.ins_in_stage).max(0.0);
        let cycles = (d_ins * rate.cpi).ceil().max(1.0) as u64;
        self.queue
            .schedule_after(Cycles::new(cycles), Event::Milestone { core, epoch });
    }

    fn on_milestone(&mut self, core: usize, now: Cycles, factory: &mut dyn RequestFactory) {
        let Some(rid) = self.cores[core].running else {
            return;
        };
        loop {
            let lr = self.live[rid].as_ref().expect("running is live");
            let (boundary, is_syscall) = lr.next_boundary();
            if lr.ins_in_stage + INS_EPS < boundary {
                break;
            }
            if is_syscall {
                self.handle_syscall(core, rid, now, boundary);
                continue;
            }
            // Phase boundary: snap to it exactly.
            let lr = self.live[rid].as_mut().expect("running is live");
            lr.ins_in_stage = lr.ins_in_stage.max(boundary);
            let last_phase = lr.phase_idx + 1 == lr.stage().phases.len();
            if !last_phase {
                lr.phase_idx += 1;
                self.rates_dirty = true;
                continue;
            }
            // Stage (possibly request) end.
            self.on_stage_end(core, rid, now, factory);
            return;
        }
        if !self.rates_dirty {
            self.push_milestone(core);
        }
    }

    fn handle_syscall(&mut self, core: usize, rid: usize, now: Cycles, boundary: f64) {
        let lr = self.live[rid].as_mut().expect("running is live");
        lr.ins_in_stage = lr.ins_in_stage.max(boundary);
        let name = lr.stage().syscalls[lr.next_syscall].name;
        lr.next_syscall += 1;
        lr.syscalls.push(SyscallRecord {
            at: now,
            request_cycles: lr.cum_cycles,
            request_ins: lr.cum_ins,
            name,
        });
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.record(TraceEvent::SyscallEntry {
                ts: now,
                core: core as u32,
                rid: rid as u64,
                name: name.to_string(),
            });
        }

        let (trigger, t_min) = match &self.cfg.sampling {
            SamplingPolicy::SyscallTriggered { t_syscall_min, .. } => (true, *t_syscall_min),
            SamplingPolicy::TransitionSignals {
                triggers,
                t_syscall_min,
                ..
            } => (triggers.contains(&name), *t_syscall_min),
            _ => (false, Cycles::ZERO),
        };
        if trigger
            && now.saturating_sub(self.cores[core].last_sample) >= self.scaled_interval(t_min)
        {
            if self.sampling_starved(core, now) {
                // Graceful degradation: the syscall sampling path is
                // starved, so this trigger collects nothing and the
                // already-armed backup interrupt timer covers the stretch.
            } else {
                self.take_sample(core, rid, now, SampleMode::SyscallEntry, Some(name));
                self.rearm_backup_timer(core, now);
            }
        }
        self.live[rid]
            .as_mut()
            .expect("running is live")
            .last_syscall = Some(name);
    }

    fn on_stage_end(
        &mut self,
        core: usize,
        rid: usize,
        now: Cycles,
        factory: &mut dyn RequestFactory,
    ) {
        // Context-switch sample flushes the stage's final period (unless
        // the governor is decimating: then it extends into the next one).
        let flushed = self.cs_sample(core, rid, now);
        self.cores[core].running = None;
        self.rates_dirty = true;
        self.stats.context_switches += 1;
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.record(TraceEvent::SliceEnd {
                ts: now,
                core: core as u32,
                rid: rid as u64,
            });
            sink.record(TraceEvent::ContextSwitch {
                ts: now,
                core: core as u32,
                from: rid as u64,
                reason: SwitchReason::StageEnd,
            });
        }

        let lr = self.live[rid].as_mut().expect("running is live");
        if lr.stage_idx + 1 < lr.request.stages.len() {
            // Propagate the request context to the next component (§2.1):
            // the socket hop re-enters the scheduler on another runqueue.
            lr.stage_idx += 1;
            lr.phase_idx = 0;
            lr.next_syscall = 0;
            lr.ins_in_stage = 0.0;
            self.enqueue_runnable(rid);
        } else {
            if !flushed {
                self.teardown_flush(rid);
            }
            let lr = self.live[rid].take().expect("request was live");
            self.push_completed(CompletedRequest {
                id: lr.id,
                app: lr.request.app,
                class: lr.request.class,
                timeline: lr.timeline,
                syscalls: lr.syscalls,
                arrived_at: lr.arrived_at,
                finished_at: now,
            });
            if let Some(sink) = self.sink.as_deref_mut() {
                sink.record(TraceEvent::RequestEnd {
                    ts: now,
                    rid: rid as u64,
                });
            }
            if self.cfg.arrivals == ArrivalProcess::ClosedLoop {
                self.spawn(factory);
            }
        }
        // The enqueue above may already have dispatched onto this core.
        if self.cores[core].running.is_none() {
            self.schedule_next_on(core);
        }
    }

    // ----- sampling --------------------------------------------------------

    /// One Bernoulli draw from the dedicated fault stream. Zero
    /// probability draws nothing, so disabled fault channels leave the
    /// stream untouched.
    fn fault_chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        use rand::Rng;
        self.fault_rng.gen::<f64>() < p
    }

    /// Whether the syscall sampling path on `core` is inside (or just
    /// entered) an injected starvation window.
    fn sampling_starved(&mut self, core: usize, now: Cycles) -> bool {
        if now < self.starved_until[core] {
            return true;
        }
        if self.fault_chance(self.cfg.faults.syscall_starvation_prob) {
            let until = now + self.cfg.faults.syscall_starvation_window;
            self.starved_until[core] = until;
            self.stats.starvation_windows += 1;
            if let Some(sink) = self.sink.as_deref_mut() {
                sink.record(TraceEvent::SamplingStarved {
                    ts: now,
                    core: core as u32,
                    until,
                });
            }
            return true;
        }
        false
    }

    /// Samples the counters on `core`: flushes the running request's
    /// accumulated period into its timeline (with "do no harm"
    /// compensation), updates its online predictor, records transition
    /// training data, and injects the observer-effect events of this
    /// sample into the next period.
    fn take_sample(
        &mut self,
        core: usize,
        rid: usize,
        now: Cycles,
        mode: SampleMode,
        syscall: Option<SyscallName>,
    ) {
        let ctx = mode.context();
        // Guard coupling, resolved before the live-request borrow below:
        // an active health ladder supersedes the one-shot error gate, and
        // its lower rungs freeze predictor training. A governed run
        // tracks prediction error even without a configured gate — it is
        // the ladder's counter-noise input.
        let gated = self.cfg.easing_error_gate && self.guard.is_none();
        let track_err = self.cfg.easing_error_gate || self.guard.is_some();
        let frozen = self.predictions_frozen();
        self.stats.samples_by_mode[mode.index()] += 1;
        match ctx {
            SamplingContext::InKernel => self.stats.samples_inkernel += 1,
            SamplingContext::Interrupt => self.stats.samples_interrupt += 1,
        }
        let lr = self.live[rid].as_mut().expect("sampled request is live");
        let mut period = lr.accum;
        lr.accum = SamplePeriod::default();
        subtract_observer_floor(&mut period, lr.accum_injection.take());
        // Measurement noise on the cache event counters (see
        // [`COUNTER_NOISE`]). The relative noise shrinks with the square
        // root of the sample duration — event-count jitter averages out
        // over longer windows — with 1 ms as the reference duration. CPU
        // cycles and instructions are architecturally exact and stay
        // untouched.
        let dur_ms = period.cycles / Cycles::from_millis(1).as_f64();
        let sigma = COUNTER_NOISE * (1.0 / dur_ms.max(1e-3)).sqrt().min(4.0);
        period.l2_refs *= (1.0 + sigma * 0.5 * gaussian(&mut lr.noise_rng)).max(0.0);
        period.l2_misses *= (1.0 + sigma * gaussian(&mut lr.noise_rng)).max(0.0);
        // Independent jitter must not break the counter invariant
        // misses <= references.
        period.l2_misses = period.l2_misses.min(period.l2_refs);
        if self.cfg.faults.counter_skid_sigma > 0.0 {
            // Injected counter skid: interrupt-based attribution lands a
            // few events early or late, on top of `COUNTER_NOISE`.
            let sigma = self.cfg.faults.counter_skid_sigma;
            period.l2_refs *= (1.0 + sigma * gaussian(&mut self.fault_rng)).max(0.0);
            period.l2_misses *= (1.0 + sigma * gaussian(&mut self.fault_rng)).max(0.0);
            period.l2_misses = period.l2_misses.min(period.l2_refs);
        }
        let mut low_conf = self.low_conf[core].take();
        if self.cfg.faults.counter_overflow_prob > 0.0 {
            use rand::Rng;
            if self.fault_rng.gen::<f64>() < self.cfg.faults.counter_overflow_prob {
                // Wrap detected: zero the cache counters instead of
                // reporting wrapped garbage, and flag the sample.
                period.l2_refs = 0.0;
                period.l2_misses = 0.0;
                self.stats.counter_overflows += 1;
                low_conf = Some("counter_overflow");
            }
        }

        if let Some(sink) = self.sink.as_deref_mut() {
            let origin = match ctx {
                SamplingContext::InKernel => SampleOrigin::InKernel,
                SamplingContext::Interrupt => SampleOrigin::Interrupt,
            };
            sink.record(TraceEvent::SamplingInstant {
                ts: now,
                core: core as u32,
                rid: rid as u64,
                origin,
                syscall: syscall.map(|s| s.to_string()),
                cycles: period.cycles,
                instructions: period.instructions,
                l2_refs: period.l2_refs,
                l2_misses: period.l2_misses,
            });
        }

        if let Some(reason) = low_conf {
            // Degrade gracefully: the flagged period still lands on the
            // timeline (a gap would corrupt serialization), but it neither
            // produces transition records nor trains the predictor, and a
            // stale pending transition is dropped rather than paired with
            // a corrupted "after" period.
            self.stats.samples_low_confidence += 1;
            lr.pending_transition = None;
            if let Some(sink) = self.sink.as_deref_mut() {
                sink.record(TraceEvent::LowConfidenceSample {
                    ts: now,
                    core: core as u32,
                    rid: rid as u64,
                    reason: reason.into(),
                });
            }
        } else {
            let period_cpi = period.value(Metric::Cpi);
            if let (Some((prev, name, before)), Some(after)) =
                (lr.pending_transition.take(), period_cpi)
            {
                self.transitions.push(TransitionRecord {
                    name,
                    prev_name: prev,
                    before_cpi: before,
                    after_cpi: after,
                });
            }
            if let (Some(name), Some(before)) = (syscall, period_cpi) {
                lr.pending_transition = Some((lr.last_syscall, name, before));
            }

            if let Some(mpi) = period.value(Metric::L2MissesPerIns) {
                if track_err {
                    if let Some(pred) = lr.predictor.predict() {
                        if mpi > 1e-12 {
                            let rel = ((pred - mpi) / mpi).abs().min(10.0);
                            self.pred_err = if self.pred_err_primed {
                                0.9 * self.pred_err + 0.1 * rel
                            } else {
                                rel
                            };
                            self.pred_err_primed = true;
                            if gated {
                                let engaged = self.pred_err > EASING_ERROR_GATE;
                                if engaged != self.gate_engaged {
                                    self.gate_engaged = engaged;
                                    if let Some(sink) = self.sink.as_deref_mut() {
                                        sink.record(TraceEvent::EasingGate {
                                            ts: now,
                                            engaged,
                                            error: self.pred_err,
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
                if !frozen {
                    // Duration in vaEWMA units (t̂ = 1 ms).
                    let millis = period.cycles / Cycles::from_millis(1).as_f64();
                    lr.predictor.observe(mpi, millis.max(1e-9));
                }
            }
        }
        lr.timeline.push(period);

        // The sampling operation itself perturbs the *next* period.
        let pollution = pollution_of(&lr.profile());
        let cost = injected_cost(ctx, pollution);
        lr.accum.cycles += cost.cycles;
        lr.accum.instructions += cost.instructions;
        lr.accum.l2_refs += cost.l2_refs;
        lr.accum.l2_misses += cost.l2_misses;
        lr.accum_injection = Some(ctx);

        self.cores[core].last_sample = now;
    }

    fn on_sample_timer(&mut self, core: usize, now: Cycles) {
        let Some(rid) = self.cores[core].running else {
            return;
        };
        // Injected measurement fault: the sampling interrupt is lost
        // before its handler runs. The open period extends into the next
        // sample, which is flagged low-confidence, and the timer re-arms
        // as usual so sampling recovers on its own.
        let lost = self.fault_chance(self.cfg.faults.lost_interrupt_prob);
        if lost {
            self.stats.samples_lost += 1;
            self.low_conf[core] = Some("lost_interrupt");
            if let Some(sink) = self.sink.as_deref_mut() {
                sink.record(TraceEvent::SampleLost {
                    ts: now,
                    core: core as u32,
                });
            }
        }
        match &self.cfg.sampling {
            SamplingPolicy::Interrupt { period } => {
                let period = self.scaled_interval(*period);
                if !lost {
                    self.take_sample(core, rid, now, SampleMode::Apic, None);
                }
                self.cores[core].sample_epoch += 1;
                let epoch = self.cores[core].sample_epoch;
                self.queue
                    .schedule_after(period, Event::SampleTimer { core, epoch });
            }
            SamplingPolicy::SyscallTriggered { .. } | SamplingPolicy::TransitionSignals { .. } => {
                // Backup interrupt covering a syscall-free stretch.
                if !lost {
                    self.take_sample(core, rid, now, SampleMode::BackupTimer, None);
                }
                self.rearm_backup_timer(core, now);
            }
            SamplingPolicy::ContextSwitchOnly => {}
        }
    }

    fn rearm_backup_timer(&mut self, core: usize, _now: Cycles) {
        let delay = match &self.cfg.sampling {
            SamplingPolicy::SyscallTriggered { t_backup_int, .. }
            | SamplingPolicy::TransitionSignals { t_backup_int, .. } => *t_backup_int,
            _ => return,
        };
        let delay = self.scaled_interval(delay);
        self.cores[core].sample_epoch += 1;
        let epoch = self.cores[core].sample_epoch;
        self.queue
            .schedule_after(delay, Event::SampleTimer { core, epoch });
    }

    // ----- guard ------------------------------------------------------------

    /// Applies the governor's interval scale to a sampling interval.
    /// Exact identity at scale 1.0 — the only value an ungoverned run can
    /// hold — so the guard's mere presence cannot perturb event timing.
    fn scaled_interval(&self, t: Cycles) -> Cycles {
        if self.sample_scale <= 1.0 {
            return t;
        }
        Cycles::new((t.as_f64() * self.sample_scale).round() as u64)
    }

    /// Re-arms every busy core's sampling timer at the freshly scaled
    /// interval, invalidating in-flight timers armed at the pre-back-off
    /// cadence (idle cores re-arm on their next dispatch).
    fn rearm_sampling_timers(&mut self) {
        for core in 0..self.cores.len() {
            if self.cores[core].running.is_none() {
                continue;
            }
            match &self.cfg.sampling {
                SamplingPolicy::Interrupt { period } => {
                    let period = self.scaled_interval(*period);
                    self.cores[core].sample_epoch += 1;
                    let epoch = self.cores[core].sample_epoch;
                    self.queue
                        .schedule_after(period, Event::SampleTimer { core, epoch });
                }
                SamplingPolicy::SyscallTriggered { .. }
                | SamplingPolicy::TransitionSignals { .. } => {
                    self.rearm_backup_timer(core, self.queue.now());
                }
                SamplingPolicy::ContextSwitchOnly => {}
            }
        }
    }

    /// Context-switch sampling under the governor's per-mode decimation:
    /// at interval scale `s` only every `ceil(s)`-th switch is sampled.
    /// A skipped switch takes no sample at all — it injects no observer
    /// cost, and the running period simply keeps accumulating into the
    /// request's next sample (the same graceful extension a lost
    /// interrupt causes). At scale 1.0 — the only value an ungoverned
    /// run can hold — every switch is sampled, bit-identically to builds
    /// that predate the guard. Returns whether a sample was taken, so a
    /// completing request can still close its timeline (see
    /// [`Self::teardown_flush`]).
    fn cs_sample(&mut self, core: usize, rid: usize, now: Cycles) -> bool {
        if self.sample_scale > 1.0 {
            self.cs_skip += 1;
            if self.cs_skip < self.sample_scale.ceil() as u64 {
                return false;
            }
            self.cs_skip = 0;
        }
        self.take_sample(core, rid, now, SampleMode::ContextSwitch, None);
        true
    }

    /// Closes a completing request's timeline when the governor's
    /// decimation elided its final context-switch sample. Dropping the
    /// residual period would bias the measured request totals toward
    /// whichever phases happened to be sampled — exactly the kind of
    /// observer-induced distortion the guard exists to prevent. Modeled
    /// as a free counter read at teardown: the scheduler is already in
    /// the kernel retiring the request and no sampling path runs, so no
    /// observer cost is injected and no sample is counted; the usual
    /// observer-effect compensation still applies to any injection
    /// carried over from the last real sample. Never reached at scale
    /// 1.0, so ungoverned runs are untouched.
    fn teardown_flush(&mut self, rid: usize) {
        let lr = self.live[rid].as_mut().expect("completing request is live");
        let mut period = lr.accum;
        lr.accum = SamplePeriod::default();
        subtract_observer_floor(&mut period, lr.accum_injection.take());
        lr.pending_transition = None;
        if period.cycles > 0.0 {
            lr.timeline.push(period);
        }
    }

    /// Cumulative priced observer cost: every sample taken so far, costed
    /// at the Mbench-Spin floor of the hook that took it (the same
    /// pricing the post-run [`crate::accountant::ObserverReport`] uses).
    fn priced_sampling_cycles(&self) -> f64 {
        SampleMode::ALL
            .iter()
            .map(|m| {
                self.stats.samples_by_mode[m.index()] as f64 * spin_baseline(m.context()).cycles
            })
            .sum()
    }

    /// Closes one guard accounting window: feeds the window's counter
    /// deltas to the governor (adapting the sampling scale), the health
    /// ladder, and the invariant monitor, then opens the next window.
    fn on_guard_tick(&mut self, now: Cycles, reschedule: bool) {
        let Some(mut guard) = self.guard.take() else {
            return;
        };
        let priced = self.priced_sampling_cycles();
        let samples: u64 = self.stats.samples_by_mode.iter().sum();
        // Sample staleness: age of the newest sample on any busy core,
        // as a fraction of the window. Idle machines have nothing to
        // sample and score fresh.
        let staleness = match self
            .cores
            .iter()
            .filter(|c| c.running.is_some())
            .map(|c| c.last_sample)
            .max()
        {
            Some(last) => {
                (now.saturating_sub(last).as_f64() / governor::WINDOW.as_f64()).clamp(0.0, 1.0)
            }
            None => 0.0,
        };
        let window = WindowSample {
            busy_cycles: self.stats.busy_cycles - guard.base_busy,
            sampling_cycles: priced - guard.base_sampling,
            samples: samples - guard.base_samples,
            samples_lost: self.stats.samples_lost - guard.base_lost,
            samples_low_confidence: self.stats.samples_low_confidence - guard.base_low_conf,
            starvation_windows: self.stats.starvation_windows - guard.base_starved,
            staleness_frac: staleness,
            noise_ewma: if self.pred_err_primed {
                self.pred_err
            } else {
                0.0
            },
            offered: self.generated as u64 - guard.base_offered,
            rejected: self.rejected_total() - guard.base_rejected,
            queue_frac: self.deepest_queue_frac(),
        };

        let decision = guard.governor.observe(&window);
        if decision.action != GovernorAction::Hold {
            self.sample_scale = decision.scale;
            if decision.action == GovernorAction::Backoff {
                // In-flight timers armed before this back-off would keep
                // firing at the old cadence for one more period, pushing
                // the correction lag past the one-window slack.
                self.rearm_sampling_timers();
            }
            if let Some(sink) = self.sink.as_deref_mut() {
                sink.record(TraceEvent::GovernorAdjust {
                    ts: now,
                    action: decision.action.label().to_string(),
                    scale: decision.scale,
                    overhead_frac: decision.overhead_frac,
                    budget_frac: governor::BUDGET_FRAC,
                });
            }
        }

        if let Some(t) = guard.ladder.observe(&window, now) {
            if let Some(sink) = self.sink.as_deref_mut() {
                sink.record(TraceEvent::HealthTransition {
                    ts: now,
                    from: t.from.label().to_string(),
                    to: t.to.label().to_string(),
                    score: t.score,
                });
            }
        }

        // Power capping: feed the hottest core's thermal pressure into the
        // power ladder. Rung moves change the frequency cap (and possibly
        // park/unpark a core), so the rates must be rebuilt. Reported on
        // the health-transition channel with the distinct power-rung
        // labels ("nominal"/"freq_cap"/"core_park").
        let mut parked_update = None;
        if let (Some(ladder), Some(ps)) = (guard.power_ladder.as_mut(), &self.power) {
            let pressure = ps.cores.iter().map(CorePower::pressure).fold(0.0, f64::max);
            if let Some(t) = ladder.observe(pressure, now) {
                self.rates_dirty = true;
                if t.to.parks_core() {
                    // Park the hottest core (ties to the lowest index),
                    // latched for the rung's lifetime.
                    let mut hottest = 0;
                    for (core, state) in ps.cores.iter().enumerate().skip(1) {
                        if state.temp_milli_c > ps.cores[hottest].temp_milli_c {
                            hottest = core;
                        }
                    }
                    parked_update = Some(Some(hottest));
                } else if t.from.parks_core() {
                    parked_update = Some(None);
                }
                if let Some(sink) = self.sink.as_deref_mut() {
                    sink.record(TraceEvent::HealthTransition {
                        ts: now,
                        from: t.from.label().to_string(),
                        to: t.to.label().to_string(),
                        score: t.pressure,
                    });
                }
            }
        }
        if let Some(parked) = parked_update {
            guard.parked = parked;
        }

        let live = self.live.iter().filter(|l| l.is_some()).count() as u64;
        let before = guard.monitor.violations_total();
        guard.monitor.check_request_conservation(
            self.generated as u64,
            live,
            self.n_completed as u64,
            self.n_failed as u64,
            0,
        );
        guard
            .monitor
            .check_clock_monotonic(guard.win_start.get(), now.get());
        guard.monitor.check_counter_monotonic(
            "busy_cycles",
            guard.base_busy,
            self.stats.busy_cycles,
        );
        guard
            .monitor
            .check_counter_monotonic("sampling_cycles", guard.base_sampling, priced);
        guard.monitor.check_quantum_accounting(
            window.busy_cycles,
            now.saturating_sub(guard.win_start).get(),
            self.cores.len() as u64,
        );
        guard
            .monitor
            .check_non_negative_slack(guard.governor.max_breach_streak());
        if let Some(ps) = &self.power {
            let core_sum: u128 = ps.cores.iter().map(|c| c.energy_uw_cycles).sum();
            guard
                .monitor
                .check_energy_conservation(core_sum, ps.total_uw_cycles);
            for c in 0..ps.cores.len() {
                let pstate = ps.slice_pstate[c];
                guard.monitor.check_frequency_bounds(
                    c as u64,
                    pstate as u64,
                    rbv_power::LADDER_MILLI.len() as u64,
                    u64::from(rbv_power::ratio_milli(pstate)),
                );
            }
            let engages: u64 = ps.cores.iter().map(|c| c.throttle_engages).sum();
            let releases: u64 = ps.cores.iter().map(|c| c.throttle_releases).sum();
            let throttled = ps.cores.iter().filter(|c| c.throttled).count() as u64;
            guard
                .monitor
                .check_throttle_conservation(engages, releases, throttled);
        }
        if guard.monitor.violations_total() > before {
            if let Some((kind, detail)) = guard.monitor.last_violation() {
                if let Some(sink) = self.sink.as_deref_mut() {
                    sink.record(TraceEvent::InvariantViolation {
                        ts: now,
                        invariant: kind.label().to_string(),
                        detail: detail.to_string(),
                    });
                }
            }
        }

        guard.win_start = now;
        guard.base_busy = self.stats.busy_cycles;
        guard.base_sampling = priced;
        guard.base_samples = samples;
        guard.base_lost = self.stats.samples_lost;
        guard.base_low_conf = self.stats.samples_low_confidence;
        guard.base_starved = self.stats.starvation_windows;
        guard.base_offered = self.generated as u64;
        guard.base_rejected = self.rejected_total();

        if reschedule {
            self.queue
                .schedule_after(governor::WINDOW, Event::GuardTick);
        }
        self.guard = Some(guard);
    }

    /// Folds the guard components' verdicts into the run statistics (so
    /// they reach the ledger's `guard.*` metric family).
    fn finalize_guard_stats(&mut self) {
        let Some(guard) = &mut self.guard else {
            return;
        };
        self.stats.governor_windows = guard.governor.windows();
        self.stats.governor_backoffs = guard.governor.backoffs();
        self.stats.governor_recoveries = guard.governor.recoveries();
        self.stats.governor_budget_breaches = guard.governor.breaches();
        self.stats.governor_max_breach_streak = guard.governor.max_breach_streak();
        self.stats.governor_final_scale = guard.governor.scale();
        self.stats.governor_overhead_frac = guard.governor.cumulative_overhead_frac();
        self.stats.governor_slack_frac = guard.governor.slack_frac();
        self.stats.health_transitions = guard.ladder.transitions();
        self.stats.health_final_rung = guard.ladder.rung().index() as u64;
        guard
            .monitor
            .record_unconverged_solves(self.stats.solver.unconverged);
        self.stats.invariant_checks = guard.monitor.checks();
        self.stats.invariant_violations = guard.monitor.violations();
    }

    /// Folds the power model's end-of-run state into the statistics (the
    /// ledger's `energy.*` metric family). `stats.energy` stays `None` for
    /// power-off runs, so their metric key set — and therefore their
    /// serialized ledgers — are bit-identical to power-unaware builds.
    fn finalize_power_stats(&mut self) {
        let Some(ps) = &self.power else {
            return;
        };
        let (rung_transitions, final_rung) =
            match self.guard.as_ref().and_then(|g| g.power_ladder.as_ref()) {
                Some(ladder) => (ladder.transitions(), ladder.rung().index() as u64),
                None => (0, 0),
            };
        self.stats.energy = Some(EnergyStats {
            core_uw_cycles: ps.cores.iter().map(|c| c.energy_uw_cycles).collect(),
            total_uw_cycles: ps.total_uw_cycles,
            throttle_engages: ps.cores.iter().map(|c| c.throttle_engages).sum(),
            throttle_releases: ps.cores.iter().map(|c| c.throttle_releases).sum(),
            throttled_final: ps.cores.iter().filter(|c| c.throttled).count() as u64,
            dvfs_transitions: ps.dvfs_transitions,
            max_temp_milli_c: ps.max_temp_milli_c,
            final_temp_milli_c: ps.cores.iter().map(|c| c.temp_milli_c).collect(),
            power_rung_transitions: rung_transitions,
            power_final_rung: final_rung,
        });
    }

    /// End-of-run invariant sweep for ungoverned debug runs: the same
    /// conservation laws the governed monitor checks every window, run
    /// once over the whole run. Emits no events and draws nothing, so it
    /// cannot perturb the simulation it checks.
    fn debug_invariant_sweep(&mut self) {
        let mut monitor = InvariantMonitor::new();
        let live = self.live.iter().filter(|l| l.is_some()).count() as u64;
        monitor.check_request_conservation(
            self.generated as u64,
            live,
            self.n_completed as u64,
            self.n_failed as u64,
            0,
        );
        monitor.check_clock_monotonic(0, self.queue.now().get());
        monitor.check_counter_monotonic("busy_cycles", 0.0, self.stats.busy_cycles);
        monitor.check_quantum_accounting(
            self.stats.busy_cycles,
            self.queue.now().get(),
            self.cores.len() as u64,
        );
        if let Some(ps) = &self.power {
            let core_sum: u128 = ps.cores.iter().map(|c| c.energy_uw_cycles).sum();
            monitor.check_energy_conservation(core_sum, ps.total_uw_cycles);
        }
        monitor.record_unconverged_solves(self.stats.solver.unconverged);
        self.stats.invariant_checks = monitor.checks();
        self.stats.invariant_violations = monitor.violations();
        debug_assert!(
            monitor.violations_total() == 0,
            "engine invariant violated: {}",
            monitor.first_violation().unwrap_or("unknown")
        );
    }

    // ----- scheduling -------------------------------------------------------

    /// Picks and dispatches the next request on an idle `core`.
    fn schedule_next_on(&mut self, core: usize) {
        debug_assert!(self.cores[core].running.is_none());
        let parked = self.parked_core() == Some(core);
        if self.cfg.work_stealing && !parked && self.runqueues[core].is_empty() {
            self.steal_into(core);
        }
        // A parked core never pulls new work from the cFCFS central
        // queue; its own (per-core) queue it still drains.
        let next = if parked && self.cfg.queue_discipline == Some(QueueDiscipline::Cfcfs) {
            None
        } else {
            self.pick_next(core)
        };
        let Some(rid) = next else {
            // Idle: cancel timers.
            self.cores[core].quantum_epoch += 1;
            self.cores[core].sample_epoch += 1;
            self.cores[core].resched_epoch += 1;
            self.cores[core].milestone_epoch += 1;
            self.rates_dirty = true;
            return;
        };
        self.dispatch(core, rid);
    }

    fn dispatch(&mut self, core: usize, rid: usize) {
        self.cores[core].running = Some(rid);
        self.cores[core].last_sample = self.queue.now();
        self.rates_dirty = true;
        if self.sink.is_some() {
            let lr = self.live[rid].as_ref().expect("dispatched request is live");
            let event = TraceEvent::SliceBegin {
                ts: self.queue.now(),
                core: core as u32,
                rid: rid as u64,
                stage: lr.stage_idx as u32,
                component: lr.stage().component.to_string(),
            };
            self.sink
                .as_deref_mut()
                .expect("checked above")
                .record(event);
        }

        self.cores[core].quantum_epoch += 1;
        let qe = self.cores[core].quantum_epoch;
        self.queue
            .schedule_after(self.cfg.quantum, Event::Quantum { core, epoch: qe });

        match &self.cfg.sampling {
            SamplingPolicy::Interrupt { period } => {
                let period = self.scaled_interval(*period);
                self.cores[core].sample_epoch += 1;
                let epoch = self.cores[core].sample_epoch;
                self.queue
                    .schedule_after(period, Event::SampleTimer { core, epoch });
            }
            SamplingPolicy::SyscallTriggered { .. } | SamplingPolicy::TransitionSignals { .. } => {
                self.rearm_backup_timer(core, self.queue.now());
            }
            SamplingPolicy::ContextSwitchOnly => {}
        }

        if let SchedulerPolicy::ContentionEasing { .. } = self.cfg.scheduler {
            self.cores[core].resched_epoch += 1;
            let epoch = self.cores[core].resched_epoch;
            self.queue
                .schedule_after(RESCHED_INTERVAL, Event::Resched { core, epoch });
        }
    }

    /// Migrates the tail request of the longest runqueue into an idle
    /// `core`'s (empty) queue. Stealing from the tail keeps each queue's
    /// head position — which both schedulers treat as meaningful — intact.
    fn steal_into(&mut self, core: usize) {
        if self.parked_core() == Some(core) {
            return;
        }
        let victim = (0..self.runqueues.len())
            .filter(|&c| c != core)
            .max_by_key(|&c| self.runqueues[c].len())
            .filter(|&c| self.runqueues[c].len() > 1);
        if let Some(victim) = victim {
            if let Some(rid) = self.runqueues[victim].pop_back() {
                self.runqueues[core].push_back(rid);
                self.stats.migrations += 1;
                if let Some(sink) = self.sink.as_deref_mut() {
                    sink.record(TraceEvent::Migration {
                        ts: self.queue.now(),
                        rid: rid as u64,
                        from_core: victim as u32,
                        to_core: core as u32,
                    });
                }
            }
        }
    }

    /// Whether contention easing is currently suspended. With an active
    /// guard ladder, the bottom rung (stock) suspends it outright; on the
    /// upper rungs each displacement decision still defers to the live
    /// prediction-error signal (the ladder's own counter-noise input), so
    /// storm-garbage predictions cannot displace requests during the
    /// window-plus-dwell lag before the ladder reacts. Unlike the
    /// one-shot gate this clears as soon as the error subsides. Without a
    /// ladder the one-shot prediction-confidence gate decides.
    fn easing_gated(&self) -> bool {
        if let Some(guard) = &self.guard {
            // Stock and every overload rung below it suspend easing.
            if guard.ladder.rung().index() >= LadderRung::Stock.index() {
                return true;
            }
            return self.pred_err_primed && self.pred_err > health::NOISE_REF;
        }
        self.cfg.easing_error_gate && self.gate_engaged
    }

    /// Whether the health ladder currently freezes predictor training
    /// (the middle and bottom rungs: measurements are too unhealthy to
    /// learn from).
    fn predictions_frozen(&self) -> bool {
        self.guard
            .as_ref()
            .is_some_and(|g| g.ladder.rung() != LadderRung::Easing)
    }

    /// Dequeues the next request for `core`, shedding CoDel casualties on
    /// the way. With no shed policy this is exactly one candidate pick.
    fn pick_next(&mut self, core: usize) -> Option<usize> {
        loop {
            let rid = self.pick_candidate(core)?;
            if self.codel_passes(core, rid) {
                return Some(rid);
            }
            // A terminal shed of a request already off its queue. Never
            // reached in closed loop (the shed policy requires open-loop
            // arrivals), so there is no respawn.
            self.retire_failed(rid, self.queue.now(), FailReason::CodelShed);
        }
    }

    /// CoDel at dequeue: compares the dequeued request's queue sojourn
    /// against the shed policy's target, dropping one request per
    /// interval once sojourns have stayed above target for a full
    /// interval. The guard ladder's shed rung halves the target.
    fn codel_passes(&mut self, core: usize, rid: usize) -> bool {
        let Some(shed) = self.cfg.shed else {
            return true;
        };
        let now = self.queue.now();
        let q = self.qidx(core);
        let queued_at = self.live[rid]
            .as_ref()
            .expect("dequeued request is live")
            .queued_at;
        let sojourn = now.saturating_sub(queued_at);
        let target = if self.shed_rung_active() {
            Cycles::new(shed.target.get() / 2)
        } else {
            shed.target
        };
        if sojourn <= target {
            self.codel_above[q] = None;
            return true;
        }
        match self.codel_above[q] {
            None => {
                self.codel_above[q] = Some(now);
                true
            }
            Some(since) if now.saturating_sub(since) >= shed.interval => {
                self.codel_above[q] = Some(now);
                false
            }
            Some(_) => true,
        }
    }

    /// The §5.2 selection policy, applied to `core`'s queue (the shared
    /// central queue under cFCFS).
    fn pick_candidate(&mut self, core: usize) -> Option<usize> {
        let q = self.qidx(core);
        match self.cfg.scheduler {
            SchedulerPolicy::Stock => self.runqueues[q].pop_front(),
            SchedulerPolicy::ContentionEasing {
                high_usage_threshold,
            } => {
                if self.easing_gated() {
                    // vaEWMA error exceeds the gate: fall back to stock
                    // selection until prediction confidence recovers.
                    self.stats.easing_gate_fallbacks += 1;
                    return self.runqueues[q].pop_front();
                }
                if self.any_other_core_high(core, high_usage_threshold) {
                    // Pick the non-high request closest to the head.
                    let pos = self.runqueues[q]
                        .iter()
                        .position(|&rid| !self.is_high(rid, high_usage_threshold));
                    match pos {
                        Some(p) => self.runqueues[q].remove(p),
                        // No suitable request: give up, schedule normally.
                        None => self.runqueues[q].pop_front(),
                    }
                } else {
                    self.runqueues[q].pop_front()
                }
            }
        }
    }

    fn is_high(&self, rid: usize, threshold: f64) -> bool {
        self.live[rid]
            .as_ref()
            .and_then(|lr| lr.predictor.predict())
            .is_some_and(|p| p >= threshold)
    }

    fn any_other_core_high(&self, core: usize, threshold: f64) -> bool {
        self.cores.iter().enumerate().any(|(c, state)| {
            c != core
                && state
                    .running
                    .is_some_and(|rid| self.is_high(rid, threshold))
        })
    }

    fn on_quantum(&mut self, core: usize, now: Cycles) {
        let Some(rid) = self.cores[core].running else {
            return;
        };
        if self.runqueues[self.qidx(core)].is_empty() {
            // Nothing to rotate to: extend the quantum.
            self.cores[core].quantum_epoch += 1;
            let epoch = self.cores[core].quantum_epoch;
            self.queue
                .schedule_after(self.cfg.quantum, Event::Quantum { core, epoch });
            return;
        }
        // Context switch: sample, rotate, dispatch.
        self.cs_sample(core, rid, now);
        self.cores[core].running = None;
        self.stats.context_switches += 1;
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.record(TraceEvent::SliceEnd {
                ts: now,
                core: core as u32,
                rid: rid as u64,
            });
            sink.record(TraceEvent::ContextSwitch {
                ts: now,
                core: core as u32,
                from: rid as u64,
                reason: SwitchReason::Quantum,
            });
        }
        let q = self.qidx(core);
        let gen = {
            let req = self.live[rid].as_mut().expect("rotated request is live");
            req.queued_at = now;
            req.attempt
        };
        self.runqueues[q].push_back(rid);
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.record(TraceEvent::QueueEnter {
                ts: now,
                rid: rid as u64,
                queue: q as u32,
                attempt: gen,
            });
        }
        self.schedule_next_on(core);
    }

    fn on_resched(&mut self, core: usize, now: Cycles) {
        let SchedulerPolicy::ContentionEasing {
            high_usage_threshold,
        } = self.cfg.scheduler
        else {
            return;
        };
        // Always re-arm first.
        self.cores[core].resched_epoch += 1;
        let epoch = self.cores[core].resched_epoch;
        self.queue
            .schedule_after(RESCHED_INTERVAL, Event::Resched { core, epoch });

        let Some(rid) = self.cores[core].running else {
            return;
        };
        if self.easing_gated() {
            // Prediction confidence too low: behave exactly like the stock
            // scheduler at this opportunity — no displacement, no sample.
            self.stats.easing_gate_fallbacks += 1;
            return;
        }
        // Avoid unnecessary re-scheduling: the current request stays unless
        // it is in a high-usage period while another core is too.
        if !self.is_high(rid, high_usage_threshold)
            || !self.any_other_core_high(core, high_usage_threshold)
        {
            return;
        }
        let q = self.qidx(core);
        let Some(pos) = self.runqueues[q]
            .iter()
            .position(|&r| !self.is_high(r, high_usage_threshold))
        else {
            return; // no contention-easing opportunity: current resumes
        };
        let next = self.runqueues[q].remove(pos).expect("position valid");
        self.cs_sample(core, rid, now);
        self.cores[core].running = None;
        self.stats.context_switches += 1;
        self.stats.resched_decisions += 1;
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.record(TraceEvent::SliceEnd {
                ts: now,
                core: core as u32,
                rid: rid as u64,
            });
            sink.record(TraceEvent::ContextSwitch {
                ts: now,
                core: core as u32,
                from: rid as u64,
                reason: SwitchReason::Eased,
            });
            sink.record(TraceEvent::ContentionEasing {
                ts: now,
                core: core as u32,
                displaced: rid as u64,
                chosen: next as u64,
            });
        }
        // The paper keeps the displaced current request at the queue head.
        self.runqueues[q].push_front(rid);
        let gen = self.live[rid]
            .as_ref()
            .expect("displaced request is live")
            .attempt;
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.record(TraceEvent::QueueEnter {
                ts: now,
                rid: rid as u64,
                queue: q as u32,
                attempt: gen,
            });
        }
        self.dispatch(core, next);
    }

    // ----- open-loop clients and streaming ----------------------------------

    /// Queue index serving `core`: per-core under dFCFS and the default
    /// placement, the one shared queue under cFCFS.
    fn qidx(&self, core: usize) -> usize {
        if self.cfg.queue_discipline == Some(QueueDiscipline::Cfcfs) {
            0
        } else {
            core
        }
    }

    /// Total requests turned away or abandoned so far — the reject-rate
    /// numerator of the guard ladder's overload-pressure signal.
    /// Involuntary rejections — the demand-vs-capacity signal feeding
    /// the health ladder's overload pressure. Brownout rejections are
    /// deliberately excluded: they are the ladder's *own* action, and
    /// echoing them back as input locks the ladder into its brownout
    /// rung long after real pressure has subsided (the rejections it
    /// causes sustain the score that keeps it rejecting).
    fn rejected_total(&self) -> u64 {
        self.stats.admission_rejections
            + self.stats.deadline_aborts
            + self.stats.codel_shed
            + self.stats.client_timeouts
    }

    /// Deepest runqueue occupancy as a fraction of the admission bound —
    /// the queue-pressure input of the guard ladder's overload band.
    /// Zero when queues are unbounded (no overload policy).
    fn deepest_queue_frac(&self) -> f64 {
        let Some(overload) = self.cfg.overload else {
            return 0.0;
        };
        if overload.max_runqueue == usize::MAX {
            return 0.0;
        }
        if self.cfg.queue_discipline == Some(QueueDiscipline::Cfcfs) {
            let running = self.cores.iter().filter(|c| c.running.is_some()).count();
            let bound = overload.max_runqueue.saturating_mul(self.cores.len());
            return ((self.runqueues[0].len() + running) as f64 / bound as f64).clamp(0.0, 1.0);
        }
        let deepest = (0..self.cores.len())
            .map(|c| self.runqueues[c].len() + usize::from(self.cores[c].running.is_some()))
            .max()
            .unwrap_or(0);
        (deepest as f64 / overload.max_runqueue as f64).clamp(0.0, 1.0)
    }

    /// The client's patience for the current attempt ran out: retry with
    /// capped exponential backoff plus deterministic hash jitter, or give
    /// up for good once retries are exhausted.
    fn on_client_timeout(&mut self, rid: usize, now: Cycles, factory: &mut dyn RequestFactory) {
        let client = self.cfg.client.expect("client timeout requires a policy");
        self.stats.client_timeouts += 1;
        let attempt = self.live[rid]
            .as_ref()
            .expect("timed-out request is live")
            .attempt;
        if attempt >= client.max_retries {
            self.fail_request(rid, now, FailReason::ClientTimeout, factory);
            return;
        }
        self.abort_attempt(rid, now);
        let lr = self.live[rid].as_mut().expect("aborted request is live");
        lr.attempt += 1;
        let gen = lr.attempt;
        self.stats.client_retries += 1;
        // Hash jitter, not a stream draw: retry timing must not perturb
        // the engine or fault streams, so retries-off runs stay
        // bit-identical to builds that predate the client model.
        let jitter =
            mix64(self.cfg.seed ^ ((rid as u64) << 16) ^ u64::from(gen)) as f64 / u64::MAX as f64;
        let backoff = client.retry_backoff.as_f64()
            * 2f64.powi(attempt.min(16) as i32)
            * (1.0 + 0.5 * jitter);
        let backoff = Cycles::new(backoff.max(1.0) as u64);
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.record(TraceEvent::RetryScheduled {
                ts: now,
                rid: rid as u64,
                attempt: gen,
                backoff,
                client: true,
            });
        }
        self.queue
            .schedule_after(backoff, Event::ClientResubmit { rid, gen });
    }

    /// The client resubmits a timed-out request: a fresh patience timer
    /// arms and the request re-enters admission from the top.
    fn on_client_resubmit(&mut self, rid: usize, factory: &mut dyn RequestFactory) {
        let client = self.cfg.client.expect("client resubmit requires a policy");
        let gen = self.live[rid]
            .as_ref()
            .expect("resubmitted request is live")
            .attempt;
        self.queue
            .schedule_after(client.timeout, Event::ClientTimeout { rid, gen });
        self.try_admit(rid, 0, factory);
    }

    /// Client abandons the current attempt: the request is pulled off
    /// whatever core or queue holds it and its partially-executed state
    /// is discarded — the consumed CPU cycles are wasted work, which is
    /// exactly the amplification mechanism of a metastable retry storm.
    /// The id stays live awaiting resubmission; its predictor and noise
    /// stream survive (they belong to the request, not the attempt).
    fn abort_attempt(&mut self, rid: usize, now: Cycles) {
        for c in 0..self.cores.len() {
            if self.cores[c].running == Some(rid) {
                self.cores[c].running = None;
                self.rates_dirty = true;
                self.stats.context_switches += 1;
                if let Some(sink) = self.sink.as_deref_mut() {
                    sink.record(TraceEvent::SliceEnd {
                        ts: now,
                        core: c as u32,
                        rid: rid as u64,
                    });
                }
                self.schedule_next_on(c);
                break;
            }
            if let Some(pos) = self.runqueues[c].iter().position(|&r| r == rid) {
                self.runqueues[c].remove(pos);
                break;
            }
        }
        let lr = self.live[rid].as_mut().expect("aborted request is live");
        self.stats.wasted_cycles += lr.cum_cycles;
        lr.stage_idx = 0;
        lr.ins_in_stage = 0.0;
        lr.phase_idx = 0;
        lr.next_syscall = 0;
        lr.timeline = Timeline::new();
        lr.accum = SamplePeriod::default();
        lr.accum_injection = None;
        lr.cum_cycles = 0.0;
        lr.cum_ins = 0.0;
        lr.syscalls.clear();
        lr.pending_transition = None;
        lr.last_syscall = None;
        lr.queued_at = now;
    }

    /// Records a completion, streaming it into the completion sink when
    /// one is attached (bounded-memory mode) or retaining it otherwise.
    fn push_completed(&mut self, request: CompletedRequest) {
        self.n_completed += 1;
        match self.completions.as_deref_mut() {
            Some(sink) => sink.on_complete(&request),
            None => self.completed.push(request),
        }
    }

    /// Records a failure, streaming or retaining it like
    /// [`Self::push_completed`].
    fn push_failed(&mut self, request: FailedRequest) {
        self.n_failed += 1;
        match self.completions.as_deref_mut() {
            Some(sink) => sink.on_fail(&request),
            None => self.failed.push(request),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use rbv_workloads::{factory_for, AppId, Mbench, Tpcc, TpccTxn, WebServer};

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
