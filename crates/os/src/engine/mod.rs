//! The engine behind [`crate::machine`]: components that own their state,
//! and an event loop that routes each event to its component.
//!
//! * [`store`] — live requests by id, and the finished ones;
//! * [`timers`] — per-core timer slots, kept out of the event heap;
//! * [`ingress`] — arrivals, admission, deadlines, CoDel, client retries;
//! * [`sampler`] — counter sampling and the observer effect;
//! * [`sched`] — dispatch, contention easing and its gate, stealing;
//! * [`power`] — DVFS, the thermal model and the power-capping ladder;
//! * [`guard`] — the governor, the health ladder, the invariant checks.
//!
//! This file holds the loop and the execution core: linear advancement
//! between events, the contention-model solve, and the instruction
//! boundaries (syscalls, phase and stage ends) a running request reaches.

// The `expect`s assert cross-structure invariants (an id the scheduler
// holds is live; a running core has a rate). A violated one is a
// simulator bug where continuing would silently corrupt results.
#![allow(clippy::expect_used)]

mod guard;
mod ingress;
mod power;
mod sampler;
mod sched;
mod store;
mod timers;

use rbv_guard::governor;
use rbv_mem::{ContentionSolver, MachineSpec, PerfEstimate, SegmentProfile, SolveOutcome};
use rbv_sim::{Cycles, EventQueue, SimRng};
use rbv_telemetry::{SwitchReason, TraceEvent, TraceSink};
use rbv_workloads::{Request, RequestFactory};

use crate::config::{ArrivalProcess, QueueDiscipline, SimConfig};
use crate::machine::CompletionSink;
use crate::result::{FailReason, RunResult, RunStats, TransitionRecord};
use timers::TimerKind;

/// Sub-instruction tolerance when matching instruction boundaries.
const INS_EPS: f64 = 0.5;

#[derive(Debug, Clone, Copy)]
pub(crate) enum Event {
    /// A per-core timer, fired from its slot in [`timers::Timers`]. Never
    /// queued, so never stale.
    Timer { core: usize, kind: TimerKind },
    /// Open-loop request arrival.
    Arrival,
    /// A request delivered from another machine becomes runnable here
    /// (see [`crate::Machine::inject`]).
    HopWakeup { rid: usize },
    /// The client retries admission after backoff (overload protection).
    /// `gen` is the client attempt the retry belongs to.
    Retry { rid: usize, attempt: u32, gen: u32 },
    /// End-to-end deadline expiry check for a request.
    DeadlineCheck { rid: usize },
    /// The client's patience for attempt `gen` of a request runs out.
    ClientTimeout { rid: usize, gen: u32 },
    /// The client resubmits a timed-out request after backoff.
    ClientResubmit { rid: usize, gen: u32 },
    /// Guard accounting-window boundary. Never scheduled when
    /// [`SimConfig::guard`] is off.
    GuardTick,
}

impl Event {
    /// The event's index into [`crate::EventPops::KINDS`].
    fn pop_kind(&self) -> usize {
        let timers = TimerKind::ALL.len();
        match self {
            Event::Timer { kind, .. } => *kind as usize,
            Event::Arrival => timers,
            Event::HopWakeup { .. } => timers + 1,
            Event::Retry { .. } => timers + 2,
            Event::DeadlineCheck { .. } => timers + 3,
            Event::ClientTimeout { .. } => timers + 4,
            Event::ClientResubmit { .. } => timers + 5,
            Event::GuardTick => timers + 6,
        }
    }
}

/// The structured-event sink. Emission reads engine state but never
/// mutates it, and an untraced run builds no event at all.
struct Tracer<'s> {
    sink: Option<&'s mut dyn TraceSink>,
    /// Simultaneous-high-usage core count last reported to the sink.
    high: usize,
}

impl Tracer<'_> {
    /// Records the event `make` builds, if a sink is attached.
    fn emit(&mut self, make: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.record(make());
        }
    }
}

/// Per-core rates under the contention model, and its solve's reused
/// buffers: input profiles, static partition shares, fixed-point scratch.
#[derive(Default)]
struct RateModel {
    rates: Vec<Option<PerfEstimate>>,
    /// Whether the co-running set changed since the last solve.
    dirty: bool,
    profiles: Vec<Option<SegmentProfile>>,
    shares: Vec<f64>,
    solver: ContentionSolver,
}

impl RateModel {
    /// The rate of a running core.
    fn rate(&self, core: usize) -> PerfEstimate {
        self.rates[core].expect("running core has a rate")
    }

    /// Re-solves the rates for the current `profiles`.
    fn solve(&mut self, machine: &MachineSpec, partitioned: bool) -> SolveOutcome {
        if !partitioned {
            return machine.evaluate_into(&self.profiles, &mut self.solver, &mut self.rates);
        }
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
        machine.evaluate_partitioned_into(profiles, &self.shares, &mut self.solver, &mut self.rates)
    }
}

pub(crate) struct Engine<'s> {
    cfg: SimConfig,
    pub(crate) queue: EventQueue<Event>,
    timers: timers::Timers,
    store: store::RequestStore,
    pub(crate) out: store::Outcomes<'s>,
    sched: sched::Sched,
    sampler: sampler::Sampler,
    ingress: ingress::Ingress,
    model: RateModel,
    last_advance: Cycles,
    /// `None` (the default) skips every power branch and keeps runs
    /// bit-identical to power-unaware builds.
    power: Option<power::PowerState>,
    /// `None` (the default) schedules no guard events and leaves every
    /// sampling interval untouched.
    guard: Option<guard::GuardState>,
    trace: Tracer<'s>,
    transitions: Vec<TransitionRecord>,
    stats: RunStats,
    target: usize,
    rng: SimRng,
    /// Dedicated stream for fault injection and overload-protection
    /// jitter. Nothing is drawn from it when faults are disabled and no
    /// overload policy is set, so fault-free runs stay bit-identical to
    /// builds that predate fault injection.
    fault_rng: SimRng,
}

impl<'s> Engine<'s> {
    pub(crate) fn new(
        cfg: SimConfig,
        target: usize,
        sink: Option<&'s mut dyn TraceSink>,
        completions: Option<&'s mut dyn CompletionSink>,
    ) -> Engine<'s> {
        let cores = cfg.machine.topology.cores;
        let seed = cfg.seed;
        Engine {
            queue: EventQueue::new(),
            timers: timers::Timers::new(cores),
            store: Default::default(),
            out: store::Outcomes {
                sink: completions,
                ..Default::default()
            },
            sched: sched::Sched::new(cores, cfg.queue_discipline == Some(QueueDiscipline::Cfcfs)),
            sampler: sampler::Sampler::new(cores),
            ingress: ingress::Ingress::new(cores),
            model: RateModel {
                rates: vec![None; cores],
                profiles: vec![None; cores],
                shares: vec![0.0; cores],
                ..RateModel::default()
            },
            last_advance: Cycles::ZERO,
            power: cfg
                .power
                .map(|_| power::PowerState::new(seed, cores, cfg.thermal_storm, cfg.guard)),
            guard: cfg.guard.then(guard::GuardState::default),
            trace: Tracer { sink, high: 0 },
            transitions: Vec::new(),
            stats: RunStats {
                high_usage_cycles: vec![0.0; cores + 1],
                ..RunStats::default()
            },
            target,
            rng: SimRng::seed_from(seed ^ 0x0515_e0e0),
            fault_rng: SimRng::seed_from(seed ^ 0xfa17_0b5e),
            cfg,
        }
    }

    /// Runs to the target and returns the result.
    pub(crate) fn run(mut self, factory: &mut dyn RequestFactory) -> RunResult {
        self.start(factory);
        while !self.target_reached() {
            if !self.step(factory) {
                break; // no runnable work left (target > generated would be a bug)
            }
        }
        self.finish_run()
    }

    pub(crate) fn target_reached(&self) -> bool {
        self.out.resolved() >= self.target
    }

    /// Registers a request delivered from another machine at `at`.
    pub(crate) fn inject(&mut self, request: Request, at: Cycles) -> usize {
        let at = at.max(self.queue.now());
        let id = self.push_live(request, at);
        self.queue.schedule(at, Event::HopWakeup { rid: id });
        id
    }

    /// Seeds the event queue: initial spawns (or the first open-loop
    /// arrival) and the first guard tick. Externally driven machines
    /// start empty — their owner injects every request.
    pub(crate) fn start(&mut self, factory: &mut dyn RequestFactory) {
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

    /// The instant of the next event: the earliest armed timer or the
    /// heap top. `None` when nothing is pending.
    pub(crate) fn next_time(&self) -> Option<Cycles> {
        let timer = self.timers.next().map(|((at, _), ..)| at);
        match (timer, self.queue.peek_time()) {
            (Some(timer), Some(top)) => Some(timer.min(top)),
            (timer, top) => timer.or(top),
        }
    }

    /// Takes the next event: the earliest armed timer, or the heap top
    /// when its `(time, seq)` key is smaller.
    fn next_event(&mut self) -> Option<(Cycles, Event)> {
        let top = self.queue.peek_key();
        match self.timers.next() {
            Some(((at, seq), core, kind)) if top.is_none_or(|top| (at, seq) < top) => {
                self.timers.cancel(core, kind);
                self.queue.advance_to(at);
                Some((at, Event::Timer { core, kind }))
            }
            _ => self.queue.pop(),
        }
    }

    /// Takes one event and routes it to its component. Returns `false`
    /// when nothing is pending (nothing left to do).
    pub(crate) fn step(&mut self, factory: &mut dyn RequestFactory) -> bool {
        let Some((now, event)) = self.next_event() else {
            return false;
        };
        self.stats.engine_events += 1;
        self.advance_all(now);
        let live = self.is_live(event);
        self.stats.pops.record(event.pop_kind(), live);
        if live {
            match event {
                Event::Timer { core, kind } => match kind {
                    TimerKind::Milestone => self.on_milestone(core, now, factory),
                    TimerKind::Quantum => self.on_quantum(core, now),
                    TimerKind::Sample => self.on_sample_timer(core, now),
                    TimerKind::Resched => self.on_resched(core, now),
                },
                Event::Arrival => {
                    self.spawn(factory);
                    self.schedule_next_arrival();
                }
                Event::HopWakeup { rid } => self.enqueue_runnable(rid),
                Event::Retry { rid, attempt, .. } => self.try_admit(rid, attempt, factory),
                Event::DeadlineCheck { rid } => {
                    self.fail_request(rid, now, FailReason::DeadlineAbort, factory);
                }
                Event::ClientTimeout { rid, .. } => self.on_client_timeout(rid, now, factory),
                Event::ClientResubmit { rid, gen } => self.on_client_resubmit(rid, gen, factory),
                Event::GuardTick => self.on_guard_tick(now, true),
            }
        }
        self.flush_rates();
        true
    }

    /// Whether `event` still applies. A request-keyed event goes stale
    /// once its request resolved or moved on to a later attempt; timers,
    /// arrivals and guard ticks never do.
    fn is_live(&self, event: Event) -> bool {
        match event {
            Event::HopWakeup { rid } | Event::DeadlineCheck { rid } => {
                self.store.get(rid).is_some()
            }
            Event::Retry { rid, gen, .. }
            | Event::ClientTimeout { rid, gen }
            | Event::ClientResubmit { rid, gen } => self.store.on_attempt(rid, gen),
            Event::Timer { .. } | Event::Arrival | Event::GuardTick => true,
        }
    }

    /// Closes the run and returns its [`RunResult`].
    pub(crate) fn finish_run(mut self) -> RunResult {
        self.finish_checks();
        self.stats.energy = self.power.as_ref().map(power::PowerState::stats);
        RunResult {
            completed: self.out.completed,
            failed: self.out.failed,
            transitions: self.transitions,
            stats: self.stats,
            total_time: self.queue.now(),
        }
    }

    /// Registers a newly generated request as live, arrived (and queued)
    /// at `at`, and returns its id. The noise stream is forked by id, so
    /// ids — and therefore streams — follow generation order.
    fn push_live(&mut self, request: Request, at: Cycles) -> usize {
        let noise = self.rng.fork_labeled(self.store.generated() as u64);
        self.store.insert(request, at, noise)
    }

    /// Arms `core`'s timer of `kind` to fire after `delay`, superseding
    /// the one armed before. Its `seq` comes from the heap's counter, so
    /// it ranks among same-cycle events in arming order.
    fn arm_timer(&mut self, core: usize, kind: TimerKind, delay: Cycles) {
        let key = (self.queue.now() + delay, self.queue.reserve_seq());
        self.timers.arm(core, kind, key);
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
        let cores = self.sched.cores();
        let mut running_count = 0usize;
        let mut high_count = 0usize;
        for (c, running) in self.sched.running.iter().enumerate() {
            let Some(rid) = *running else {
                continue;
            };
            let rate = self.model.rate(c);
            running_count += 1;
            if let Some(threshold) = self.cfg.measure_threshold {
                if rate.l2_misses_per_ins() >= threshold {
                    high_count += 1;
                }
            }
            let d_ins = dt / rate.cpi;
            let d_refs = d_ins * rate.l2_refs_per_ins;
            let d_misses = d_refs * rate.l2_miss_ratio;
            let run = &mut self.store[rid].run;
            run.ins_in_stage += d_ins;
            run.cum_cycles += dt;
            run.cum_ins += d_ins;
            run.accum.cycles += dt;
            run.accum.instructions += d_ins;
            run.accum.l2_refs += d_refs;
            run.accum.l2_misses += d_misses;
        }
        if running_count > 0 {
            self.stats.busy_cycles += dt;
            self.stats.high_usage_cycles[high_count.min(cores)] += dt;
        }
        // An L2-pressure episode boundary: the simultaneous-high count over
        // [interval_start, now] differs from the previously reported one.
        // The change took effect at the event that started the interval.
        if self.trace.sink.is_some() && self.cfg.measure_threshold.is_some() {
            let high = if running_count > 0 {
                high_count.min(cores)
            } else {
                0
            };
            if high != self.trace.high {
                self.trace.high = high;
                self.trace.emit(|| TraceEvent::L2Pressure {
                    ts: interval_start,
                    high_cores: high as u32,
                });
            }
        }
        if let Some(ps) = &mut self.power {
            if ps.advance(interval_start, now, &mut self.trace) {
                // The firmware clamp (or its release) changes the
                // effective CPI from the next slice on.
                self.model.dirty = true;
            }
        }
    }

    // ----- rates and milestones -------------------------------------------

    fn flush_rates(&mut self) {
        if !self.model.dirty {
            return;
        }
        self.model.dirty = false;
        for (slot, running) in self.model.profiles.iter_mut().zip(&self.sched.running) {
            *slot = running.map(|rid| self.store[rid].profile());
        }
        let outcome = self
            .model
            .solve(&self.cfg.machine, self.cfg.static_cache_partition);
        self.stats.solver.record(outcome);
        if let Some(ps) = &mut self.power {
            let l2_hit = self.cfg.machine.l2_hit_cycles;
            let now = self.queue.now();
            ps.apply_dvfs(&mut self.model.rates, l2_hit, now, &mut self.trace);
        }
        for c in 0..self.sched.cores() {
            self.push_milestone(c);
        }
    }

    fn push_milestone(&mut self, core: usize) {
        let Some(rid) = self.sched.running[core] else {
            self.timers.cancel(core, TimerKind::Milestone);
            return;
        };
        let rate = self.model.rate(core);
        let lr = &self.store[rid];
        let (boundary, _) = lr.next_boundary();
        let d_ins = (boundary - lr.run.ins_in_stage).max(0.0);
        let cycles = (d_ins * rate.cpi).ceil().max(1.0) as u64;
        self.arm_timer(core, TimerKind::Milestone, Cycles::new(cycles));
    }

    fn on_milestone(&mut self, core: usize, now: Cycles, factory: &mut dyn RequestFactory) {
        let Some(rid) = self.sched.running[core] else {
            return;
        };
        loop {
            let lr = &mut self.store[rid];
            let (boundary, is_syscall) = lr.next_boundary();
            if lr.run.ins_in_stage + INS_EPS < boundary {
                break;
            }
            if is_syscall {
                self.handle_syscall(core, rid, now, boundary);
                continue;
            }
            // Phase boundary: snap to it exactly.
            lr.run.ins_in_stage = lr.run.ins_in_stage.max(boundary);
            let last_phase = lr.run.phase_idx + 1 == lr.stage().phases.len();
            if !last_phase {
                lr.run.phase_idx += 1;
                self.model.dirty = true;
                continue;
            }
            // Stage (possibly request) end.
            self.on_stage_end(core, rid, now, factory);
            return;
        }
        if !self.model.dirty {
            self.push_milestone(core);
        }
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
        self.vacate(core, rid, now, Some(SwitchReason::StageEnd));
        let lr = &mut self.store[rid];
        if lr.run.stage_idx + 1 < lr.request.stages.len() {
            // Propagate the request context to the next component (§2.1):
            // the socket hop re-enters the scheduler on another runqueue.
            lr.run.stage_idx += 1;
            lr.run.phase_idx = 0;
            lr.run.next_syscall = 0;
            lr.run.ins_in_stage = 0.0;
            self.enqueue_runnable(rid);
        } else {
            if !flushed {
                sampler::teardown_flush(lr);
            }
            self.out.complete(self.store.remove(rid), now);
            self.trace.emit(|| TraceEvent::RequestEnd {
                ts: now,
                rid: rid as u64,
            });
            if self.cfg.arrivals == ArrivalProcess::ClosedLoop {
                self.spawn(factory);
            }
        }
        // The enqueue above may already have dispatched onto this core.
        if self.sched.running[core].is_none() {
            self.schedule_next_on(core);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::EventPops;
    use rbv_workloads::Tpcc;

    /// An externally driven engine holding request `a`, injected at cycle
    /// 0, and, when `b_at` is given, request `b` injected at `b_at`: its
    /// `HopWakeup` is queued before `a` runs and arms any timer.
    fn two_requests(b_at: Option<Cycles>) -> (Engine<'static>, Tpcc) {
        let cfg = SimConfig {
            arrivals: ArrivalProcess::External,
            ..SimConfig::paper_default()
        };
        let mut factory = Tpcc::new(42, 0.05);
        let mut engine = Engine::new(cfg, 2, None, None);
        engine.start(&mut factory);
        engine.inject(factory.next_request(), Cycles::ZERO);
        if let Some(at) = b_at {
            engine.inject(factory.next_request(), at);
        }
        (engine, factory)
    }

    /// Takes one event; returns its instant and its kind.
    fn step(engine: &mut Engine<'_>, factory: &mut Tpcc) -> (Cycles, &'static str) {
        let before = engine.stats.pops;
        assert!(engine.step(factory), "an event is pending");
        let after = engine.stats.pops;
        let kind = (0..EventPops::KINDS.len())
            .find(|&k| after.live[k] + after.stale[k] != before.live[k] + before.stale[k])
            .expect("the step counted its event");
        (engine.queue.now(), EventPops::KINDS[kind])
    }

    #[test]
    fn a_timer_and_a_queued_event_due_on_one_cycle_fire_in_arming_order() {
        // Timer armed first: `a` starts at cycle 0 and arms its timers,
        // then `b`'s wakeup is queued for the earliest timer's deadline.
        let (mut engine, mut factory) = two_requests(None);
        assert_eq!(
            step(&mut engine, &mut factory),
            (Cycles::ZERO, "hop_wakeup")
        );
        let ((due, _), _, kind) = engine.timers.next().expect("a running core arms timers");
        let timer = EventPops::KINDS[kind as usize];
        engine.inject(factory.next_request(), due);
        assert_eq!(step(&mut engine, &mut factory), (due, timer));
        assert_eq!(step(&mut engine, &mut factory), (due, "hop_wakeup"));

        // Wakeup queued first: the same requests, `b`'s wakeup queued for
        // that cycle before `a` runs. `a` arms the same timers, and the
        // wakeup still goes first (`b`'s dispatch then re-times `a`).
        let (mut engine, mut factory) = two_requests(Some(due));
        assert_eq!(
            step(&mut engine, &mut factory),
            (Cycles::ZERO, "hop_wakeup")
        );
        let next = engine.timers.next().map(|((at, _), _, k)| (at, k));
        assert_eq!(next, Some((due, kind)));
        assert_eq!(step(&mut engine, &mut factory), (due, "hop_wakeup"));
    }

    #[test]
    fn every_pop_is_counted_once_and_no_timer_goes_stale() {
        let cfg = SimConfig {
            arrivals: ArrivalProcess::OpenPoisson {
                mean_interarrival: Cycles::new(60_000),
            },
            sampling: crate::config::SamplingPolicy::Interrupt {
                period: Cycles::new(30_000),
            },
            quantum: Cycles::new(20_000),
            ..SimConfig::paper_default()
        };
        let mut factory = Tpcc::new(7, 0.05);
        let result = Engine::new(cfg, 200, None, None).run(&mut factory);
        let pops = result.stats.pops;
        assert_eq!(pops.total(), result.stats.engine_events);
        for kind in [TimerKind::Milestone, TimerKind::Quantum, TimerKind::Sample] {
            assert!(pops.live[kind as usize] > 0, "{kind:?}: {pops:?}");
        }
        let timers = TimerKind::ALL.len();
        assert!(pops.stale[..timers].iter().all(|&n| n == 0), "{pops:?}");
    }
}
