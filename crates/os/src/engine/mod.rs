//! The engine behind [`crate::machine`]: components that own their state,
//! and an event loop that routes each event to its component.
//!
//! * [`store`] — live requests by id, and the finished ones;
//! * [`timers`] — per-core timer slots behind the one [`Event::Timer`];
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
    /// A per-core timer; stale unless `epoch` is still current in the
    /// core's slot for `kind`.
    Timer {
        core: usize,
        kind: TimerKind,
        epoch: u64,
    },
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
    timers: Vec<timers::TimerSlots>,
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
            timers: vec![Default::default(); cores],
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

    /// Pops one event and routes it to its component. Returns `false`
    /// when the queue is empty (nothing left to do).
    pub(crate) fn step(&mut self, factory: &mut dyn RequestFactory) -> bool {
        let Some((now, event)) = self.queue.pop() else {
            return false;
        };
        self.stats.engine_events += 1;
        self.advance_all(now);
        match event {
            Event::Timer { core, kind, epoch } if self.timers[core].is_current(kind, epoch) => {
                match kind {
                    TimerKind::Milestone => self.on_milestone(core, now, factory),
                    TimerKind::Quantum => self.on_quantum(core, now),
                    TimerKind::Sample => self.on_sample_timer(core, now),
                    TimerKind::Resched => self.on_resched(core, now),
                }
            }
            Event::Arrival => {
                self.spawn(factory);
                self.schedule_next_arrival();
            }
            Event::HopWakeup { rid } if self.store.get(rid).is_some() => self.enqueue_runnable(rid),
            Event::Retry { rid, attempt, gen } if self.store.on_attempt(rid, gen) => {
                self.try_admit(rid, attempt, factory);
            }
            Event::DeadlineCheck { rid } if self.store.get(rid).is_some() => {
                self.fail_request(rid, now, FailReason::DeadlineAbort, factory);
            }
            Event::ClientTimeout { rid, gen } if self.store.on_attempt(rid, gen) => {
                self.on_client_timeout(rid, now, factory);
            }
            Event::ClientResubmit { rid, gen } if self.store.on_attempt(rid, gen) => {
                self.on_client_resubmit(rid, gen, factory);
            }
            Event::GuardTick => self.on_guard_tick(now, true),
            // Stale: a superseded timer, or an event for a request that
            // already resolved or has since moved to a later attempt.
            _ => {}
        }
        self.flush_rates();
        true
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
    /// the one armed before.
    fn arm_timer(&mut self, core: usize, kind: TimerKind, delay: Cycles) {
        let epoch = self.timers[core].arm(kind);
        self.queue
            .schedule_after(delay, Event::Timer { core, kind, epoch });
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
            self.timers[core].cancel(TimerKind::Milestone);
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
