//! The scheduler: runqueues, dispatch, the §5.2 contention-easing policy
//! and its confidence gate, work stealing, quantum and resched.

use std::collections::VecDeque;

use rbv_core::predict::Predictor;
use rbv_guard::{health, LadderRung, EASING_ERROR_GATE};
use rbv_sim::rng::mix64;
use rbv_sim::Cycles;
use rbv_telemetry::{SwitchReason, TraceEvent};

use super::power::PowerState;
use super::timers::TimerKind;
use super::Engine;
use crate::config::{QueueDiscipline, SchedulerPolicy};
use crate::result::FailReason;

/// Contention-easing re-scheduling attempt interval: the paper's ≤ 5 ms
/// (§5.2).
const RESCHED_INTERVAL: Cycles = Cycles::from_millis(5);

pub(super) struct Sched {
    /// The request each core is running.
    pub(super) running: Vec<Option<usize>>,
    /// One runqueue per core; under cFCFS only queue 0, the central one,
    /// is used.
    pub(super) runqueues: Vec<VecDeque<usize>>,
    pub(super) central: bool,
    pub(super) gate: EasingGate,
}

impl Sched {
    pub(super) fn new(cores: usize, central: bool) -> Sched {
        Sched {
            running: vec![None; cores],
            runqueues: (0..cores).map(|_| VecDeque::new()).collect(),
            central,
            gate: EasingGate::default(),
        }
    }

    pub(super) fn cores(&self) -> usize {
        self.running.len()
    }

    /// Queue index serving `core`: per-core under dFCFS and the default
    /// placement, the one shared queue under cFCFS.
    pub(super) fn qidx(&self, core: usize) -> usize {
        if self.central {
            0
        } else {
            core
        }
    }

    /// Requests queued on or running on core `c`.
    pub(super) fn load(&self, c: usize) -> usize {
        self.runqueues[c].len() + usize::from(self.running[c].is_some())
    }

    /// Requests in the cFCFS central queue or running anywhere.
    pub(super) fn central_load(&self) -> usize {
        self.runqueues[0].len() + self.running.iter().filter(|r| r.is_some()).count()
    }
}

/// Running mean relative error of vaEWMA predictions (`None` before the
/// first), and the one-shot gate that suspends easing while it is high.
#[derive(Debug, Default)]
pub(super) struct EasingGate {
    err: Option<f64>,
    engaged: bool,
}

impl EasingGate {
    /// Folds one relative prediction error into the running mean. With
    /// `gated`, returns the gate's new state when it flips.
    pub(super) fn observe(&mut self, rel: f64, gated: bool) -> Option<bool> {
        let err = self.err.map_or(rel, |err| 0.9 * err + 0.1 * rel);
        self.err = Some(err);
        let engaged = err > EASING_ERROR_GATE;
        if !gated || engaged == self.engaged {
            return None;
        }
        self.engaged = engaged;
        Some(engaged)
    }

    /// The running mean error, 0 before the first prediction.
    pub(super) fn error(&self) -> f64 {
        self.err.unwrap_or(0.0)
    }
}

impl Engine<'_> {
    /// Makes a request runnable on its [`Self::placement`] queue and
    /// wakes an idle core.
    pub(super) fn enqueue_runnable(&mut self, rid: usize) {
        let queue = self.placement(rid);
        self.enqueue(queue, rid, self.queue.now());
        self.wake_idle_for(queue);
    }

    /// The queue a new or hopping request joins: by default the
    /// least-loaded core, skipping a parked one (ties go to the lowest
    /// index); under dFCFS, NIC-style receive-side scaling — a hash of the
    /// request id indexes a 128-slot indirection table mapped round-robin
    /// onto cores, pinning the request to one queue for its whole
    /// lifetime, retries included; under cFCFS, the one central queue.
    pub(super) fn placement(&self, rid: usize) -> usize {
        match self.cfg.queue_discipline {
            None => {
                let parked = self.parked_core();
                (0..self.sched.cores())
                    .filter(|&c| Some(c) != parked)
                    .min_by_key(|&c| self.sched.load(c))
                    .expect("at least one core")
            }
            Some(QueueDiscipline::Dfcfs) => {
                let slot = mix64(self.cfg.seed ^ 0x55aa ^ (rid as u64)) % 128;
                (slot as usize) % self.sched.cores()
            }
            Some(QueueDiscipline::Cfcfs) => 0,
        }
    }

    /// Appends `rid` to runqueue `queue`, queued as of `now`.
    pub(super) fn enqueue(&mut self, queue: usize, rid: usize, now: Cycles) {
        let lr = &mut self.store[rid];
        lr.queued_at = now;
        let attempt = lr.attempt;
        self.sched.runqueues[queue].push_back(rid);
        self.trace.emit(|| TraceEvent::QueueEnter {
            ts: now,
            rid: rid as u64,
            queue: queue as u32,
            attempt,
        });
    }

    /// The core currently parked by the guard's power-capping ladder.
    /// A parked core receives no new placements, pulls nothing from the
    /// cFCFS central queue, and steals no work — but it drains whatever
    /// already sits in its own queue, so no request is ever stranded.
    /// (RSS-pinned placement ignores parking: the indirection table is
    /// fixed.)
    pub(super) fn parked_core(&self) -> Option<usize> {
        if self.sched.cores() <= 1 {
            return None;
        }
        self.power.as_ref().and_then(PowerState::parked)
    }

    /// Wakes a core that can serve `queue`: under cFCFS any idle core
    /// pulls from the central queue; otherwise the queue is per-core.
    pub(super) fn wake_idle_for(&mut self, queue: usize) {
        if self.sched.central {
            let parked = self.parked_core();
            if let Some(idle) = (0..self.sched.cores())
                .find(|&c| self.sched.running[c].is_none() && Some(c) != parked)
            {
                self.schedule_next_on(idle);
            }
        } else if self.sched.running[queue].is_none() {
            self.schedule_next_on(queue);
        }
    }

    /// Takes `rid` off `core`: the core goes idle and the switch is
    /// counted and traced (with `reason`, when it is a context switch).
    pub(super) fn vacate(
        &mut self,
        core: usize,
        rid: usize,
        now: Cycles,
        reason: Option<SwitchReason>,
    ) {
        self.sync(core, now);
        self.sched.running[core] = None;
        self.model.dirty = true;
        self.stats.context_switches += 1;
        self.trace.emit(|| TraceEvent::SliceEnd {
            ts: now,
            core: core as u32,
            rid: rid as u64,
        });
        if let Some(reason) = reason {
            self.trace.emit(|| TraceEvent::ContextSwitch {
                ts: now,
                core: core as u32,
                from: rid as u64,
                reason,
            });
        }
    }

    /// Pulls `rid` off whichever core runs it (which then dispatches its
    /// next request) or whichever runqueue holds it.
    pub(super) fn evict(&mut self, rid: usize, now: Cycles) {
        for c in 0..self.sched.cores() {
            if self.sched.running[c] == Some(rid) {
                self.vacate(c, rid, now, None);
                self.schedule_next_on(c);
                return;
            }
            if let Some(pos) = self.sched.runqueues[c].iter().position(|&r| r == rid) {
                self.sched.runqueues[c].remove(pos);
                return;
            }
        }
    }

    /// Picks and dispatches the next request on an idle `core`.
    pub(super) fn schedule_next_on(&mut self, core: usize) {
        debug_assert!(self.sched.running[core].is_none());
        let parked = self.parked_core() == Some(core);
        if self.cfg.work_stealing && !parked && self.sched.runqueues[core].is_empty() {
            self.steal_into(core);
        }
        // A parked core never pulls new work from the cFCFS central
        // queue; its own (per-core) queue it still drains.
        let next = if parked && self.sched.central {
            None
        } else {
            self.pick_next(core)
        };
        let Some(rid) = next else {
            // Idle: cancel timers.
            self.timers.cancel_all(core);
            self.model.dirty = true;
            return;
        };
        self.dispatch(core, rid);
    }

    fn dispatch(&mut self, core: usize, rid: usize) {
        let now = self.queue.now();
        self.sched.running[core] = Some(rid);
        self.seg.since[core] = now;
        self.sampler.last_sample[core] = now;
        self.model.dirty = true;
        self.trace.emit(|| TraceEvent::SliceBegin {
            ts: now,
            core: core as u32,
            rid: rid as u64,
            stage: self.store[rid].run.stage_idx as u32,
            component: self.store[rid].stage().component.to_string(),
        });
        self.arm_timer(core, TimerKind::Quantum, self.cfg.quantum);
        self.arm_sample_timer(core);
        if let SchedulerPolicy::ContentionEasing { .. } = self.cfg.scheduler {
            self.arm_timer(core, TimerKind::Resched, RESCHED_INTERVAL);
        }
    }

    /// Migrates the tail request of the longest runqueue into an idle
    /// `core`'s (empty) queue. Stealing from the tail keeps each queue's
    /// head position — which both schedulers treat as meaningful — intact.
    fn steal_into(&mut self, core: usize) {
        let queues = &mut self.sched.runqueues;
        let Some(victim) = (0..queues.len())
            .filter(|&c| c != core)
            .max_by_key(|&c| queues[c].len())
            .filter(|&c| queues[c].len() > 1)
        else {
            return;
        };
        if let Some(rid) = queues[victim].pop_back() {
            queues[core].push_back(rid);
            self.stats.migrations += 1;
            let now = self.queue.now();
            self.trace.emit(|| TraceEvent::Migration {
                ts: now,
                rid: rid as u64,
                from_core: victim as u32,
                to_core: core as u32,
            });
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
            return self.sched.gate.error() > health::NOISE_REF;
        }
        self.cfg.easing_error_gate && self.sched.gate.engaged
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

    /// The §5.2 selection policy, applied to `core`'s queue (the shared
    /// central queue under cFCFS).
    fn pick_candidate(&mut self, core: usize) -> Option<usize> {
        let q = self.sched.qidx(core);
        self.take_eased(core, None)
            .or_else(|| self.sched.runqueues[q].pop_front())
    }

    /// Contention easing's choice for `core`: while another core runs a
    /// high-usage request (and `current`, if any, is high too), the
    /// non-high request closest to the head of `core`'s queue, taken off
    /// it. `None` without easing, with easing gated (counted as a
    /// fallback to stock selection), or with no such request.
    fn take_eased(&mut self, core: usize, current: Option<usize>) -> Option<usize> {
        let SchedulerPolicy::ContentionEasing {
            high_usage_threshold: th,
        } = self.cfg.scheduler
        else {
            return None;
        };
        if self.easing_gated() {
            self.stats.easing_gate_fallbacks += 1;
            return None;
        }
        // Whether a request's predicted L2 misses per instruction are high.
        let high = |rid: usize| {
            let lr = self.store.get(rid);
            lr.and_then(|lr| lr.predictor.predict())
                .is_some_and(|p| p >= th)
        };
        let other_high =
            (0..self.sched.cores()).any(|c| c != core && self.sched.running[c].is_some_and(high));
        if current.is_some_and(|rid| !high(rid)) || !other_high {
            return None;
        }
        let q = self.sched.qidx(core);
        let pos = self.sched.runqueues[q].iter().position(|&r| !high(r))?;
        self.sched.runqueues[q].remove(pos)
    }

    pub(super) fn on_quantum(&mut self, core: usize, now: Cycles) {
        let Some(rid) = self.sched.running[core] else {
            return;
        };
        let q = self.sched.qidx(core);
        if self.sched.runqueues[q].is_empty() {
            // Nothing to rotate to: extend the quantum.
            self.arm_timer(core, TimerKind::Quantum, self.cfg.quantum);
            return;
        }
        // Context switch: sample, rotate, dispatch.
        self.cs_sample(core, rid, now);
        self.vacate(core, rid, now, Some(SwitchReason::Quantum));
        self.enqueue(q, rid, now);
        self.schedule_next_on(core);
    }

    pub(super) fn on_resched(&mut self, core: usize, now: Cycles) {
        let SchedulerPolicy::ContentionEasing { .. } = self.cfg.scheduler else {
            return;
        };
        // Always re-arm first.
        self.arm_timer(core, TimerKind::Resched, RESCHED_INTERVAL);
        let Some(rid) = self.sched.running[core] else {
            return;
        };
        // The current request stays unless it is in a high-usage period
        // while another core is too and a non-high request waits. Gated
        // easing behaves exactly like the stock scheduler here: no
        // displacement, no sample.
        let Some(next) = self.take_eased(core, Some(rid)) else {
            return;
        };
        let q = self.sched.qidx(core);
        self.cs_sample(core, rid, now);
        self.vacate(core, rid, now, Some(SwitchReason::Eased));
        self.stats.resched_decisions += 1;
        self.trace.emit(|| TraceEvent::ContentionEasing {
            ts: now,
            core: core as u32,
            displaced: rid as u64,
            chosen: next as u64,
        });
        // The paper keeps the displaced current request at the queue head.
        self.sched.runqueues[q].push_front(rid);
        let attempt = self.store[rid].attempt;
        self.trace.emit(|| TraceEvent::QueueEnter {
            ts: now,
            rid: rid as u64,
            queue: q as u32,
            attempt,
        });
        self.dispatch(core, next);
    }
}
