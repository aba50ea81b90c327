//! The guard: every [`governor::WINDOW`] the sampling governor, the
//! health ladder and the power ladder read the window's counters, and
//! the invariant check list runs (once per run in ungoverned debug runs).

use rbv_guard::{governor, Governor, GovernorAction, HealthLadder, InvariantMonitor, WindowSample};
use rbv_sim::Cycles;
use rbv_telemetry::TraceEvent;

use super::{Engine, Event};

/// The cumulative counters a guard window is the difference of.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    busy: f64,
    sampling: f64,
    samples: u64,
    lost: u64,
    low_conf: u64,
    starved: u64,
    offered: u64,
    rejected: u64,
}

#[derive(Default)]
pub(super) struct GuardState {
    governor: Governor,
    pub(super) ladder: HealthLadder,
    monitor: InvariantMonitor,
    /// Start instant of the current accounting window.
    win_start: Cycles,
    /// The counters at `win_start`.
    base: Counters,
}

impl Engine<'_> {
    fn counters(&self) -> Counters {
        Counters {
            busy: self.stats.busy_cycles,
            sampling: self.priced_sampling_cycles(),
            samples: self.stats.samples_by_mode.iter().sum(),
            lost: self.stats.samples_lost,
            low_conf: self.stats.samples_low_confidence,
            starved: self.stats.starvation_windows,
            offered: self.store.generated() as u64,
            // Involuntary rejections, the ladder's overload signal.
            // Brownout rejections are the ladder's *own* action: echoing
            // them back as input would lock it into its brownout rung long
            // after real pressure subsided.
            rejected: self.stats.admission_rejections
                + self.stats.deadline_aborts
                + self.stats.codel_shed
                + self.stats.client_timeouts,
        }
    }

    /// Deepest runqueue occupancy as a fraction of the admission bound —
    /// the queue-pressure input of the guard ladder's overload band.
    /// Zero when queues are unbounded (no overload policy).
    fn deepest_queue_frac(&self) -> f64 {
        let bounded = self.cfg.overload.filter(|o| o.max_runqueue != usize::MAX);
        let Some(overload) = bounded else {
            return 0.0;
        };
        let cores = self.sched.cores();
        if self.sched.central {
            let bound = overload.max_runqueue.saturating_mul(cores);
            return (self.sched.central_load() as f64 / bound as f64).clamp(0.0, 1.0);
        }
        let deepest = (0..cores).map(|c| self.sched.load(c)).max().unwrap_or(0);
        (deepest as f64 / overload.max_runqueue as f64).clamp(0.0, 1.0)
    }

    /// The conservation laws every run obeys, checked over the window
    /// from `start` (with `base_busy` busy cycles then) to `now`:
    /// requests, clock, busy cycles, quantum accounting, and energy.
    fn check_invariants(
        &self,
        monitor: &mut InvariantMonitor,
        start: Cycles,
        base_busy: f64,
        now: Cycles,
    ) {
        monitor.check_request_conservation(
            self.store.generated() as u64,
            self.store.live() as u64,
            self.out.n_completed as u64,
            self.out.n_failed as u64,
            0,
        );
        monitor.check_clock_monotonic(start.get(), now.get());
        monitor.check_counter_monotonic("busy_cycles", base_busy, self.stats.busy_cycles);
        monitor.check_quantum_accounting(
            self.stats.busy_cycles - base_busy,
            now.saturating_sub(start).get(),
            self.sched.cores() as u64,
        );
        if let Some(ps) = &self.power {
            ps.check_energy(monitor);
        }
    }

    /// Closes one guard accounting window and opens the next.
    pub(super) fn on_guard_tick(&mut self, now: Cycles, reschedule: bool) {
        let Some(mut guard) = self.guard.take() else {
            return;
        };
        self.account_busy(now);
        let counters = self.counters();
        let base = guard.base;
        // Sample staleness: age of the newest sample on any busy core,
        // as a fraction of the window. Idle machines have nothing to
        // sample and score fresh.
        let newest = (0..self.sched.cores())
            .filter(|&c| self.sched.running[c].is_some())
            .map(|c| self.sampler.last_sample[c])
            .max();
        let staleness = newest.map_or(0.0, |last| {
            (now.saturating_sub(last).as_f64() / governor::WINDOW.as_f64()).clamp(0.0, 1.0)
        });
        let window = WindowSample {
            busy_cycles: counters.busy - base.busy,
            sampling_cycles: counters.sampling - base.sampling,
            samples: counters.samples - base.samples,
            samples_lost: counters.lost - base.lost,
            samples_low_confidence: counters.low_conf - base.low_conf,
            starvation_windows: counters.starved - base.starved,
            staleness_frac: staleness,
            noise_ewma: self.sched.gate.error(),
            offered: counters.offered - base.offered,
            rejected: counters.rejected - base.rejected,
            queue_frac: self.deepest_queue_frac(),
        };

        let decision = guard.governor.observe(&window);
        if decision.action != GovernorAction::Hold {
            self.sampler.scale = decision.scale;
            if decision.action == GovernorAction::Backoff {
                // In-flight timers armed before this back-off would keep
                // firing at the old cadence for one more period, pushing
                // the correction lag past the one-window slack; idle
                // cores re-arm on their next dispatch.
                for core in 0..self.sched.cores() {
                    if self.sched.running[core].is_some() {
                        self.arm_sample_timer(core);
                    }
                }
            }
            self.trace.emit(|| TraceEvent::GovernorAdjust {
                ts: now,
                action: decision.action.label().to_string(),
                scale: decision.scale,
                overhead_frac: decision.overhead_frac,
                budget_frac: governor::BUDGET_FRAC,
            });
        }

        if let Some(t) = guard.ladder.observe(&window, now) {
            self.trace.emit(|| TraceEvent::HealthTransition {
                ts: now,
                from: t.from.label().to_string(),
                to: t.to.label().to_string(),
                score: t.score,
            });
        }

        if let Some(ps) = &mut self.power {
            if ps.tick_ladder(now, &mut self.trace) {
                self.model.dirty = true;
            }
        }

        let monitor = &mut guard.monitor;
        let before = monitor.violations_total();
        self.check_invariants(monitor, guard.win_start, base.busy, now);
        monitor.check_counter_monotonic("sampling_cycles", base.sampling, counters.sampling);
        monitor.check_non_negative_slack(guard.governor.max_breach_streak());
        if let Some(ps) = &self.power {
            ps.check_bounds(monitor);
        }
        if monitor.violations_total() > before {
            if let Some((kind, detail)) = monitor.last_violation() {
                self.trace.emit(|| TraceEvent::InvariantViolation {
                    ts: now,
                    invariant: kind.label().to_string(),
                    detail: detail.to_string(),
                });
            }
        }

        guard.win_start = now;
        guard.base = counters;
        if reschedule {
            self.queue
                .schedule_after(governor::WINDOW, Event::GuardTick);
        }
        self.guard = Some(guard);
    }

    /// Closes the run's invariant accounting. A guarded run closes its
    /// final (partial) window, so short runs still get one governed
    /// observation, and folds the guard verdicts into the statistics (the
    /// ledger's `guard.*` family); an ungoverned debug run sweeps the
    /// check list once over the whole run, which emits no events and
    /// draws nothing. Either way an unconverged solve is a violation.
    pub(super) fn finish_checks(&mut self) {
        let now = self.queue.now();
        let mut monitor = InvariantMonitor::new();
        if self.guard.is_some() {
            self.on_guard_tick(now, false);
        } else if cfg!(debug_assertions) {
            self.check_invariants(&mut monitor, Cycles::ZERO, 0.0, now);
        }
        let stats = &mut self.stats;
        if let Some(guard) = &mut self.guard {
            stats.governor_windows = guard.governor.windows();
            stats.governor_backoffs = guard.governor.backoffs();
            stats.governor_recoveries = guard.governor.recoveries();
            stats.governor_budget_breaches = guard.governor.breaches();
            stats.governor_max_breach_streak = guard.governor.max_breach_streak();
            stats.governor_final_scale = guard.governor.scale();
            stats.governor_overhead_frac = guard.governor.cumulative_overhead_frac();
            stats.governor_slack_frac = guard.governor.slack_frac();
            stats.health_transitions = guard.ladder.transitions();
            stats.health_final_rung = guard.ladder.rung().index() as u64;
            monitor = std::mem::take(&mut guard.monitor);
        }
        monitor.record_unconverged_solves(stats.solver.unconverged);
        stats.invariant_checks = monitor.checks();
        stats.invariant_violations = monitor.violations();
        debug_assert!(
            self.guard.is_some() || monitor.violations_total() == 0,
            "engine invariant violated: {}",
            monitor.first_violation().unwrap_or("unknown")
        );
    }
}
