//! Counter sampling (§2.1, §3) at context switches, interrupts and
//! syscalls; the observer effect with its "do no harm" compensation
//! (§3.1); measurement noise and faults; the governor's interval scale.

use rbv_core::predict::Predictor;
use rbv_core::series::{Metric, SamplePeriod};
use rbv_guard::LadderRung;
use rbv_sim::{Cycles, SimRng};
use rbv_telemetry::{SampleOrigin, TraceEvent};
use rbv_workloads::SyscallName;

use super::store::LiveRequest;
use super::timers::TimerKind;
use super::Engine;
use crate::config::SamplingPolicy;
use crate::observer::{injected_cost, pollution_of, spin_baseline, SampleMode, SamplingContext};
use crate::result::{SyscallRecord, TransitionRecord};

/// Relative sigma of the multiplicative measurement noise on the L2
/// reference/miss counts of each collected sample period. Real
/// performance-counter sampling jitters (interrupt skid, unattributed
/// speculative events, unrelated kernel activity); a noiseless simulator
/// would make trivial last-value prediction look unbeatable in Figure 11.
const COUNTER_NOISE: f64 = 0.08;
const _: () = assert!(COUNTER_NOISE > 0.0 && COUNTER_NOISE < 1.0);

pub(super) struct Sampler {
    /// Instant of each core's last sample (or dispatch).
    pub(super) last_sample: Vec<Cycles>,
    /// Per-core end instants of injected syscall-sampling starvation
    /// windows (`ZERO` = not starved).
    starved_until: Vec<Cycles>,
    /// Per-core reason the next collected sample must be flagged
    /// low-confidence (set by a lost sampling interrupt).
    low_conf: Vec<Option<&'static str>>,
    /// Sampling-interval multiplier the governor currently commands.
    /// Exactly 1.0 for ungoverned runs; [`Sampler::scaled`] returns its
    /// input unchanged in that case.
    pub(super) scale: f64,
    /// Context switches since the last context-switch sample, for the
    /// governor's per-mode decimation (always 0 while `scale` is 1.0, so
    /// ungoverned runs sample every switch).
    cs_skip: u64,
}

impl Sampler {
    pub(super) fn new(cores: usize) -> Sampler {
        Sampler {
            last_sample: vec![Cycles::ZERO; cores],
            starved_until: vec![Cycles::ZERO; cores],
            low_conf: vec![None; cores],
            scale: 1.0,
            cs_skip: 0,
        }
    }

    /// Applies the governor's interval scale to a sampling interval.
    /// Exact identity at scale 1.0 — the only value an ungoverned run can
    /// hold — so the guard's mere presence cannot perturb event timing.
    fn scaled(&self, t: Cycles) -> Cycles {
        if self.scale <= 1.0 {
            return t;
        }
        Cycles::new((t.as_f64() * self.scale).round() as u64)
    }
}

/// Takes the request's open period, less the paper's "do no harm"
/// compensation (§3.1): the minimum observer effect of the sampling hook
/// whose cost was injected into it.
fn close_period(lr: &mut LiveRequest) -> SamplePeriod {
    let mut period = std::mem::take(&mut lr.run.accum);
    if let Some(ctx) = lr.run.accum_injection.take() {
        let min_cost = spin_baseline(ctx);
        period.cycles = (period.cycles - min_cost.cycles).max(0.0);
        period.instructions = (period.instructions - min_cost.instructions).max(0.0);
        period.l2_refs = (period.l2_refs - min_cost.l2_refs).max(0.0);
        period.l2_misses = (period.l2_misses - min_cost.l2_misses).max(0.0);
    }
    period
}

/// Standard normal draw (Box–Muller) from the deterministic stream.
fn gaussian(rng: &mut SimRng) -> f64 {
    use rand::Rng;
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Scales a period's L2 references and misses by independent Gaussian
/// factors of relative sigma `refs` and `misses`. Independent jitter
/// must not break the counter invariant misses <= references.
fn jitter(period: &mut SamplePeriod, refs: f64, misses: f64, rng: &mut SimRng) {
    period.l2_refs *= (1.0 + refs * gaussian(rng)).max(0.0);
    period.l2_misses *= (1.0 + misses * gaussian(rng)).max(0.0);
    period.l2_misses = period.l2_misses.min(period.l2_refs);
}

/// Closes a completing request's timeline when the governor's
/// decimation elided its final context-switch sample. Dropping the
/// residual period would bias the measured request totals toward
/// whichever phases happened to be sampled — exactly the kind of
/// observer-induced distortion the guard exists to prevent. Modeled as a
/// free counter read at teardown: the scheduler is already in the
/// kernel retiring the request and no sampling path runs, so no observer
/// cost is injected and no sample is counted; the usual observer-effect
/// compensation still applies to any injection carried over from the
/// last real sample. Never reached at scale 1.0, so ungoverned runs are
/// untouched.
pub(super) fn teardown_flush(lr: &mut LiveRequest) {
    let period = close_period(lr);
    lr.run.pending_transition = None;
    if period.cycles > 0.0 {
        lr.run.timeline.push(period);
    }
}

impl Engine<'_> {
    /// Records a syscall the running request `rid` reached on `core`,
    /// and samples there if the policy triggers on it.
    pub(super) fn handle_syscall(&mut self, core: usize, rid: usize, now: Cycles, boundary: f64) {
        let lr = &mut self.store[rid];
        lr.run.ins_in_stage = lr.run.ins_in_stage.max(boundary);
        let name = lr.stage().syscalls[lr.run.next_syscall].name;
        lr.run.next_syscall += 1;
        lr.run.syscalls.push(SyscallRecord {
            at: now,
            request_cycles: lr.run.cum_cycles,
            request_ins: lr.run.cum_ins,
            name,
        });
        self.trace.emit(|| TraceEvent::SyscallEntry {
            ts: now,
            core: core as u32,
            rid: rid as u64,
            name: name.to_string(),
        });

        let (trigger, t_min) = match &self.cfg.sampling {
            SamplingPolicy::SyscallTriggered { t_syscall_min, .. } => (true, *t_syscall_min),
            SamplingPolicy::TransitionSignals {
                triggers,
                t_syscall_min,
                ..
            } => (triggers.contains(&name), *t_syscall_min),
            _ => (false, Cycles::ZERO),
        };
        // A starved syscall sampling path collects nothing (graceful
        // degradation): the already-armed backup interrupt timer covers
        // the stretch.
        if trigger
            && now.saturating_sub(self.sampler.last_sample[core]) >= self.sampler.scaled(t_min)
            && !self.sampling_starved(core, now)
        {
            self.take_sample(core, rid, now, SampleMode::SyscallEntry, Some(name));
            self.arm_sample_timer(core);
        }
        self.store[rid].run.last_syscall = Some(name);
    }

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
        if now < self.sampler.starved_until[core] {
            return true;
        }
        if self.fault_chance(self.cfg.faults.syscall_starvation_prob) {
            let until = now + self.cfg.faults.syscall_starvation_window;
            self.sampler.starved_until[core] = until;
            self.stats.starvation_windows += 1;
            self.trace.emit(|| TraceEvent::SamplingStarved {
                ts: now,
                core: core as u32,
                until,
            });
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
        // Guard coupling: an active health ladder supersedes the one-shot
        // error gate, and its lower rungs freeze predictor training
        // (measurements too unhealthy to learn from). A governed run
        // tracks prediction error even without a configured gate — it is
        // the ladder's counter-noise input.
        let gated = self.cfg.easing_error_gate && self.guard.is_none();
        let track_err = self.cfg.easing_error_gate || self.guard.is_some();
        let frozen = self
            .guard
            .as_ref()
            .is_some_and(|g| g.ladder.rung() != LadderRung::Easing);
        self.stats.samples_by_mode[mode.index()] += 1;
        match ctx {
            SamplingContext::InKernel => self.stats.samples_inkernel += 1,
            SamplingContext::Interrupt => self.stats.samples_interrupt += 1,
        }
        let lr = &mut self.store[rid];
        let mut period = close_period(lr);
        // Measurement noise on the cache event counters (see
        // [`COUNTER_NOISE`]). The relative noise shrinks with the square
        // root of the sample duration — event-count jitter averages out
        // over longer windows — with 1 ms as the reference duration. CPU
        // cycles and instructions are architecturally exact and stay
        // untouched.
        let dur_ms = period.cycles / Cycles::from_millis(1).as_f64();
        let sigma = COUNTER_NOISE * (1.0 / dur_ms.max(1e-3)).sqrt().min(4.0);
        jitter(&mut period, sigma * 0.5, sigma, &mut lr.noise_rng);
        if self.cfg.faults.counter_skid_sigma > 0.0 {
            // Injected counter skid: interrupt-based attribution lands a
            // few events early or late, on top of `COUNTER_NOISE`.
            let sigma = self.cfg.faults.counter_skid_sigma;
            jitter(&mut period, sigma, sigma, &mut self.fault_rng);
        }
        let mut low_conf = self.sampler.low_conf[core].take();
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

        self.trace.emit(|| TraceEvent::SamplingInstant {
            ts: now,
            core: core as u32,
            rid: rid as u64,
            origin: match ctx {
                SamplingContext::InKernel => SampleOrigin::InKernel,
                SamplingContext::Interrupt => SampleOrigin::Interrupt,
            },
            syscall: syscall.map(|s| s.to_string()),
            cycles: period.cycles,
            instructions: period.instructions,
            l2_refs: period.l2_refs,
            l2_misses: period.l2_misses,
        });

        if let Some(reason) = low_conf {
            // Degrade gracefully: the flagged period still lands on the
            // timeline (a gap would corrupt serialization), but it neither
            // produces transition records nor trains the predictor, and a
            // stale pending transition is dropped rather than paired with
            // a corrupted "after" period.
            self.stats.samples_low_confidence += 1;
            lr.run.pending_transition = None;
            self.trace.emit(|| TraceEvent::LowConfidenceSample {
                ts: now,
                core: core as u32,
                rid: rid as u64,
                reason: reason.into(),
            });
        } else {
            let period_cpi = period.value(Metric::Cpi);
            if let (Some((prev, name, before)), Some(after)) =
                (lr.run.pending_transition.take(), period_cpi)
            {
                self.transitions.push(TransitionRecord {
                    name,
                    prev_name: prev,
                    before_cpi: before,
                    after_cpi: after,
                });
            }
            if let (Some(name), Some(before)) = (syscall, period_cpi) {
                lr.run.pending_transition = Some((lr.run.last_syscall, name, before));
            }

            if let Some(mpi) = period.value(Metric::L2MissesPerIns) {
                if let Some(pred) = lr.predictor.predict().filter(|_| track_err && mpi > 1e-12) {
                    let rel = ((pred - mpi) / mpi).abs().min(10.0);
                    let gate = &mut self.sched.gate;
                    if let Some(engaged) = gate.observe(rel, gated) {
                        let error = gate.error();
                        self.trace.emit(|| TraceEvent::EasingGate {
                            ts: now,
                            engaged,
                            error,
                        });
                    }
                }
                if !frozen {
                    // Duration in vaEWMA units (t̂ = 1 ms).
                    let millis = period.cycles / Cycles::from_millis(1).as_f64();
                    lr.predictor.observe(mpi, millis.max(1e-9));
                }
            }
        }
        lr.run.timeline.push(period);

        // The sampling operation itself perturbs the *next* period.
        let pollution = pollution_of(&lr.profile());
        let cost = injected_cost(ctx, pollution);
        lr.run.accum.cycles += cost.cycles;
        lr.run.accum.instructions += cost.instructions;
        lr.run.accum.l2_refs += cost.l2_refs;
        lr.run.accum.l2_misses += cost.l2_misses;
        lr.run.accum_injection = Some(ctx);

        self.sampler.last_sample[core] = now;
    }

    pub(super) fn on_sample_timer(&mut self, core: usize, now: Cycles) {
        let Some(rid) = self.sched.running[core] else {
            return;
        };
        // Injected measurement fault: the sampling interrupt is lost
        // before its handler runs. The open period extends into the next
        // sample, which is flagged low-confidence, and the timer re-arms
        // as usual so sampling recovers on its own.
        let lost = self.fault_chance(self.cfg.faults.lost_interrupt_prob);
        if lost {
            self.stats.samples_lost += 1;
            self.sampler.low_conf[core] = Some("lost_interrupt");
            self.trace.emit(|| TraceEvent::SampleLost {
                ts: now,
                core: core as u32,
            });
        }
        let mode = match self.cfg.sampling {
            SamplingPolicy::Interrupt { .. } => SampleMode::Apic,
            // Backup interrupt covering a syscall-free stretch.
            SamplingPolicy::SyscallTriggered { .. } | SamplingPolicy::TransitionSignals { .. } => {
                SampleMode::BackupTimer
            }
            SamplingPolicy::ContextSwitchOnly => return,
        };
        if !lost {
            self.take_sample(core, rid, now, mode, None);
        }
        self.arm_sample_timer(core);
    }

    /// Arms `core`'s sampling timer for the policy at the governor's
    /// current scale: the periodic interrupt, or the backup interrupt of
    /// the syscall-triggered policies. Context-switch-only sampling has
    /// no timer.
    pub(super) fn arm_sample_timer(&mut self, core: usize) {
        let interval = match &self.cfg.sampling {
            SamplingPolicy::Interrupt { period } => *period,
            SamplingPolicy::SyscallTriggered { t_backup_int, .. }
            | SamplingPolicy::TransitionSignals { t_backup_int, .. } => *t_backup_int,
            SamplingPolicy::ContextSwitchOnly => return,
        };
        let delay = self.sampler.scaled(interval);
        self.arm_timer(core, TimerKind::Sample, delay);
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
    /// [`teardown_flush`]).
    pub(super) fn cs_sample(&mut self, core: usize, rid: usize, now: Cycles) -> bool {
        let sampler = &mut self.sampler;
        if sampler.scale > 1.0 {
            sampler.cs_skip += 1;
            if sampler.cs_skip < sampler.scale.ceil() as u64 {
                return false;
            }
            sampler.cs_skip = 0;
        }
        self.take_sample(core, rid, now, SampleMode::ContextSwitch, None);
        true
    }

    /// Cumulative priced observer cost: every sample taken so far, costed
    /// at the Mbench-Spin floor of the hook that took it (the same
    /// pricing the post-run [`crate::accountant::ObserverReport`] uses).
    pub(super) fn priced_sampling_cycles(&self) -> f64 {
        SampleMode::ALL
            .iter()
            .map(|m| {
                self.stats.samples_by_mode[m.index()] as f64 * spin_baseline(m.context()).cycles
            })
            .sum()
    }
}
