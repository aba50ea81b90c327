//! Ingress: request arrivals (closed loop, Poisson, MMPP) and the
//! defenses at the machine's door — bounded admission with retries,
//! deadlines, CoDel shedding at dequeue, client timeouts with
//! resubmission, and the guard ladder's brownout rejections.

use rbv_guard::LadderRung;
use rbv_sim::rng::mix64;
use rbv_sim::Cycles;
use rbv_telemetry::TraceEvent;
use rbv_workloads::RequestFactory;

use super::store::Progress;
use super::{Engine, Event};
use crate::config::ArrivalProcess;
use crate::result::FailReason;

pub(super) struct Ingress {
    /// MMPP arrival modulation: whether the process is currently in its
    /// burst state, and when the current dwell ends (`ZERO` = the first
    /// dwell has not been drawn yet).
    mmpp_burst: bool,
    mmpp_until: Cycles,
    /// Per-queue instant since when dequeued sojourns have continuously
    /// exceeded the CoDel target (`None` = last sojourn was below it).
    codel_above: Vec<Option<Cycles>>,
}

impl Ingress {
    pub(super) fn new(queues: usize) -> Ingress {
        Ingress {
            mmpp_burst: false,
            mmpp_until: Cycles::ZERO,
            codel_above: vec![None; queues],
        }
    }
}

/// Exponential retry backoff: `base` doubled `doublings` times, stretched
/// by up to half again by `jitter` in `[0, 1]`, at least one cycle.
fn backoff(base: Cycles, doublings: u32, jitter: f64) -> Cycles {
    let backoff = base.as_f64() * 2f64.powi(doublings as i32) * (1.0 + 0.5 * jitter);
    Cycles::new(backoff.max(1.0) as u64)
}

impl Engine<'_> {
    pub(super) fn spawn(&mut self, factory: &mut dyn RequestFactory) {
        if self.store.generated() >= self.target {
            return;
        }
        let request = factory.next_request();
        debug_assert!(request.validate().is_ok());
        let now = self.queue.now();
        let id = self.push_live(request, now);
        self.trace.emit(|| TraceEvent::RequestBegin {
            ts: now,
            rid: id as u64,
            app: self.store[id].request.app.to_string(),
            class: self.store[id].request.class.to_string(),
        });
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
            self.fail_request(id, now, FailReason::BrownoutReject, factory);
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
    pub(super) fn try_admit(&mut self, rid: usize, attempt: u32, factory: &mut dyn RequestFactory) {
        let Some(overload) = self.cfg.overload else {
            self.enqueue_runnable(rid);
            return;
        };
        // dFCFS checks the RSS-steered core's queue; cFCFS checks the one
        // central queue against the machine-wide bound. The guard ladder's
        // shed rung halves the effective bound, turning excess load away
        // at the door before it can queue.
        let queue = self.placement(rid);
        let (load, mut bound) = if self.sched.central {
            let cores = self.sched.cores();
            (
                self.sched.central_load(),
                overload.max_runqueue.saturating_mul(cores),
            )
        } else {
            (self.sched.load(queue), overload.max_runqueue)
        };
        if self.shed_rung_active() {
            bound = (bound / 2).max(1);
        }
        let now = self.queue.now();
        if load < bound {
            self.enqueue(queue, rid, now);
            self.wake_idle_for(queue);
            return;
        }
        self.stats.admission_rejections += 1;
        self.trace.emit(|| TraceEvent::AdmissionRejected {
            ts: now,
            rid: rid as u64,
            core: queue as u32,
            attempt,
        });
        if attempt < overload.max_retries {
            use rand::Rng;
            let jitter: f64 = self.fault_rng.gen();
            let backoff = backoff(overload.retry_backoff, attempt.min(32), jitter);
            self.stats.admission_retries += 1;
            self.trace.emit(|| TraceEvent::RetryScheduled {
                ts: now,
                rid: rid as u64,
                attempt: attempt + 1,
                backoff,
                client: false,
            });
            let gen = self.store[rid].attempt;
            let attempt = attempt + 1;
            self.queue
                .schedule_after(backoff, Event::Retry { rid, attempt, gen });
        } else {
            self.fail_request(rid, now, FailReason::AdmissionShed, factory);
        }
    }

    /// Sheds or aborts a live request: pulls it off whatever core or queue
    /// holds it, records the failure, and (closed loop) admits the
    /// client's next request.
    pub(super) fn fail_request(
        &mut self,
        rid: usize,
        now: Cycles,
        reason: FailReason,
        factory: &mut dyn RequestFactory,
    ) {
        self.evict(rid, now);
        self.retire_failed(rid, now, reason);
        if self.cfg.arrivals == ArrivalProcess::ClosedLoop {
            self.spawn(factory);
        }
    }

    /// The bookkeeping every terminal failure shares, once the request
    /// holds no core and sits in no runqueue: takes it out of the store,
    /// charges the cycles it consumed as wasted, records the failure (and
    /// its trace event) and counts it under its reason.
    pub(super) fn retire_failed(&mut self, rid: usize, now: Cycles, reason: FailReason) {
        match reason {
            FailReason::AdmissionShed => self.stats.load_shed += 1,
            FailReason::DeadlineAbort => self.stats.deadline_aborts += 1,
            // Counted where the timeout fires (terminal or not).
            FailReason::ClientTimeout => {}
            FailReason::CodelShed => self.stats.codel_shed += 1,
            FailReason::BrownoutReject => self.stats.brownout_rejections += 1,
        }
        let lr = self.store.remove(rid);
        self.stats.wasted_cycles += lr.run.cum_cycles;
        self.out.fail(lr, now, reason);
        self.trace.emit(|| TraceEvent::RequestFailed {
            ts: now,
            rid: rid as u64,
            reason: reason.label().into(),
        });
    }

    /// Schedules the next open-loop arrival at an exponential gap. Under
    /// MMPP arrivals the exponential's mean is modulated by a two-state
    /// Markov chain (calm/burst) whose dwell times are themselves
    /// exponential; Poisson arrivals draw exactly one uniform per
    /// arrival, exactly as before, so Poisson runs are bit-identical to
    /// builds that predate MMPP.
    pub(super) fn schedule_next_arrival(&mut self) {
        if self.store.generated() >= self.target {
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
                if self.ingress.mmpp_until.is_zero() {
                    // Lazy init: the first calm dwell is drawn when the
                    // first arrival schedules its successor.
                    self.ingress.mmpp_until = now + self.exp_gap(mean_calm_dwell);
                }
                while now >= self.ingress.mmpp_until {
                    self.ingress.mmpp_burst = !self.ingress.mmpp_burst;
                    let dwell = if self.ingress.mmpp_burst {
                        mean_burst_dwell
                    } else {
                        mean_calm_dwell
                    };
                    let gap = self.exp_gap(dwell);
                    self.ingress.mmpp_until += gap;
                }
                if self.ingress.mmpp_burst {
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

    /// Whether the guard ladder currently sits on its shed rung or lower,
    /// tightening admission bounds and CoDel targets.
    fn shed_rung_active(&self) -> bool {
        self.guard
            .as_ref()
            .is_some_and(|g| g.ladder.rung().is_overloaded())
    }

    /// CoDel at dequeue: compares the dequeued request's queue sojourn
    /// against the shed policy's target, dropping one request per
    /// interval once sojourns have stayed above target for a full
    /// interval. The guard ladder's shed rung halves the target.
    pub(super) fn codel_passes(&mut self, core: usize, rid: usize) -> bool {
        let Some(shed) = self.cfg.shed else {
            return true;
        };
        let now = self.queue.now();
        let sojourn = now.saturating_sub(self.store[rid].queued_at);
        let target = if self.shed_rung_active() {
            Cycles::new(shed.target.get() / 2)
        } else {
            shed.target
        };
        let above = &mut self.ingress.codel_above[self.sched.qidx(core)];
        if sojourn <= target {
            *above = None;
            return true;
        }
        let drop = above.is_some_and(|since| now.saturating_sub(since) >= shed.interval);
        if above.is_none() || drop {
            *above = Some(now);
        }
        !drop
    }

    /// The client's patience for the current attempt ran out: retry with
    /// capped exponential backoff plus deterministic hash jitter, or give
    /// up for good once retries are exhausted.
    pub(super) fn on_client_timeout(
        &mut self,
        rid: usize,
        now: Cycles,
        factory: &mut dyn RequestFactory,
    ) {
        let Some(client) = self.cfg.client else {
            return;
        };
        self.stats.client_timeouts += 1;
        let attempt = self.store[rid].attempt;
        if attempt >= client.max_retries {
            self.fail_request(rid, now, FailReason::ClientTimeout, factory);
            return;
        }
        // The client abandons the attempt: the cycles it consumed are
        // wasted work, exactly the amplification mechanism of a
        // metastable retry storm.
        self.evict(rid, now);
        let lr = &mut self.store[rid];
        self.stats.wasted_cycles += lr.run.cum_cycles;
        lr.run = Progress::default();
        lr.queued_at = now;
        lr.attempt += 1;
        let gen = lr.attempt;
        self.stats.client_retries += 1;
        // Hash jitter, not a stream draw: retry timing must not perturb
        // the engine or fault streams, so retries-off runs stay
        // bit-identical to builds that predate the client model.
        let jitter =
            mix64(self.cfg.seed ^ ((rid as u64) << 16) ^ u64::from(gen)) as f64 / u64::MAX as f64;
        let backoff = backoff(client.retry_backoff, attempt.min(16), jitter);
        self.trace.emit(|| TraceEvent::RetryScheduled {
            ts: now,
            rid: rid as u64,
            attempt: gen,
            backoff,
            client: true,
        });
        self.queue
            .schedule_after(backoff, Event::ClientResubmit { rid, gen });
    }

    /// The client resubmits attempt `gen` of a timed-out request: a fresh
    /// patience timer arms and the request re-enters admission from the
    /// top.
    pub(super) fn on_client_resubmit(
        &mut self,
        rid: usize,
        gen: u32,
        factory: &mut dyn RequestFactory,
    ) {
        if let Some(client) = self.cfg.client {
            self.queue
                .schedule_after(client.timeout, Event::ClientTimeout { rid, gen });
        }
        self.try_admit(rid, 0, factory);
    }
}
