//! Live requests by id, and the finished ones. Ids follow generation
//! order (noise streams fork by id); a slot is freed once it and every
//! older one resolved, so the store spans the oldest live request to the
//! newest, not every request ever generated.

use std::collections::VecDeque;
use std::ops::{Index, IndexMut};

use rbv_core::predict::VaEwma;
use rbv_core::series::{SamplePeriod, Timeline};
use rbv_mem::{PerfEstimate, SegmentProfile};
use rbv_sim::{Cycles, SimRng};
use rbv_workloads::{Request, Stage, SyscallName};

use crate::machine::CompletionSink;
use crate::observer::SamplingContext;
use crate::result::{CompletedRequest, FailReason, FailedRequest, SyscallRecord};

/// vaEWMA unit observation length t̂: 1 ms, as in §5.1.
const PREDICTOR_UNIT: f64 = 1.0;
/// vaEWMA gain α: the paper settles on 0.6 (§5.1).
const PREDICTOR_ALPHA: f64 = 0.6;

#[derive(Debug)]
pub(super) struct LiveRequest {
    pub(super) id: usize,
    pub(super) request: Request,
    pub(super) arrived_at: Cycles,
    pub(super) predictor: VaEwma,
    pub(super) noise_rng: SimRng,
    /// Client attempt generation: 0 for the first submission, bumped on
    /// every client-timeout resubmission. Stale timer events carrying an
    /// older generation are ignored.
    pub(super) attempt: u32,
    /// Instant the request last entered a runqueue (CoDel sojourn base).
    pub(super) queued_at: Cycles,
    pub(super) run: Progress,
}

/// How far the current attempt got and what it measured. A client
/// resubmission starts over from the default; the request's id, arrival,
/// predictor and noise stream survive it.
#[derive(Debug, Default)]
pub(super) struct Progress {
    pub(super) stage_idx: usize,
    pub(super) ins_in_stage: f64,
    pub(super) phase_idx: usize,
    pub(super) next_syscall: usize,
    pub(super) timeline: Timeline,
    pub(super) accum: SamplePeriod,
    /// Sampling context whose observer events were injected into `accum`.
    pub(super) accum_injection: Option<SamplingContext>,
    pub(super) cum_cycles: f64,
    pub(super) cum_ins: f64,
    pub(super) syscalls: Vec<SyscallRecord>,
    pub(super) pending_transition: Option<(Option<SyscallName>, SyscallName, f64)>,
    pub(super) last_syscall: Option<SyscallName>,
}

impl Progress {
    /// Advances the counters by `dt` cycles at `rate`.
    pub(super) fn advance(&mut self, dt: f64, rate: &PerfEstimate) {
        let d_ins = dt / rate.cpi;
        let d_refs = d_ins * rate.l2_refs_per_ins;
        let d_misses = d_refs * rate.l2_miss_ratio;
        self.ins_in_stage += d_ins;
        self.cum_cycles += dt;
        self.cum_ins += d_ins;
        self.accum.cycles += dt;
        self.accum.instructions += d_ins;
        self.accum.l2_refs += d_refs;
        self.accum.l2_misses += d_misses;
    }
}

impl LiveRequest {
    pub(super) fn stage(&self) -> &Stage {
        &self.request.stages[self.run.stage_idx]
    }

    pub(super) fn profile(&self) -> SegmentProfile {
        self.stage().phases[self.run.phase_idx].profile
    }

    /// Next instruction boundary within the current stage and whether it
    /// is a syscall (syscalls win ties so transition records see the old
    /// phase as "before").
    pub(super) fn next_boundary(&self) -> (f64, bool) {
        let stage = self.stage();
        let phase_end = stage.phases[self.run.phase_idx].end_ins.as_f64();
        let syscall_at = stage
            .syscalls
            .get(self.run.next_syscall)
            .map_or(f64::INFINITY, |s| s.at_ins.as_f64());
        if syscall_at <= phase_end {
            (syscall_at, true)
        } else {
            (phase_end, false)
        }
    }
}

/// Live requests by id. Every id the scheduler holds (running on a core
/// or sitting in a runqueue) and every id a current event names is live;
/// indexing by any other id is a simulator bug and panics.
#[derive(Debug, Default)]
pub(super) struct RequestStore {
    /// Slot `i` holds request `base + i`, `None` once it resolved.
    slots: VecDeque<Option<LiveRequest>>,
    base: usize,
    live: usize,
}

impl RequestStore {
    /// Requests generated so far, which is also the next request's id.
    pub(super) fn generated(&self) -> usize {
        self.base + self.slots.len()
    }

    /// Requests generated and not yet resolved.
    pub(super) fn live(&self) -> usize {
        self.live
    }

    /// Registers a request arrived (and queued) at `at` under the next
    /// id, and returns that id.
    pub(super) fn insert(&mut self, request: Request, at: Cycles, noise_rng: SimRng) -> usize {
        let id = self.generated();
        self.live += 1;
        self.slots.push_back(Some(LiveRequest {
            id,
            request,
            arrived_at: at,
            predictor: VaEwma::new(PREDICTOR_ALPHA, PREDICTOR_UNIT),
            noise_rng,
            attempt: 0,
            queued_at: at,
            run: Progress::default(),
        }));
        id
    }

    fn slot(&mut self, rid: usize) -> Option<&mut Option<LiveRequest>> {
        self.slots.get_mut(rid.checked_sub(self.base)?)
    }

    /// The request `rid`, or `None` once it resolved.
    pub(super) fn get(&self, rid: usize) -> Option<&LiveRequest> {
        self.slots.get(rid.checked_sub(self.base)?)?.as_ref()
    }

    /// Whether `rid` is live and on client attempt `gen`: a timer armed
    /// for an earlier attempt is stale.
    pub(super) fn on_attempt(&self, rid: usize, gen: u32) -> bool {
        self.get(rid).is_some_and(|lr| lr.attempt == gen)
    }

    /// Resolves `rid` and hands its state over, freeing every leading
    /// resolved slot.
    pub(super) fn remove(&mut self, rid: usize) -> LiveRequest {
        let lr = self
            .slot(rid)
            .and_then(Option::take)
            .expect("resolved request was live");
        self.live -= 1;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        lr
    }
}

impl Index<usize> for RequestStore {
    type Output = LiveRequest;

    fn index(&self, rid: usize) -> &LiveRequest {
        self.get(rid).expect("request id is live")
    }
}

impl IndexMut<usize> for RequestStore {
    fn index_mut(&mut self, rid: usize) -> &mut LiveRequest {
        self.slot(rid)
            .and_then(Option::as_mut)
            .expect("request id is live")
    }
}

/// Finished requests: retained for the result, or streamed into a
/// [`CompletionSink`] and dropped.
#[derive(Default)]
pub(crate) struct Outcomes<'s> {
    pub(crate) completed: Vec<CompletedRequest>,
    pub(crate) failed: Vec<FailedRequest>,
    /// Streaming completion sink for bounded-memory runs; `None` retains
    /// finished requests in the result vectors.
    pub(super) sink: Option<&'s mut dyn CompletionSink>,
    /// Completion/failure counts — identical to the vector lengths when
    /// not streaming, and the only record of them when streaming.
    pub(super) n_completed: usize,
    pub(super) n_failed: usize,
}

impl Outcomes<'_> {
    /// Requests resolved so far, completed or failed.
    pub(crate) fn resolved(&self) -> usize {
        self.n_completed + self.n_failed
    }

    /// Records that `lr` completed at `now`.
    pub(super) fn complete(&mut self, lr: LiveRequest, now: Cycles) {
        let request = CompletedRequest {
            id: lr.id,
            app: lr.request.app,
            class: lr.request.class,
            timeline: lr.run.timeline,
            syscalls: lr.run.syscalls,
            arrived_at: lr.arrived_at,
            finished_at: now,
        };
        self.n_completed += 1;
        match self.sink.as_deref_mut() {
            Some(sink) => sink.on_complete(&request),
            None => self.completed.push(request),
        }
    }

    /// Records that `lr` failed at `now` for `reason`.
    pub(super) fn fail(&mut self, lr: LiveRequest, now: Cycles, reason: FailReason) {
        let request = FailedRequest {
            id: lr.id,
            app: lr.request.app,
            class: lr.request.class,
            arrived_at: lr.arrived_at,
            failed_at: now,
            reason,
        };
        self.n_failed += 1;
        match self.sink.as_deref_mut() {
            Some(sink) => sink.on_fail(&request),
            None => self.failed.push(request),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::Engine;
    use super::*;
    use crate::config::{ArrivalProcess, SimConfig};
    use rbv_workloads::WebServer;

    struct Discard;

    impl CompletionSink for Discard {
        fn on_complete(&mut self, _: &CompletedRequest) {}
        fn on_fail(&mut self, _: &FailedRequest) {}
    }

    /// A long streaming open-loop run holds slots only for the span of
    /// live ids, not for every request it generated.
    #[test]
    fn streaming_open_loop_frees_resolved_slots() {
        const REQUESTS: usize = 20_000;
        let mut cfg = SimConfig::paper_default();
        // About 80% of capacity: web requests average ~116 600 cycles on
        // four cores.
        cfg.arrivals = ArrivalProcess::OpenPoisson {
            mean_interarrival: Cycles::new(116_600 / 4 * 5 / 4),
        };
        let mut factory = WebServer::new(42, 1.0);
        let mut sink = Discard;
        let mut engine = Engine::new(cfg, REQUESTS, None, Some(&mut sink));
        engine.start(&mut factory);
        let mut peak = 0;
        while !engine.target_reached() && engine.step(&mut factory) {
            peak = peak.max(engine.store.slots.len());
        }
        assert_eq!(engine.out.resolved(), REQUESTS);
        assert_eq!(engine.store.live, 0);
        assert!(peak < 200, "{peak} slots held for {REQUESTS} requests");
    }
}
