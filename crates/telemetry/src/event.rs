//! Typed trace events emitted by the simulated kernel.
//!
//! Every event carries a simulated-clock timestamp ([`Cycles`]); the
//! engine emits them at the instant the corresponding kernel action
//! happens, so a sink sees the exact interleaving the simulation computed.
//! Events are observation-only: recording them never changes engine state,
//! which is what makes trace-on and trace-off runs bit-identical.

use rbv_sim::Cycles;

/// Why a core stopped executing its current request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchReason {
    /// Scheduling quantum expiry rotated the runqueue.
    Quantum,
    /// The request finished its stage on this component.
    StageEnd,
    /// The contention-easing scheduler displaced a high-usage request.
    Eased,
}

impl SwitchReason {
    /// Stable lower-case label used by exporters.
    pub fn label(self) -> &'static str {
        match self {
            SwitchReason::Quantum => "quantum",
            SwitchReason::StageEnd => "stage_end",
            SwitchReason::Eased => "eased",
        }
    }
}

/// Where a counter sample was collected (mirrors
/// `rbv_os::observer::SamplingContext` without the dependency).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleOrigin {
    /// In-kernel sampling: context switch, syscall trigger, stage end.
    InKernel,
    /// Periodic or backup timer interrupt.
    Interrupt,
}

impl SampleOrigin {
    /// Stable lower-case label used by exporters.
    pub fn label(self) -> &'static str {
        match self {
            SampleOrigin::InKernel => "inkernel",
            SampleOrigin::Interrupt => "interrupt",
        }
    }
}

/// One structured event from the simulated kernel.
///
/// Identifiers are plain integers (`rid` = request id, `core` = core
/// index) so sinks need no access to engine internals; human-readable
/// names travel as strings on the events that introduce an entity.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A request entered the system (span begin on the request track).
    RequestBegin {
        /// Simulated arrival instant.
        ts: Cycles,
        /// Engine-assigned request id.
        rid: u64,
        /// Application name (e.g. `TPC-C`).
        app: String,
        /// Request class within the application.
        class: String,
    },
    /// A request completed its final stage (span end).
    RequestEnd {
        /// Simulated completion instant.
        ts: Cycles,
        /// Engine-assigned request id.
        rid: u64,
    },
    /// A core started executing a request (slice begin on the core track).
    SliceBegin {
        /// Dispatch instant.
        ts: Cycles,
        /// Executing core.
        core: u32,
        /// Request id.
        rid: u64,
        /// Zero-based stage index within the request.
        stage: u32,
        /// Server component hosting the stage (e.g. `app-tier`).
        component: String,
    },
    /// The core stopped executing that request (slice end).
    SliceEnd {
        /// Instant execution stopped.
        ts: Cycles,
        /// Core that was executing.
        core: u32,
        /// Request id.
        rid: u64,
    },
    /// A scheduler-initiated context switch away from a request.
    ContextSwitch {
        /// Switch instant.
        ts: Cycles,
        /// Core switching.
        core: u32,
        /// Request that was running.
        from: u64,
        /// What triggered the switch.
        reason: SwitchReason,
    },
    /// A hardware-counter sample with the flushed period snapshot.
    SamplingInstant {
        /// Sample collection instant.
        ts: Cycles,
        /// Core sampled.
        core: u32,
        /// Request the period is attributed to.
        rid: u64,
        /// Collection mechanism.
        origin: SampleOrigin,
        /// Triggering syscall, when syscall-triggered.
        syscall: Option<String>,
        /// Period length in cycles (post-compensation).
        cycles: f64,
        /// Instructions retired in the period.
        instructions: f64,
        /// L2 references in the period.
        l2_refs: f64,
        /// L2 misses in the period.
        l2_misses: f64,
    },
    /// A request entered a system call.
    SyscallEntry {
        /// Entry instant.
        ts: Cycles,
        /// Core executing the request.
        core: u32,
        /// Request id.
        rid: u64,
        /// Syscall name (e.g. `read`).
        name: String,
    },
    /// The contention-easing scheduler (§5.2) displaced a high-usage
    /// request in favor of a non-high one.
    ContentionEasing {
        /// Decision instant.
        ts: Cycles,
        /// Core re-scheduled.
        core: u32,
        /// High-usage request pushed back to the queue head.
        displaced: u64,
        /// Non-high request dispatched instead.
        chosen: u64,
    },
    /// A queued request migrated between cores (work stealing).
    Migration {
        /// Migration instant.
        ts: Cycles,
        /// Request id.
        rid: u64,
        /// Core whose runqueue lost the request.
        from_core: u32,
        /// Core whose runqueue gained it.
        to_core: u32,
    },
    /// The number of cores simultaneously in a high-L2-usage period
    /// changed (an episode boundary of the Figure 12 measure).
    L2Pressure {
        /// Instant the count changed.
        ts: Cycles,
        /// Cores now simultaneously at high usage.
        high_cores: u32,
    },
    /// An injected measurement fault lost a sampling interrupt before its
    /// handler ran; the open period extends into the next sample.
    SampleLost {
        /// Instant the interrupt would have fired.
        ts: Cycles,
        /// Core whose sample was lost.
        core: u32,
    },
    /// A collected sample is flagged low-confidence (lost-interrupt
    /// stretch, detected counter overflow) instead of silently feeding
    /// corrupted counters into the series and predictors.
    LowConfidenceSample {
        /// Collection instant.
        ts: Cycles,
        /// Core sampled.
        core: u32,
        /// Request the period is attributed to.
        rid: u64,
        /// Why confidence is low (e.g. `lost_interrupt`,
        /// `counter_overflow`).
        reason: String,
    },
    /// The syscall sampling path entered an injected starvation window;
    /// until it ends only the backup interrupt timer collects samples.
    SamplingStarved {
        /// Window start.
        ts: Cycles,
        /// Core affected.
        core: u32,
        /// Window end.
        until: Cycles,
    },
    /// A request entered a runqueue: first admission, a mid-request stage
    /// hop, a quantum/easing requeue, or a client resubmission. Together
    /// with [`TraceEvent::SliceBegin`] this bounds every per-core queue
    /// wait, and `attempt` threads the client retry generation through
    /// the NIC-style queues so span reconstruction can attribute each
    /// wait to the attempt that incurred it.
    QueueEnter {
        /// Insertion instant.
        ts: Cycles,
        /// Request id.
        rid: u64,
        /// Runqueue index (the core's queue, or queue 0 under cFCFS).
        queue: u32,
        /// Client attempt generation (0 = first submission).
        attempt: u32,
    },
    /// Per-core admission control rejected a new request (bounded
    /// runqueues under overload).
    AdmissionRejected {
        /// Rejection instant.
        ts: Cycles,
        /// Request id.
        rid: u64,
        /// The least-loaded core that was still over the bound.
        core: u32,
        /// Admission attempts so far (0 = first try).
        attempt: u32,
    },
    /// A retry was scheduled with exponential backoff plus jitter:
    /// either an admission-level re-try of the same client attempt
    /// (`client = false`, `attempt` counts admission tries), or an
    /// impatient client abandoning the current attempt and scheduling a
    /// resubmission (`client = true`, `attempt` is the upcoming client
    /// generation).
    RetryScheduled {
        /// Scheduling instant.
        ts: Cycles,
        /// Request id.
        rid: u64,
        /// The upcoming attempt number (admission try or client
        /// generation, per `client`).
        attempt: u32,
        /// Backoff delay before the retry.
        backoff: Cycles,
        /// Whether this is a client-generation retry (timeout resubmit)
        /// rather than an admission-level backoff.
        client: bool,
    },
    /// A request failed: shed after exhausting admission retries, or
    /// aborted at its deadline.
    RequestFailed {
        /// Failure instant.
        ts: Cycles,
        /// Request id.
        rid: u64,
        /// Failure kind (`shed` or `deadline`).
        reason: String,
    },
    /// The contention-easing prediction-confidence gate changed state:
    /// `engaged = true` means easing decisions are suspended and the
    /// scheduler behaves like stock until prediction error recovers.
    EasingGate {
        /// Transition instant.
        ts: Cycles,
        /// Whether the gate is now holding easing back.
        engaged: bool,
        /// Running mean relative vaEWMA prediction error at the
        /// transition.
        error: f64,
    },
    /// The sampling governor changed its interval scale: a multiplicative
    /// back-off on a do-no-harm budget breach, or an additive recovery
    /// step while comfortably under budget.
    GovernorAdjust {
        /// Decision instant (an accounting-window boundary).
        ts: Cycles,
        /// What the controller did (`backoff` or `recover`).
        action: String,
        /// The interval scale now in effect (1 = configured baseline).
        scale: f64,
        /// The window's measured overhead fraction.
        overhead_frac: f64,
        /// The budget the window was judged against.
        budget_frac: f64,
    },
    /// The measurement-health ladder moved one rung (`easing`,
    /// `frozen_predictions`, `stock`, `shed`, or `brownout`) — below
    /// `stock` the scheduler runs unmodified and the overload defenses
    /// progressively engage.
    HealthTransition {
        /// Transition instant (an accounting-window boundary).
        ts: Cycles,
        /// Rung the ladder left.
        from: String,
        /// Rung the ladder entered.
        to: String,
        /// The smoothed health score that triggered the move.
        score: f64,
    },
    /// The runtime invariant monitor observed a violated conservation
    /// law; the run continues and the violation is counted.
    InvariantViolation {
        /// Detection instant.
        ts: Cycles,
        /// Which invariant family (e.g. `request_conservation`).
        invariant: String,
        /// Human-readable detail of the violated relation.
        detail: String,
    },
    /// One campaign shard finished its simulation (campaign runs only;
    /// `ts` is the shard's final simulated instant).
    CampaignShard {
        /// The shard's final simulated instant.
        ts: Cycles,
        /// Canonical shard key, e.g. `web/s42/nominal/stock/e3`.
        shard: String,
        /// Campaign epoch the shard belongs to.
        epoch: u32,
        /// Requests the shard completed.
        requests: u64,
        /// Whether the shard ran under the drift-injection scenario.
        drifted: bool,
    },
    /// Campaign shards were folded into the warehouse (one event per
    /// merged `(app, epoch)` cell, emitted at merge time).
    CampaignMerge {
        /// The cell's largest shard end instant.
        ts: Cycles,
        /// Application short label of the merged cell.
        app: String,
        /// Campaign epoch of the merged cell.
        epoch: u32,
        /// Shards folded into the cell.
        shards: u64,
    },
    /// A core's effective DVFS P-state changed (governor cap, core park,
    /// or firmware throttle moved it on the frequency ladder).
    DvfsTransition {
        /// Transition instant.
        ts: Cycles,
        /// Core whose frequency changed.
        core: u32,
        /// P-state the core left.
        from_pstate: u32,
        /// P-state the core entered.
        to_pstate: u32,
        /// New frequency ratio in milli-units of the nominal clock.
        ratio_milli: u32,
    },
    /// Firmware thermal throttling engaged or released on a core.
    ThermalThrottle {
        /// Edge instant.
        ts: Cycles,
        /// Core throttled or released.
        core: u32,
        /// `true` = engaged (clamped to the slowest P-state), `false` =
        /// released.
        engaged: bool,
        /// Core temperature at the edge, in milli-°C.
        temp_milli_c: i64,
    },
}

impl TraceEvent {
    /// The event's simulated timestamp.
    pub fn ts(&self) -> Cycles {
        match self {
            TraceEvent::RequestBegin { ts, .. }
            | TraceEvent::RequestEnd { ts, .. }
            | TraceEvent::SliceBegin { ts, .. }
            | TraceEvent::SliceEnd { ts, .. }
            | TraceEvent::ContextSwitch { ts, .. }
            | TraceEvent::SamplingInstant { ts, .. }
            | TraceEvent::SyscallEntry { ts, .. }
            | TraceEvent::ContentionEasing { ts, .. }
            | TraceEvent::Migration { ts, .. }
            | TraceEvent::L2Pressure { ts, .. }
            | TraceEvent::SampleLost { ts, .. }
            | TraceEvent::LowConfidenceSample { ts, .. }
            | TraceEvent::SamplingStarved { ts, .. }
            | TraceEvent::QueueEnter { ts, .. }
            | TraceEvent::AdmissionRejected { ts, .. }
            | TraceEvent::RetryScheduled { ts, .. }
            | TraceEvent::RequestFailed { ts, .. }
            | TraceEvent::EasingGate { ts, .. }
            | TraceEvent::GovernorAdjust { ts, .. }
            | TraceEvent::HealthTransition { ts, .. }
            | TraceEvent::InvariantViolation { ts, .. }
            | TraceEvent::CampaignShard { ts, .. }
            | TraceEvent::CampaignMerge { ts, .. }
            | TraceEvent::DvfsTransition { ts, .. }
            | TraceEvent::ThermalThrottle { ts, .. } => *ts,
        }
    }

    /// Short kind label (also the exporter's category string).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::RequestBegin { .. } => "request_begin",
            TraceEvent::RequestEnd { .. } => "request_end",
            TraceEvent::SliceBegin { .. } => "slice_begin",
            TraceEvent::SliceEnd { .. } => "slice_end",
            TraceEvent::ContextSwitch { .. } => "context_switch",
            TraceEvent::SamplingInstant { .. } => "sampling_instant",
            TraceEvent::SyscallEntry { .. } => "syscall_entry",
            TraceEvent::ContentionEasing { .. } => "contention_easing",
            TraceEvent::Migration { .. } => "migration",
            TraceEvent::L2Pressure { .. } => "l2_pressure",
            TraceEvent::SampleLost { .. } => "sample_lost",
            TraceEvent::LowConfidenceSample { .. } => "low_confidence_sample",
            TraceEvent::SamplingStarved { .. } => "sampling_starved",
            TraceEvent::QueueEnter { .. } => "queue_enter",
            TraceEvent::AdmissionRejected { .. } => "admission_rejected",
            TraceEvent::RetryScheduled { .. } => "retry_scheduled",
            TraceEvent::RequestFailed { .. } => "request_failed",
            TraceEvent::EasingGate { .. } => "easing_gate",
            TraceEvent::GovernorAdjust { .. } => "governor_adjust",
            TraceEvent::HealthTransition { .. } => "health_transition",
            TraceEvent::InvariantViolation { .. } => "invariant_violation",
            TraceEvent::CampaignShard { .. } => "campaign_shard",
            TraceEvent::CampaignMerge { .. } => "campaign_merge",
            TraceEvent::DvfsTransition { .. } => "dvfs_transition",
            TraceEvent::ThermalThrottle { .. } => "thermal_throttle",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ts_and_kind_cover_every_variant() {
        let t = Cycles::new(42);
        let events = vec![
            TraceEvent::RequestBegin {
                ts: t,
                rid: 1,
                app: "TPC-C".into(),
                class: "NewOrder".into(),
            },
            TraceEvent::RequestEnd { ts: t, rid: 1 },
            TraceEvent::SliceBegin {
                ts: t,
                core: 0,
                rid: 1,
                stage: 0,
                component: "standalone".into(),
            },
            TraceEvent::SliceEnd {
                ts: t,
                core: 0,
                rid: 1,
            },
            TraceEvent::ContextSwitch {
                ts: t,
                core: 0,
                from: 1,
                reason: SwitchReason::Quantum,
            },
            TraceEvent::SamplingInstant {
                ts: t,
                core: 0,
                rid: 1,
                origin: SampleOrigin::InKernel,
                syscall: None,
                cycles: 1.0,
                instructions: 1.0,
                l2_refs: 0.0,
                l2_misses: 0.0,
            },
            TraceEvent::SyscallEntry {
                ts: t,
                core: 0,
                rid: 1,
                name: "read".into(),
            },
            TraceEvent::ContentionEasing {
                ts: t,
                core: 0,
                displaced: 1,
                chosen: 2,
            },
            TraceEvent::Migration {
                ts: t,
                rid: 1,
                from_core: 0,
                to_core: 1,
            },
            TraceEvent::L2Pressure {
                ts: t,
                high_cores: 2,
            },
            TraceEvent::SampleLost { ts: t, core: 0 },
            TraceEvent::LowConfidenceSample {
                ts: t,
                core: 0,
                rid: 1,
                reason: "lost_interrupt".into(),
            },
            TraceEvent::SamplingStarved {
                ts: t,
                core: 0,
                until: Cycles::new(99),
            },
            TraceEvent::QueueEnter {
                ts: t,
                rid: 1,
                queue: 0,
                attempt: 0,
            },
            TraceEvent::AdmissionRejected {
                ts: t,
                rid: 1,
                core: 0,
                attempt: 0,
            },
            TraceEvent::RetryScheduled {
                ts: t,
                rid: 1,
                attempt: 1,
                backoff: Cycles::new(7),
                client: false,
            },
            TraceEvent::RequestFailed {
                ts: t,
                rid: 1,
                reason: "shed".into(),
            },
            TraceEvent::EasingGate {
                ts: t,
                engaged: true,
                error: 0.4,
            },
            TraceEvent::GovernorAdjust {
                ts: t,
                action: "backoff".into(),
                scale: 2.0,
                overhead_frac: 0.03,
                budget_frac: 0.01,
            },
            TraceEvent::HealthTransition {
                ts: t,
                from: "easing".into(),
                to: "frozen_predictions".into(),
                score: 0.5,
            },
            TraceEvent::InvariantViolation {
                ts: t,
                invariant: "clock_monotonic".into(),
                detail: "clock went backwards: 7 -> 3".into(),
            },
            TraceEvent::CampaignShard {
                ts: t,
                shard: "web/s42/nominal/stock/e3".into(),
                epoch: 3,
                requests: 40,
                drifted: false,
            },
            TraceEvent::CampaignMerge {
                ts: t,
                app: "web".into(),
                epoch: 3,
                shards: 12,
            },
            TraceEvent::DvfsTransition {
                ts: t,
                core: 0,
                from_pstate: 0,
                to_pstate: 2,
                ratio_milli: 800,
            },
            TraceEvent::ThermalThrottle {
                ts: t,
                core: 0,
                engaged: true,
                temp_milli_c: 95_200,
            },
        ];
        let mut kinds: Vec<&str> = events.iter().map(|e| e.kind()).collect();
        assert!(events.iter().all(|e| e.ts() == t));
        kinds.dedup();
        assert_eq!(kinds.len(), 25, "distinct kind per variant");
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(SwitchReason::Quantum.label(), "quantum");
        assert_eq!(SwitchReason::StageEnd.label(), "stage_end");
        assert_eq!(SwitchReason::Eased.label(), "eased");
        assert_eq!(SampleOrigin::InKernel.label(), "inkernel");
        assert_eq!(SampleOrigin::Interrupt.label(), "interrupt");
    }
}
