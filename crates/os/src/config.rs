//! Configuration of the simulated machine, sampling, scheduling, fault
//! injection, and overload protection.

use std::collections::HashSet;

use rbv_mem::MachineSpec;
use rbv_sim::Cycles;
use rbv_workloads::SyscallName;

use crate::error::RbvError;

/// How the OS samples hardware counters beyond the always-on request
/// context switch sampling (§3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SamplingPolicy {
    /// Only sample at request context switches (the §2.1 baseline needed
    /// for per-request attribution).
    ContextSwitchOnly,
    /// Periodic interrupt-based sampling (§3.1): one APIC interrupt per
    /// `period`.
    Interrupt {
        /// Sampling period.
        period: Cycles,
    },
    /// System call-triggered sampling (§3.2): sample at a syscall's kernel
    /// entrance when at least `t_syscall_min` has elapsed since the last
    /// sample; a backup interrupt fires after `t_backup_int` without any
    /// sample. `t_backup_int` is substantially larger than `t_syscall_min`
    /// so no interrupts occur while syscalls are frequent.
    SyscallTriggered {
        /// Minimum spacing between syscall-context samples.
        t_syscall_min: Cycles,
        /// Backup interrupt delay covering syscall-free stretches.
        t_backup_int: Cycles,
    },
    /// Behavior-transition-signal sampling (§3.2 "Behavior Transition
    /// Signals"): like [`SamplingPolicy::SyscallTriggered`] but only the
    /// listed system calls trigger samples.
    TransitionSignals {
        /// Syscall names acting as transition signals (e.g. `writev`,
        /// `lseek`, `stat`, `poll` for the web server).
        triggers: HashSet<SyscallName>,
        /// Minimum spacing between trigger samples (set *smaller* than the
        /// plain syscall-triggered policy to equalize overall frequency).
        t_syscall_min: Cycles,
        /// Backup interrupt delay.
        t_backup_int: Cycles,
    },
}

/// CPU scheduling policy (§5.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedulerPolicy {
    /// Stock round-robin per-core runqueues with the configured quantum.
    Stock,
    /// Contention-easing scheduling: at each scheduling opportunity
    /// (re-evaluated every 5 ms, the paper's rescheduling interval), avoid
    /// co-executing requests whose predicted L2 misses per instruction
    /// (vaEWMA, α = 0.6) exceed `high_usage_threshold`. The interval and
    /// the gain are fixed engine constants; the threshold is the one
    /// workload-dependent input — see [`crate::easing_threshold`] and
    /// [`crate::RunResult::easing_threshold`] for the paper's
    /// per-application 80th-percentile calibration.
    ContentionEasing {
        /// The high-resource-usage threshold on predicted L2 misses per
        /// instruction.
        high_usage_threshold: f64,
    },
}

/// How requests enter the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// Closed loop: `concurrency` requests in flight; each completion
    /// immediately admits the next (the paper's saturated test runs).
    ClosedLoop,
    /// Open loop: requests arrive by a Poisson process with the given mean
    /// interarrival time, regardless of completions. Queueing delay then
    /// shows up in request latency.
    OpenPoisson {
        /// Mean interarrival time.
        mean_interarrival: Cycles,
    },
    /// Open loop, bursty: a two-state Markov-modulated Poisson process.
    /// The process alternates between a calm state (arrivals at
    /// `mean_interarrival`) and a burst state (arrivals at the faster
    /// `burst_mean_interarrival`), with exponentially distributed dwell
    /// times in each state. All draws come from the engine's seeded
    /// stream, so the arrival trace is a pure function of the seed.
    OpenMmpp {
        /// Mean interarrival time in the calm state.
        mean_interarrival: Cycles,
        /// Mean interarrival time in the burst state (must not exceed the
        /// calm mean — bursts make arrivals denser, not sparser).
        burst_mean_interarrival: Cycles,
        /// Mean dwell time in the calm state.
        mean_calm_dwell: Cycles,
        /// Mean dwell time in the burst state.
        mean_burst_dwell: Cycles,
    },
    /// Externally driven: the engine spawns nothing on its own — every
    /// request is handed to it by an outside owner (a
    /// `rbv-cluster` event loop injecting tier legs as they hop between
    /// machines). The engine still runs its full scheduling/sampling
    /// machinery; only the arrival source moves out of process.
    External,
}

impl ArrivalProcess {
    /// Whether requests arrive independent of completions (either open
    /// variant). Open-loop arrivals are what the client-retry and
    /// queue-shedding policies require; externally driven machines have
    /// no in-engine client, so they do not count as open here.
    pub fn is_open(&self) -> bool {
        matches!(
            self,
            ArrivalProcess::OpenPoisson { .. } | ArrivalProcess::OpenMmpp { .. }
        )
    }
}

/// Front-end queue discipline for open-loop arrivals: how a NIC-style
/// receive path steers new requests onto runqueues. `None` in
/// [`SimConfig::queue_discipline`] keeps the engine's least-loaded
/// placement bit-identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueDiscipline {
    /// d-FCFS: RSS-style steering. A deterministic hash of the request id
    /// indexes an indirection table that assigns each request a fixed
    /// per-core queue, as a multi-queue NIC would; each core serves its
    /// own queue FCFS. Load imbalance between queues is the price.
    Dfcfs,
    /// c-FCFS: a single central queue all cores pull from in arrival
    /// order. Work-conserving and optimal for tail latency at the cost of
    /// a (here un-modeled) shared dequeue point.
    Cfcfs,
}

impl QueueDiscipline {
    /// Stable lower-case label used on the CLI and in ledgers.
    pub fn label(self) -> &'static str {
        match self {
            QueueDiscipline::Dfcfs => "dfcfs",
            QueueDiscipline::Cfcfs => "cfcfs",
        }
    }
}

/// Open-loop client model: each submitted request carries a client-side
/// timeout; on expiry the client abandons the attempt wherever it is
/// (queued, running, or in admission backoff), and resubmits after capped
/// exponential backoff with deterministic jitter — the mechanism that
/// turns sustained overload into a metastable retry storm when left
/// undefended. `None` in [`SimConfig::client`] models patient clients and
/// changes nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientPolicy {
    /// Client-side timeout, measured from each (re)submission.
    pub timeout: Cycles,
    /// Resubmissions the client attempts after timeouts before giving up
    /// (the request then fails with reason `timeout`).
    pub max_retries: u32,
    /// Base backoff before the first resubmission; attempt `k` waits
    /// `retry_backoff * 2^min(k, 16)` plus up to 50% jitter derived from
    /// a hash of the request id and attempt (no RNG stream is consumed,
    /// so retry-free runs stay bit-identical to retry-less builds).
    pub retry_backoff: Cycles,
}

impl ClientPolicy {
    /// Checks field sanity.
    ///
    /// # Errors
    ///
    /// Returns [`RbvError::Config`] naming the first inconsistent field.
    pub fn validate(&self) -> Result<(), RbvError> {
        if self.timeout.is_zero() {
            return Err(RbvError::Config("client timeout must be nonzero".into()));
        }
        if self.max_retries > 0 && self.retry_backoff.is_zero() {
            return Err(RbvError::Config(
                "client retries need a nonzero backoff".into(),
            ));
        }
        Ok(())
    }
}

/// CoDel-style queue shedding at dequeue time: when the queueing delay
/// ("sojourn") of dequeued requests has stayed above `target` for a full
/// `interval`, the offending request is shed instead of served, and the
/// clock restarts. Deterministic — no RNG is involved — and `None` in
/// [`SimConfig::shed`] changes nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShedPolicy {
    /// Acceptable sojourn time; dequeues under this reset the controller.
    pub target: Cycles,
    /// How long sojourn must continuously exceed `target` before the
    /// controller sheds (and between consecutive sheds).
    pub interval: Cycles,
}

impl ShedPolicy {
    /// Checks field sanity.
    ///
    /// # Errors
    ///
    /// Returns [`RbvError::Config`] naming the first inconsistent field.
    pub fn validate(&self) -> Result<(), RbvError> {
        if self.target.is_zero() || self.interval.is_zero() {
            return Err(RbvError::Config(
                "shed policy target and interval must be nonzero".into(),
            ));
        }
        Ok(())
    }
}

/// Deterministic measurement-level fault injection (§"do no harm"
/// validation): the sampling apparatus itself misbehaves and the engine
/// must degrade gracefully — fall back to the backup interrupt timer and
/// flag low-confidence samples — instead of silently corrupting the
/// collected counter series.
///
/// All-zero ([`MeasurementFaults::none`], the default) disables every
/// fault and draws nothing from any random stream, so fault-free runs are
/// bit-identical to runs of builds that predate fault injection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasurementFaults {
    /// Probability that a (periodic or backup) sampling interrupt is lost
    /// before the handler runs. The period it would have closed extends
    /// into the next sample, which is flagged low-confidence.
    pub lost_interrupt_prob: f64,
    /// Probability that a collected sample's cache event counters
    /// overflowed/wrapped since the last read. The kernel detects the wrap,
    /// zeroes the affected counters, and flags the sample low-confidence
    /// rather than reporting wrapped garbage.
    pub counter_overflow_prob: f64,
    /// Relative sigma of counter *skid*: interrupt-based attribution lands
    /// a few events early or late, jittering the cache counters of each
    /// sample multiplicatively (on top of the engine's fixed counter
    /// noise).
    pub counter_skid_sigma: f64,
    /// Probability, evaluated at each would-be syscall-triggered sample,
    /// that the syscall sampling path starves for
    /// [`MeasurementFaults::syscall_starvation_window`] (models priority
    /// inversion or a wedged per-CPU sampling slot). During a starvation
    /// window only the backup interrupt timer collects samples.
    pub syscall_starvation_prob: f64,
    /// Length of one syscall-sampling starvation window.
    pub syscall_starvation_window: Cycles,
}

impl MeasurementFaults {
    /// No measurement faults (the default).
    pub fn none() -> MeasurementFaults {
        MeasurementFaults {
            lost_interrupt_prob: 0.0,
            counter_overflow_prob: 0.0,
            counter_skid_sigma: 0.0,
            syscall_starvation_prob: 0.0,
            syscall_starvation_window: Cycles::ZERO,
        }
    }

    /// True when any fault channel is active.
    pub fn enabled(&self) -> bool {
        self.lost_interrupt_prob > 0.0
            || self.counter_overflow_prob > 0.0
            || self.counter_skid_sigma > 0.0
            || self.syscall_starvation_prob > 0.0
    }

    /// Checks field sanity.
    ///
    /// # Errors
    ///
    /// Returns [`RbvError::Config`] naming the first out-of-range field.
    pub fn validate(&self) -> Result<(), RbvError> {
        for (name, p) in [
            ("lost_interrupt_prob", self.lost_interrupt_prob),
            ("counter_overflow_prob", self.counter_overflow_prob),
            ("syscall_starvation_prob", self.syscall_starvation_prob),
        ] {
            if !(p.is_finite() && (0.0..=1.0).contains(&p)) {
                return Err(RbvError::Config(format!("{name} {p} must be in [0, 1]")));
            }
        }
        if !(self.counter_skid_sigma.is_finite() && (0.0..1.0).contains(&self.counter_skid_sigma)) {
            return Err(RbvError::Config(format!(
                "counter_skid_sigma {} must be in [0, 1)",
                self.counter_skid_sigma
            )));
        }
        if self.syscall_starvation_prob > 0.0 && self.syscall_starvation_window.is_zero() {
            return Err(RbvError::Config(
                "syscall starvation needs a nonzero window".into(),
            ));
        }
        Ok(())
    }
}

/// Overload protection: per-core admission control with bounded runqueues,
/// request deadlines with timeout abort, and client retry with exponential
/// backoff plus jitter. `None` in [`SimConfig::overload`] reproduces the
/// unprotected engine exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverloadPolicy {
    /// Maximum requests a core may hold (queued + running) for a *new*
    /// request to be admitted there. Mid-request stage hops and quantum
    /// requeues are exempt — once admitted, a request always finishes its
    /// journey (or hits its deadline).
    pub max_runqueue: usize,
    /// End-to-end deadline from arrival; a request still incomplete when it
    /// expires is aborted (timeout abort). `None` disables deadlines.
    pub deadline: Option<Cycles>,
    /// Admission retries the (closed-loop) client attempts before the
    /// request is shed for good.
    pub max_retries: u32,
    /// Base client backoff before the first retry; attempt `k` waits
    /// `retry_backoff * 2^k` plus up to 50% deterministic jitter.
    pub retry_backoff: Cycles,
}

impl OverloadPolicy {
    /// Checks field sanity.
    ///
    /// # Errors
    ///
    /// Returns [`RbvError::Config`] naming the first inconsistent field.
    pub fn validate(&self) -> Result<(), RbvError> {
        if self.max_runqueue == 0 {
            return Err(RbvError::Config(
                "overload max_runqueue must admit at least one request".into(),
            ));
        }
        if self.deadline.is_some_and(|d| d.is_zero()) {
            return Err(RbvError::Config("overload deadline must be nonzero".into()));
        }
        if self.max_retries > 0 && self.retry_backoff.is_zero() {
            return Err(RbvError::Config(
                "retrying admission needs a nonzero backoff".into(),
            ));
        }
        Ok(())
    }
}

/// Full simulation configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Machine constants for the analytical performance model.
    pub machine: MachineSpec,
    /// CPU scheduling quantum (Linux-like 100 ms default).
    pub quantum: Cycles,
    /// Counter sampling policy.
    pub sampling: SamplingPolicy,
    /// Scheduling policy.
    pub scheduler: SchedulerPolicy,
    /// Closed-loop concurrency: requests kept in flight. 1 = the serial
    /// executions of Figure 1's first row. Ignored under
    /// [`ArrivalProcess::OpenPoisson`].
    pub concurrency: usize,
    /// Request arrival process.
    pub arrivals: ArrivalProcess,
    /// Front-end queue discipline for new arrivals (RSS-steered d-FCFS or
    /// central c-FCFS). `None` (the default) keeps least-loaded placement
    /// bit-identically. Requires no work stealing — the NIC front end owns
    /// placement.
    pub queue_discipline: Option<QueueDiscipline>,
    /// Open-loop client timeout/retry model; `None` (the default) models
    /// patient clients and changes nothing. Requires open-loop arrivals.
    pub client: Option<ClientPolicy>,
    /// CoDel-style dequeue-time shedding; `None` (the default) changes
    /// nothing. Requires open-loop arrivals.
    pub shed: Option<ShedPolicy>,
    /// Allow an idling core to steal the tail request of the longest
    /// runqueue. The paper's contention-easing prototype explicitly does
    /// *not* migrate requests between runqueues "for simplicity" (§5.2);
    /// this switch lifts that limitation for comparison.
    pub work_stealing: bool,
    /// Replace LRU cache sharing with static equal partitioning of each
    /// shared L2 among its occupied cores (page-coloring-style isolation,
    /// the related-work alternative the paper's §6 discusses).
    pub static_cache_partition: bool,
    /// When set, the engine accounts the time during which `k` cores
    /// simultaneously run at L2-misses-per-instruction at or above this
    /// level (the Figure 12 measurement), independent of the scheduler.
    pub measure_threshold: Option<f64>,
    /// Measurement-level fault injection; [`MeasurementFaults::none`]
    /// (the default) leaves every random stream and event schedule
    /// untouched.
    pub faults: MeasurementFaults,
    /// Overload protection; `None` (the default) reproduces the
    /// unprotected engine exactly.
    pub overload: Option<OverloadPolicy>,
    /// Prediction-confidence gate for the contention-easing scheduler:
    /// when the running mean relative error of the vaEWMA predictions
    /// exceeds [`crate::EASING_ERROR_GATE`], easing decisions fall back to
    /// stock scheduling until confidence recovers. `false` (the default)
    /// never gates.
    pub easing_error_gate: bool,
    /// Runtime guardrails (`rbv-guard`): the adaptive do-no-harm sampling
    /// governor, the measurement-health degradation ladder (which
    /// supersedes [`SimConfig::easing_error_gate`] while enabled), the
    /// online invariant monitor, and — with [`SimConfig::power`] also
    /// set — the power-capping ladder. `false` (the default) schedules
    /// no guard ticks and leaves the engine's event stream bit-identical
    /// to an unguarded build.
    pub guard: bool,
    /// Per-core DVFS/power/thermal model (`rbv-power`): a discrete
    /// P-state frequency ladder, a fixed-point energy accumulator, RC
    /// heating/cooling, and firmware thermal throttling. `None` (the
    /// default) accounts no energy and leaves the engine's event stream
    /// bit-identical to a power-unaware build.
    pub power: Option<rbv_power::PowerPolicy>,
    /// Inject the seeded thermal storm ([`rbv_power::ThermalStorm`]:
    /// heatwave, cooling failure, hot loop), its victim core chosen from
    /// [`SimConfig::seed`]. Requires [`SimConfig::power`]; `false` (the
    /// default) injects nothing.
    pub thermal_storm: bool,
    /// Engine RNG seed (placement decisions only; workload randomness
    /// lives in the factories).
    pub seed: u64,
}

impl SimConfig {
    /// The paper's default setup: 4-core Xeon 5160, 100 ms quanta, stock
    /// scheduler, context-switch-only sampling, 8-way closed loop.
    pub fn paper_default() -> SimConfig {
        SimConfig {
            machine: MachineSpec::xeon_5160(),
            quantum: Cycles::from_millis(100),
            sampling: SamplingPolicy::ContextSwitchOnly,
            scheduler: SchedulerPolicy::Stock,
            concurrency: 8,
            arrivals: ArrivalProcess::ClosedLoop,
            queue_discipline: None,
            client: None,
            shed: None,
            work_stealing: false,
            static_cache_partition: false,
            measure_threshold: None,
            faults: MeasurementFaults::none(),
            overload: None,
            easing_error_gate: false,
            guard: false,
            power: None,
            thermal_storm: false,
            seed: 0,
        }
    }

    /// Same but sampling at periodic interrupts of `period_micros`.
    pub fn with_interrupt_sampling(mut self, period_micros: u64) -> SimConfig {
        self.sampling = SamplingPolicy::Interrupt {
            period: Cycles::from_micros(period_micros),
        };
        self
    }

    /// Same but with syscall-triggered sampling.
    pub fn with_syscall_sampling(
        mut self,
        t_syscall_min_micros: u64,
        t_backup_int_micros: u64,
    ) -> SimConfig {
        self.sampling = SamplingPolicy::SyscallTriggered {
            t_syscall_min: Cycles::from_micros(t_syscall_min_micros),
            t_backup_int: Cycles::from_micros(t_backup_int_micros),
        };
        self
    }

    /// Serial execution (one request at a time), as in Figure 1 row 1.
    pub fn serial(mut self) -> SimConfig {
        self.concurrency = 1;
        self
    }

    /// Checks configuration sanity.
    ///
    /// # Errors
    ///
    /// Returns [`RbvError::Config`] describing the first inconsistent
    /// field.
    pub fn validate(&self) -> Result<(), RbvError> {
        let config_err = |msg: String| Err(RbvError::Config(msg));
        if self.concurrency == 0 {
            return config_err("concurrency must be at least 1".into());
        }
        match self.arrivals {
            ArrivalProcess::OpenPoisson { mean_interarrival } => {
                if mean_interarrival.is_zero() {
                    return config_err("mean interarrival must be nonzero".into());
                }
            }
            ArrivalProcess::OpenMmpp {
                mean_interarrival,
                burst_mean_interarrival,
                mean_calm_dwell,
                mean_burst_dwell,
            } => {
                if mean_interarrival.is_zero()
                    || burst_mean_interarrival.is_zero()
                    || mean_calm_dwell.is_zero()
                    || mean_burst_dwell.is_zero()
                {
                    return config_err("MMPP means and dwells must be nonzero".into());
                }
                if burst_mean_interarrival > mean_interarrival {
                    return config_err(format!(
                        "MMPP burst interarrival {burst_mean_interarrival} must not exceed the calm interarrival {mean_interarrival}"
                    ));
                }
            }
            ArrivalProcess::ClosedLoop | ArrivalProcess::External => {}
        }
        if self.arrivals == ArrivalProcess::External {
            // Externally driven machines belong to a cluster loop that
            // owns arrival timing and cross-machine routing; the
            // in-engine policies that would race it are rejected.
            if self.overload.is_some() {
                return config_err("external arrivals exclude the overload policy".into());
            }
            if self.shed.is_some() {
                return config_err("external arrivals exclude queue shedding".into());
            }
        }
        if self.queue_discipline.is_some() {
            // The NIC front end owns placement: it cannot coexist with work
            // stealing, which also wants to decide where requests go.
            if self.work_stealing {
                return config_err("queue discipline excludes work stealing".into());
            }
        }
        if let Some(client) = &self.client {
            client.validate()?;
            if !self.arrivals.is_open() {
                return config_err("client timeout/retry model requires open-loop arrivals".into());
            }
        }
        if let Some(shed) = &self.shed {
            shed.validate()?;
            if !self.arrivals.is_open() {
                return config_err("queue shedding requires open-loop arrivals".into());
            }
        }
        if self.quantum.is_zero() {
            return config_err("quantum must be nonzero".into());
        }
        match &self.sampling {
            SamplingPolicy::Interrupt { period } if period.is_zero() => {
                return config_err("interrupt period must be nonzero".into());
            }
            SamplingPolicy::SyscallTriggered {
                t_syscall_min,
                t_backup_int,
            }
            | SamplingPolicy::TransitionSignals {
                t_syscall_min,
                t_backup_int,
                ..
            } => {
                // A zero backup delay would rearm the backup timer at the
                // current instant forever (the engine's `rearm_backup_timer`
                // relies on this config-time guarantee instead of checking
                // at every rearm).
                if t_backup_int.is_zero() {
                    return config_err("backup interrupt delay must be nonzero".into());
                }
                if t_backup_int <= t_syscall_min {
                    return config_err(format!(
                        "backup interrupt delay {t_backup_int} must exceed t_syscall_min {t_syscall_min}"
                    ));
                }
            }
            _ => {}
        }
        if let SchedulerPolicy::ContentionEasing {
            high_usage_threshold,
        } = self.scheduler
        {
            if !high_usage_threshold.is_finite() || high_usage_threshold < 0.0 {
                return config_err(format!(
                    "high usage threshold {high_usage_threshold} must be nonnegative"
                ));
            }
        }
        self.faults.validate()?;
        if let Some(overload) = &self.overload {
            overload.validate()?;
        }
        if self.thermal_storm && self.power.is_none() {
            return config_err("the thermal storm requires a power model".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid() {
        assert!(SimConfig::paper_default().validate().is_ok());
    }

    #[test]
    fn builders_set_policies() {
        let c = SimConfig::paper_default().with_interrupt_sampling(10);
        assert_eq!(
            c.sampling,
            SamplingPolicy::Interrupt {
                period: Cycles::from_micros(10)
            }
        );
        let c = SimConfig::paper_default().with_syscall_sampling(5, 200);
        assert!(matches!(
            c.sampling,
            SamplingPolicy::SyscallTriggered { .. }
        ));
        assert!(c.validate().is_ok());
        let c = SimConfig::paper_default().serial();
        assert_eq!(c.concurrency, 1);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = SimConfig::paper_default();
        c.concurrency = 0;
        assert!(c.validate().is_err());

        let mut c = SimConfig::paper_default().with_syscall_sampling(100, 50);
        assert!(c.validate().is_err());
        c = SimConfig::paper_default().with_syscall_sampling(50, 100);
        assert!(c.validate().is_ok());

        let mut c = SimConfig::paper_default();
        c.scheduler = SchedulerPolicy::ContentionEasing {
            high_usage_threshold: -1.0,
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn thermal_storm_requires_a_power_model() {
        let mut c = SimConfig::paper_default();
        c.thermal_storm = true;
        assert!(c.validate().is_err());
        c.power = Some(rbv_power::PowerPolicy::paper_default());
        assert!(c.validate().is_ok());
    }

    #[test]
    fn quantum_default_is_100ms() {
        let c = SimConfig::paper_default();
        assert_eq!(c.quantum, Cycles::from_millis(100));
    }

    #[test]
    fn zero_backup_delay_is_rejected_at_build_time() {
        // The engine's `rearm_backup_timer` relies on this: a zero backup
        // delay would self-schedule at the same instant forever.
        let mut c = SimConfig::paper_default();
        c.sampling = SamplingPolicy::SyscallTriggered {
            t_syscall_min: Cycles::ZERO,
            t_backup_int: Cycles::ZERO,
        };
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("backup interrupt delay"));
    }

    #[test]
    fn measurement_fault_ranges_are_validated() {
        assert!(MeasurementFaults::none().validate().is_ok());
        assert!(!MeasurementFaults::none().enabled());

        let mut f = MeasurementFaults::none();
        f.lost_interrupt_prob = 1.5;
        assert!(f.validate().is_err());

        let mut f = MeasurementFaults::none();
        f.counter_skid_sigma = 1.0;
        assert!(f.validate().is_err());

        let mut f = MeasurementFaults::none();
        f.syscall_starvation_prob = 0.5; // but zero window
        assert!(f.validate().is_err());
        f.syscall_starvation_window = Cycles::from_millis(1);
        assert!(f.validate().is_ok());
        assert!(f.enabled());

        let mut c = SimConfig::paper_default();
        c.faults.counter_overflow_prob = -0.1;
        assert!(c.validate().is_err());
    }

    const BOUNDED: OverloadPolicy = OverloadPolicy {
        max_runqueue: 8,
        deadline: None,
        max_retries: 5,
        retry_backoff: Cycles::from_micros(100),
    };
    const CLIENT: ClientPolicy = ClientPolicy {
        timeout: Cycles::from_millis(50),
        max_retries: 3,
        retry_backoff: Cycles::from_millis(1),
    };
    const CODEL: ShedPolicy = ShedPolicy {
        target: Cycles::from_millis(5),
        interval: Cycles::from_millis(100),
    };

    #[test]
    fn overload_policy_is_validated() {
        assert!(BOUNDED.validate().is_ok());

        let mut p = BOUNDED;
        p.max_runqueue = 0;
        assert!(p.validate().is_err());

        let mut p = BOUNDED;
        p.deadline = Some(Cycles::ZERO);
        assert!(p.validate().is_err());

        let mut p = BOUNDED;
        p.retry_backoff = Cycles::ZERO;
        assert!(p.validate().is_err());
        p.max_retries = 0;
        assert!(p.validate().is_ok());

        let mut c = SimConfig::paper_default();
        c.overload = Some(OverloadPolicy {
            max_runqueue: 0,
            ..BOUNDED
        });
        assert!(c.validate().is_err());
    }

    #[test]
    fn mmpp_arrivals_are_validated() {
        let mut c = SimConfig::paper_default();
        c.arrivals = ArrivalProcess::OpenMmpp {
            mean_interarrival: Cycles::from_micros(100),
            burst_mean_interarrival: Cycles::from_micros(20),
            mean_calm_dwell: Cycles::from_millis(5),
            mean_burst_dwell: Cycles::from_millis(1),
        };
        assert!(c.validate().is_ok());
        assert!(c.arrivals.is_open());

        // A "burst" slower than calm is a spec error.
        c.arrivals = ArrivalProcess::OpenMmpp {
            mean_interarrival: Cycles::from_micros(20),
            burst_mean_interarrival: Cycles::from_micros(100),
            mean_calm_dwell: Cycles::from_millis(5),
            mean_burst_dwell: Cycles::from_millis(1),
        };
        assert!(c.validate().is_err());

        c.arrivals = ArrivalProcess::OpenMmpp {
            mean_interarrival: Cycles::from_micros(100),
            burst_mean_interarrival: Cycles::from_micros(20),
            mean_calm_dwell: Cycles::ZERO,
            mean_burst_dwell: Cycles::from_millis(1),
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn queue_discipline_excludes_other_placement_features() {
        let mut c = SimConfig::paper_default();
        c.queue_discipline = Some(QueueDiscipline::Dfcfs);
        assert!(c.validate().is_ok());
        c.work_stealing = true;
        assert!(c.validate().is_err());
        assert_eq!(QueueDiscipline::Dfcfs.label(), "dfcfs");
        assert_eq!(QueueDiscipline::Cfcfs.label(), "cfcfs");
    }

    #[test]
    fn client_and_shed_policies_require_open_loop() {
        let mut c = SimConfig::paper_default();
        c.client = Some(CLIENT);
        assert!(c.validate().is_err(), "closed loop has no client timeouts");
        c.arrivals = ArrivalProcess::OpenPoisson {
            mean_interarrival: Cycles::from_micros(100),
        };
        assert!(c.validate().is_ok());

        let mut c = SimConfig::paper_default();
        c.shed = Some(CODEL);
        assert!(c.validate().is_err(), "shedding needs open-loop arrivals");
        c.arrivals = ArrivalProcess::OpenPoisson {
            mean_interarrival: Cycles::from_micros(100),
        };
        assert!(c.validate().is_ok());

        let mut bad = CLIENT;
        bad.timeout = Cycles::ZERO;
        assert!(bad.validate().is_err());
        let mut bad = CLIENT;
        bad.retry_backoff = Cycles::ZERO;
        assert!(bad.validate().is_err());
        bad.max_retries = 0;
        assert!(bad.validate().is_ok());
        let mut bad = CODEL;
        bad.interval = Cycles::ZERO;
        assert!(bad.validate().is_err());
    }
}
