//! Open-loop serving harness for the Request Behavior Variations
//! reproduction: `repro serve` drives an application with a seeded
//! open-loop arrival process (Poisson or bursty MMPP) at a chosen
//! multiple of its measured capacity, with the overload defenses —
//! admission control, CoDel-style shedding, client timeout/retry — as
//! independent ablation switches.
//!
//! Two properties make million-request runs practical:
//!
//! * **Bounded memory.** Completed and failed requests are folded into
//!   [`QuantileSketch`] digests and counters as they finish
//!   ([`rbv_os::CompletionSink`]) and the engine frees each request's
//!   slot once it and every older request have resolved, so memory is
//!   O(span of live request ids), not O(total requests).
//! * **Thread-count-independent determinism.** The run is split into a
//!   fixed shard plan that depends only on the request count — never on
//!   `--threads` — and each shard is an independent simulation seeded by
//!   a SplitMix64 hash of `(seed, shard index)`. Shard digests merge in
//!   shard order, so the serialized ledger is byte-identical at any
//!   thread count (wall-clock throughput is opt-in and excluded).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use rbv_os::{
    joules, pops_profile, run_simulation, run_simulation_streaming,
    run_simulation_streaming_traced, solver_profile, ArrivalProcess, ClientPolicy,
    CompletedRequest, CompletionSink, EnergyStats, EventPops, FailReason, FailedRequest,
    LadderRung, OverloadPolicy, PowerPolicy, PowerRung, QueueDiscipline, RbvError, ShedPolicy,
    SimConfig, SolverStats,
};
use rbv_sim::{rng, Cycles};
use rbv_telemetry::{Json, QuantileSketch};
use rbv_trace::{SpanCollector, SpanRecord, SpanSummary};
use rbv_workloads::{factory_for, AppId};

/// Schema tag embedded in every serve ledger; bumped on layout changes.
pub const SCHEMA: &str = "rbv-serve/v1";

/// Target requests per shard. Small enough that a million-request run
/// fans out to the shard cap, large enough that per-shard warmup (the
/// first arrivals landing on an idle machine) stays in the noise.
const SHARD_TARGET: usize = 32_768;

/// Shard-count cap: fixing the plan at ≤ 64 shards keeps the plan
/// independent of the worker pool while still saturating any thread
/// count the CLI accepts.
const MAX_SHARDS: usize = 64;

/// The failure reasons a serve ledger itemizes, in slot order.
const REASONS: [FailReason; 5] = [
    FailReason::AdmissionShed,
    FailReason::DeadlineAbort,
    FailReason::ClientTimeout,
    FailReason::CodelShed,
    FailReason::BrownoutReject,
];

/// Salt of the serve harness's shard seeds ([`rng::shard_seed`]).
const SHARD_SALT: u64 = 0x0be7_10c4;

fn reason_slot(reason: FailReason) -> usize {
    match reason {
        FailReason::AdmissionShed => 0,
        FailReason::DeadlineAbort => 1,
        FailReason::ClientTimeout => 2,
        FailReason::CodelShed => 3,
        FailReason::BrownoutReject => 4,
    }
}

fn cycles_at_least_one(value: f64) -> Cycles {
    Cycles::new(value.max(1.0) as u64)
}

/// Everything `repro serve <app>` needs to know: the offered load and
/// which overload defenses are armed. Defenses default **on**; the
/// ablation flags turn them off one at a time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeSpec {
    /// Application under test.
    pub app: AppId,
    /// Total requests to offer (across all shards).
    pub requests: usize,
    /// Offered load as a multiple of measured capacity: 1.0 matches the
    /// service rate of all cores, 2.0 offers twice what the machine can
    /// complete.
    pub overload: f64,
    /// Front-end queue discipline; `None` keeps the engine's default
    /// least-loaded placement.
    pub discipline: Option<QueueDiscipline>,
    /// Deadline-based admission control (bounded runqueues + deadline).
    pub admission: bool,
    /// CoDel-style dequeue-time shedding.
    pub shed: bool,
    /// Impatient clients: timeout, capped exponential backoff, retry.
    pub retries: bool,
    /// Arm the runtime guard (sampling governor + health ladder +
    /// invariant monitor) so sustained overload can walk the ladder down
    /// to its shed and brownout rungs. With [`ServeSpec::power`] also
    /// armed, the guard additionally runs the power-capping ladder
    /// (frequency cap → core parking) against smoothed thermal pressure.
    pub guard: bool,
    /// Arm the per-core DVFS/power/thermal model
    /// ([`rbv_os::PowerPolicy::paper_default`]) and fold the exact
    /// integer energy accounting into the ledger's `"energy"` member.
    /// The power model never throttles an unfaulted machine, so
    /// without [`ServeSpec::thermal`] every non-energy ledger member is
    /// byte-identical with the power model off.
    pub power: bool,
    /// Inject the seeded thermal storm ([`rbv_os::SimConfig::thermal_storm`],
    /// per shard on the shard's seed):
    /// a cooling failure, a heatwave, and a hot-loop window, which can
    /// drive cores into firmware throttling. Requires `power`.
    pub thermal: bool,
    /// Bursty MMPP arrivals instead of plain Poisson.
    pub mmpp: bool,
    /// Reconstruct per-request causal spans, fold the client-visible
    /// latency decomposition into the ledger's `"trace"` member, and
    /// retain one compact span record per finished request for Perfetto
    /// export (memory grows to O(total requests)). Observation-only:
    /// every other ledger member is byte-identical with tracing off.
    pub trace: bool,
    /// Seed of the whole run; shard seeds derive from it.
    pub seed: u64,
}

impl ServeSpec {
    /// A fully-defended Poisson run at moderate overload.
    pub fn new(app: AppId, requests: usize, seed: u64) -> ServeSpec {
        ServeSpec {
            app,
            requests,
            overload: 1.5,
            discipline: None,
            admission: true,
            shed: true,
            retries: true,
            guard: false,
            power: false,
            thermal: false,
            mmpp: false,
            trace: false,
            seed,
        }
    }

    /// Checks field sanity.
    ///
    /// # Errors
    ///
    /// Returns [`RbvError::Config`] naming the first inconsistent field.
    pub fn validate(&self) -> Result<(), RbvError> {
        if self.requests == 0 {
            return Err(RbvError::Config("serve requires at least 1 request".into()));
        }
        if !self.overload.is_finite() || self.overload <= 0.0 {
            return Err(RbvError::Config(
                "serve overload factor must be finite and positive".into(),
            ));
        }
        if self.thermal && !self.power {
            return Err(RbvError::Config(
                "serve thermal faults require the power model (--power)".into(),
            ));
        }
        Ok(())
    }
}

/// Mean per-request CPU cycles from a small clean serial probe — the
/// yardstick serve sizes its arrival rate, deadline, shedding target,
/// and client patience against (same idiom as the chaos overload
/// scenario, on its own seed stream).
///
/// # Errors
///
/// Propagates [`RbvError`] from configuration validation.
pub fn probe_mean_service(app: AppId, seed: u64) -> Result<f64, RbvError> {
    let mut cfg = SimConfig::paper_default().with_interrupt_sampling(app.sampling_period_micros());
    cfg.seed = seed ^ 0x5EED_0B5E;
    let cfg = cfg.serial();
    let mut factory = factory_for(app, seed ^ 0x5EED_0B5E, app.harness_scale());
    let result = run_simulation(cfg, factory.as_mut(), 8)?;
    let total: f64 = result
        .completed
        .iter()
        .map(CompletedRequest::cpu_cycles)
        .sum();
    Ok((total / result.completed.len() as f64).max(1.0))
}

/// The streaming sink: completed and failed requests fold into digests
/// and counters by reference and are dropped — the bounded-memory half
/// of the serve contract.
#[derive(Debug, Clone, Default, PartialEq)]
struct ServeAccumulator {
    completed: u64,
    failed_by_reason: [u64; 5],
    latency_us: QuantileSketch,
    cpu_cycles: QuantileSketch,
}

impl CompletionSink for ServeAccumulator {
    fn on_complete(&mut self, request: &CompletedRequest) {
        self.completed += 1;
        self.latency_us.observe(request.latency().as_micros_f64());
        self.cpu_cycles.observe(request.cpu_cycles());
    }

    fn on_fail(&mut self, request: &FailedRequest) {
        self.failed_by_reason[reason_slot(request.reason)] += 1;
    }
}

/// One shard's digest, merged in shard order by [`serve`].
struct ShardOutput {
    acc: ServeAccumulator,
    stats: rbv_os::RunStats,
    total_time: Cycles,
    /// Span summary plus retained records, when the spec traces.
    trace: Option<(SpanSummary, Vec<SpanRecord>)>,
}

/// Builds a shard's simulation config from the spec and the probed
/// mean service time: the open-loop arrival process at the spec's
/// overload, and the overload defenses, guard and power model the spec
/// arms.
pub fn shard_config(spec: &ServeSpec, mean_service: f64, shard_seed: u64) -> SimConfig {
    let mut cfg =
        SimConfig::paper_default().with_interrupt_sampling(spec.app.sampling_period_micros());
    cfg.seed = shard_seed;
    let cores = cfg.machine.topology.cores as f64;
    // Offered rate = overload × capacity; capacity = cores / mean service.
    let base_gap = (mean_service / (cores * spec.overload)).max(1.0);
    cfg.arrivals = if spec.mmpp {
        // Calm/burst gaps straddle the Poisson gap so the long-run
        // offered load stays near the same overload factor while the
        // burst state transiently doubles it.
        ArrivalProcess::OpenMmpp {
            mean_interarrival: cycles_at_least_one(base_gap * 1.5),
            burst_mean_interarrival: cycles_at_least_one(base_gap * 0.5),
            mean_calm_dwell: cycles_at_least_one(mean_service * 64.0),
            mean_burst_dwell: cycles_at_least_one(mean_service * 32.0),
        }
    } else {
        ArrivalProcess::OpenPoisson {
            mean_interarrival: cycles_at_least_one(base_gap),
        }
    };
    cfg.queue_discipline = spec.discipline;
    if spec.admission {
        cfg.overload = Some(OverloadPolicy {
            max_runqueue: 4,
            deadline: Some(cycles_at_least_one(mean_service * 8.0)),
            max_retries: 3,
            retry_backoff: cycles_at_least_one(mean_service / 4.0),
        });
    }
    if spec.shed {
        cfg.shed = Some(ShedPolicy {
            target: cycles_at_least_one(mean_service * 4.0),
            interval: cycles_at_least_one(mean_service * 16.0),
        });
    }
    if spec.retries {
        cfg.client = Some(ClientPolicy {
            timeout: cycles_at_least_one(mean_service * 12.0),
            max_retries: 3,
            retry_backoff: cycles_at_least_one(mean_service),
        });
    }
    cfg.guard = spec.guard;
    if spec.power {
        cfg.power = Some(PowerPolicy::paper_default());
        cfg.thermal_storm = spec.thermal;
    }
    cfg
}

/// Runs one shard to completion through the streaming sink and checks
/// request conservation before returning its digest.
fn run_shard(
    spec: &ServeSpec,
    mean_service: f64,
    shard_index: usize,
    n: usize,
) -> Result<ShardOutput, RbvError> {
    let shard_seed = rng::shard_seed(spec.seed, SHARD_SALT, shard_index);
    let cfg = shard_config(spec, mean_service, shard_seed);
    let mut factory = factory_for(spec.app, shard_seed, spec.app.harness_scale());
    let mut acc = ServeAccumulator::default();
    let mut trace = None;
    let result = if spec.trace {
        let mut collector = SpanCollector::retaining();
        let result =
            run_simulation_streaming_traced(cfg, factory.as_mut(), n, &mut acc, &mut collector)?;
        let (summary, spans) = collector.into_parts();
        if summary.completed != acc.completed || summary.unfinished != 0 {
            // Span conservation: the reconstructor must agree with the
            // completion stream request for request. A mismatch is a
            // tracing bug, not a user error.
            return Err(RbvError::Config(format!(
                "shard {shard_index}: span reconstruction diverged ({} spans completed vs {} \
                 streamed, {} unfinished)",
                summary.completed, acc.completed, summary.unfinished
            )));
        }
        trace = Some((summary, spans));
        result
    } else {
        run_simulation_streaming(cfg, factory.as_mut(), n, &mut acc)?
    };
    let failed: u64 = acc.failed_by_reason.iter().sum();
    if acc.completed + failed != n as u64 {
        // Request conservation: every offered request must end completed
        // or failed exactly once. A violation is an engine bug, not a
        // user error — surface it loudly rather than folding it in.
        return Err(RbvError::Config(format!(
            "shard {shard_index}: conservation violated ({} completed + {failed} failed != {n} offered)",
            acc.completed
        )));
    }
    Ok(ShardOutput {
        acc,
        stats: result.stats,
        total_time: result.total_time,
        trace,
    })
}

/// Merged energy/thermal accounting across shards, present when the
/// spec arms the power model. The per-core accumulators are exact
/// integers (µW·cycles), so the shard-order merge is order-free and the
/// serialized `"energy"` member is byte-identical at any thread count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EnergyReport {
    /// Exact energy per core in µW·cycles, summed across shards.
    pub core_uw_cycles: Vec<u128>,
    /// Exact total energy in µW·cycles (must equal the core sum).
    pub total_uw_cycles: u128,
    /// Firmware throttle engagements across all cores and shards.
    pub throttle_engages: u64,
    /// Firmware throttle releases across all cores and shards.
    pub throttle_releases: u64,
    /// Cores still throttled when their shard ended.
    pub throttled_final: u64,
    /// DVFS P-state transitions across all cores and shards.
    pub dvfs_transitions: u64,
    /// Hottest temperature any core reached, milli-°C.
    pub max_temp_milli_c: i64,
    /// Power-capping ladder transitions (0 unless the guard is armed).
    pub power_rung_transitions: u64,
    /// Worst (deepest) final power rung across shards, as a
    /// [`PowerRung`] index.
    pub power_final_rung: u64,
    /// Shards whose per-core energy sum failed to equal their total
    /// exactly — the serve-level energy-conservation check. Always 0;
    /// a nonzero count is an engine bug on the record.
    pub conservation_violations: u64,
}

impl EnergyReport {
    /// Total dissipated energy in joules.
    pub fn total_joules(&self) -> f64 {
        joules(self.total_uw_cycles)
    }

    /// Label of the worst final power rung.
    pub fn power_rung_label(&self) -> &'static str {
        let idx = (self.power_final_rung as usize).min(PowerRung::ALL.len() - 1);
        PowerRung::ALL[idx].label()
    }

    /// Folds one shard's engine-side energy stats in, checking the
    /// shard's exact conservation (Σ per-core µW·cycles == total) on
    /// the way.
    fn absorb(&mut self, shard: &EnergyStats) {
        if self.core_uw_cycles.len() < shard.core_uw_cycles.len() {
            self.core_uw_cycles.resize(shard.core_uw_cycles.len(), 0);
        }
        for (slot, uw_cycles) in shard.core_uw_cycles.iter().enumerate() {
            self.core_uw_cycles[slot] += uw_cycles;
        }
        if shard.core_uw_cycles.iter().sum::<u128>() != shard.total_uw_cycles {
            self.conservation_violations += 1;
        }
        self.total_uw_cycles += shard.total_uw_cycles;
        self.throttle_engages += shard.throttle_engages;
        self.throttle_releases += shard.throttle_releases;
        self.throttled_final += shard.throttled_final;
        self.dvfs_transitions += shard.dvfs_transitions;
        self.max_temp_milli_c = self.max_temp_milli_c.max(shard.max_temp_milli_c);
        self.power_rung_transitions += shard.power_rung_transitions;
        self.power_final_rung = self.power_final_rung.max(shard.power_final_rung);
    }

    /// Serializes the energy member. The exact accumulator rides along
    /// as a decimal string (µW·cycles exceed f64's integer range on
    /// long runs), so byte-comparison of ledgers covers it losslessly.
    pub fn to_json(&self) -> Json {
        let num = Json::Num;
        Json::Obj(vec![
            ("joules".into(), num(self.total_joules())),
            (
                "uw_cycles".into(),
                Json::str(self.total_uw_cycles.to_string()),
            ),
            (
                "core_joules".into(),
                Json::Arr(
                    self.core_uw_cycles
                        .iter()
                        .map(|&c| num(joules(c)))
                        .collect(),
                ),
            ),
            ("throttle_engages".into(), num(self.throttle_engages as f64)),
            (
                "throttle_releases".into(),
                num(self.throttle_releases as f64),
            ),
            ("throttled_final".into(), num(self.throttled_final as f64)),
            ("dvfs_transitions".into(), num(self.dvfs_transitions as f64)),
            ("max_temp_milli_c".into(), num(self.max_temp_milli_c as f64)),
            (
                "power_rung_transitions".into(),
                num(self.power_rung_transitions as f64),
            ),
            (
                "power_final_rung".into(),
                Json::str(self.power_rung_label()),
            ),
            (
                "conservation_violations".into(),
                num(self.conservation_violations as f64),
            ),
        ])
    }
}

/// Everything one serve run reports: the goodput/shed/retry/deadline
/// ledger plus merged latency and CPU digests.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// The spec that produced this report.
    pub spec: ServeSpec,
    /// Shards the run fanned out to.
    pub shards: u64,
    /// Probed mean per-request service cycles (the capacity yardstick).
    pub mean_service_cycles: f64,
    /// Requests that completed.
    pub completed: u64,
    /// Failures itemized by reason, in [`FailReason`] slot order
    /// (shed, deadline, timeout, codel, brownout).
    pub failed_by_reason: [u64; 5],
    /// Client timeout firings (including ones the client retried past).
    pub client_timeouts: u64,
    /// Client resubmissions after timeouts.
    pub client_retries: u64,
    /// Admission-control rejections (per attempt).
    pub admission_rejections: u64,
    /// Admission retries after backoff.
    pub admission_retries: u64,
    /// CPU cycles spent on attempts that were later aborted or shed.
    pub wasted_cycles: f64,
    /// Health-ladder transitions across all shards (0 unless `guard`).
    pub health_transitions: u64,
    /// Worst (most degraded) final ladder rung across shards; the
    /// healthy "easing" label when the guard is off or never moved.
    pub final_rung: LadderRung,
    /// Total busy cycles across all shards.
    pub busy_cycles: f64,
    /// Sum of simulated time across shards, cycles.
    pub simulated_cycles: f64,
    /// End-to-end latency digest of completed requests, microseconds.
    pub latency_us: QuantileSketch,
    /// Per-request CPU cycle digest of completed requests.
    pub cpu_cycles: QuantileSketch,
    /// Merged exact energy/thermal accounting when the spec armed the
    /// power model. `None` keeps the serialized ledger byte-identical
    /// to power-model-off builds.
    pub energy: Option<EnergyReport>,
    /// Merged span summary — the client-visible latency decomposition —
    /// when the spec traced. `None` keeps the serialized ledger
    /// byte-identical to pre-tracing builds.
    pub trace: Option<SpanSummary>,
    /// Retained span records per shard, in shard order (empty unless
    /// the spec traced); feeds [`rbv_trace::spans_to_perfetto`], never the
    /// serialized ledger.
    pub spans: Vec<(u32, Vec<SpanRecord>)>,
    /// Contention-model solves across shards; serialized only under the
    /// opt-in `"profile"` member.
    pub solver: SolverStats,
    /// Engine events by kind, live and stale, across shards; serialized
    /// only under the opt-in `"profile"` member.
    pub pops: EventPops,
    /// Wall-clock duration of the run, seconds. Opt-in (`--wallclock`);
    /// `None` keeps the serialized ledger a pure function of the spec,
    /// which the thread-count byte-identity gate relies on.
    pub wall_seconds: Option<f64>,
}

impl ServeReport {
    /// Requests offered (= completed + failed, by conservation).
    pub fn offered(&self) -> u64 {
        self.spec.requests as u64
    }

    /// Total failures across all reasons.
    pub fn failed(&self) -> u64 {
        self.failed_by_reason.iter().sum()
    }

    /// Fraction of offered requests that completed — the metric the
    /// overload defenses exist to protect.
    pub fn goodput_frac(&self) -> f64 {
        self.completed as f64 / self.spec.requests as f64
    }

    /// Requests turned away by any shedding mechanism (admission,
    /// CoDel, brownout) — as opposed to client-side abandonment.
    pub fn shed_total(&self) -> u64 {
        self.failed_by_reason[0] + self.failed_by_reason[3] + self.failed_by_reason[4]
    }

    /// Requests that blew their end-to-end deadline.
    pub fn deadline_misses(&self) -> u64 {
        self.failed_by_reason[1]
    }

    /// Whether every shard's ladder ended at or above its normal
    /// operating rung — the overload rungs (shed, brownout) must not
    /// outlive the storm.
    pub fn recovered(&self) -> bool {
        !self.final_rung.is_overloaded()
    }

    /// Simulated requests resolved per wall-clock second, when wall
    /// timing was recorded.
    pub fn sim_requests_per_wall_second(&self) -> Option<f64> {
        self.wall_seconds
            .filter(|s| *s > 0.0)
            .map(|s| self.spec.requests as f64 / s)
    }

    /// Serializes the report. Key order is fixed and wall-clock fields
    /// are segregated under `"profile"` (absent unless recorded), so two
    /// runs of the same spec serialize byte-identically at any thread
    /// count.
    pub fn to_json(&self) -> Json {
        let num = Json::Num;
        let arrivals = if self.spec.mmpp { "mmpp" } else { "poisson" };
        let discipline = self.spec.discipline.map_or("none", QueueDiscipline::label);
        let failed = Json::Obj(
            REASONS
                .iter()
                .enumerate()
                .map(|(slot, reason)| {
                    (
                        reason.label().to_string(),
                        num(self.failed_by_reason[slot] as f64),
                    )
                })
                .collect(),
        );
        let ledger = Json::Obj(vec![
            ("offered".into(), num(self.offered() as f64)),
            ("completed".into(), num(self.completed as f64)),
            ("goodput_frac".into(), num(self.goodput_frac())),
            ("failed".into(), failed),
            ("shed_total".into(), num(self.shed_total() as f64)),
            ("deadline_misses".into(), num(self.deadline_misses() as f64)),
            ("client_timeouts".into(), num(self.client_timeouts as f64)),
            ("client_retries".into(), num(self.client_retries as f64)),
            (
                "admission_rejections".into(),
                num(self.admission_rejections as f64),
            ),
            (
                "admission_retries".into(),
                num(self.admission_retries as f64),
            ),
            ("wasted_cycles".into(), num(self.wasted_cycles)),
            ("busy_cycles".into(), num(self.busy_cycles)),
            ("simulated_cycles".into(), num(self.simulated_cycles)),
            (
                "health_transitions".into(),
                num(self.health_transitions as f64),
            ),
            ("final_rung".into(), Json::str(self.final_rung.label())),
            ("recovered".into(), Json::Bool(self.recovered())),
        ]);
        let mut members = vec![
            ("schema".into(), Json::str(SCHEMA)),
            ("app".into(), Json::str(self.spec.app.to_string())),
            ("seed".into(), num(self.spec.seed as f64)),
            ("requests".into(), num(self.spec.requests as f64)),
            ("overload".into(), num(self.spec.overload)),
            ("arrivals".into(), Json::str(arrivals)),
            ("discipline".into(), Json::str(discipline)),
            ("admission".into(), Json::Bool(self.spec.admission)),
            ("shed".into(), Json::Bool(self.spec.shed)),
            ("retries".into(), Json::Bool(self.spec.retries)),
            ("guard".into(), Json::Bool(self.spec.guard)),
        ];
        if self.spec.power {
            // Conditional like the energy member itself: power-off
            // ledgers stay byte-identical to pre-power builds.
            members.push(("power".into(), Json::Bool(true)));
            members.push(("thermal".into(), Json::Bool(self.spec.thermal)));
        }
        members.extend([
            ("shards".into(), num(self.shards as f64)),
            ("mean_service_cycles".into(), num(self.mean_service_cycles)),
            ("ledger".into(), ledger),
            ("latency_us".into(), self.latency_us.to_json()),
            ("cpu_cycles".into(), self.cpu_cycles.to_json()),
        ]);
        if let Some(energy) = &self.energy {
            members.push(("energy".into(), energy.to_json()));
        }
        if let Some(trace) = &self.trace {
            members.push(("trace".into(), trace.to_json()));
        }
        if let Some(wall) = self.wall_seconds {
            members.push((
                "profile".into(),
                Json::Obj(vec![
                    ("wall_seconds".into(), num(wall)),
                    (
                        "sim_requests_per_wall_second".into(),
                        num(self.sim_requests_per_wall_second().unwrap_or(0.0)),
                    ),
                    ("solver".into(), solver_profile(&self.solver)),
                    ("events".into(), pops_profile(&self.pops)),
                ]),
            ));
        }
        Json::Obj(members)
    }
}

/// Runs the full serve campaign: probe capacity, fan the fixed shard
/// plan over `pool`, and merge digests in shard order.
///
/// # Errors
///
/// Propagates [`RbvError`] from validation, the probe, or any shard
/// (first shard in plan order wins, deterministically).
pub fn serve(spec: &ServeSpec, pool: &rbv_par::Pool) -> Result<ServeReport, RbvError> {
    serve_with_shard_target(spec, pool, SHARD_TARGET)
}

/// [`serve`] with an explicit shard-size target — the test seam that
/// exercises multi-shard merging without million-request runs. The
/// public entry point fixes the target so the plan stays a pure
/// function of the request count.
///
/// # Errors
///
/// Propagates [`RbvError`] as [`serve`] does.
pub fn serve_with_shard_target(
    spec: &ServeSpec,
    pool: &rbv_par::Pool,
    shard_target: usize,
) -> Result<ServeReport, RbvError> {
    spec.validate()?;
    let mean_service = probe_mean_service(spec.app, spec.seed)?;
    let plan = rbv_par::shard_plan(spec.requests, shard_target, MAX_SHARDS);
    let sizes: Vec<(usize, usize)> = plan.iter().copied().enumerate().collect();
    let outputs = pool.ordered_map(&sizes, |&(i, n)| run_shard(spec, mean_service, i, n));
    let mut report = ServeReport {
        spec: *spec,
        shards: plan.len() as u64,
        mean_service_cycles: mean_service,
        completed: 0,
        failed_by_reason: [0; 5],
        client_timeouts: 0,
        client_retries: 0,
        admission_rejections: 0,
        admission_retries: 0,
        wasted_cycles: 0.0,
        health_transitions: 0,
        final_rung: LadderRung::Easing,
        busy_cycles: 0.0,
        simulated_cycles: 0.0,
        latency_us: QuantileSketch::new(),
        cpu_cycles: QuantileSketch::new(),
        energy: None,
        trace: None,
        spans: Vec::new(),
        solver: SolverStats::default(),
        pops: EventPops::default(),
        wall_seconds: None,
    };
    // Merge in shard order — the canonical order that makes floating-
    // point sums and sketch digests byte-identical at any thread count.
    for (shard_index, output) in outputs.into_iter().enumerate() {
        let shard = output?;
        report.completed += shard.acc.completed;
        for (slot, count) in shard.acc.failed_by_reason.iter().enumerate() {
            report.failed_by_reason[slot] += count;
        }
        report.client_timeouts += shard.stats.client_timeouts;
        report.client_retries += shard.stats.client_retries;
        report.admission_rejections += shard.stats.admission_rejections;
        report.admission_retries += shard.stats.admission_retries;
        report.wasted_cycles += shard.stats.wasted_cycles;
        report.health_transitions += shard.stats.health_transitions;
        let shard_rung = LadderRung::ALL[shard.stats.health_final_rung as usize];
        if shard_rung.index() > report.final_rung.index() {
            report.final_rung = shard_rung;
        }
        report.solver.merge(&shard.stats.solver);
        report.pops.merge(&shard.stats.pops);
        report.busy_cycles += shard.stats.busy_cycles;
        report.simulated_cycles += shard.total_time.as_f64();
        report.latency_us.merge(&shard.acc.latency_us);
        report.cpu_cycles.merge(&shard.acc.cpu_cycles);
        if let Some(shard_energy) = &shard.stats.energy {
            report
                .energy
                .get_or_insert_with(EnergyReport::default)
                .absorb(shard_energy);
        }
        if let Some((mut summary, spans)) = shard.trace {
            summary.set_shard(shard_index as u32);
            match &mut report.trace {
                Some(merged) => merged.merge(&summary),
                None => report.trace = Some(summary),
            }
            report.spans.push((shard_index as u32, spans));
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec(requests: usize, seed: u64) -> ServeSpec {
        ServeSpec::new(AppId::WebServer, requests, seed)
    }

    #[test]
    fn spec_validation_rejects_nonsense() {
        let mut spec = quick_spec(0, 1);
        assert!(spec.validate().is_err());
        spec.requests = 10;
        spec.overload = 0.0;
        assert!(spec.validate().is_err());
        spec.overload = f64::NAN;
        assert!(spec.validate().is_err());
        spec.overload = 2.0;
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn serve_ledger_is_byte_identical_across_thread_counts() {
        let mut spec = quick_spec(120, 7);
        spec.overload = 2.0;
        let serial =
            serve_with_shard_target(&spec, &rbv_par::Pool::serial(), 30).expect("serial serve");
        let pooled =
            serve_with_shard_target(&spec, &rbv_par::Pool::new(4), 30).expect("pooled serve");
        assert_eq!(serial.shards, 4);
        assert_eq!(
            serial.to_json().to_string_compact(),
            pooled.to_json().to_string_compact()
        );
        assert_eq!(serial, pooled);
    }

    #[test]
    fn overload_run_conserves_requests_and_sheds() {
        let mut spec = quick_spec(160, 11);
        spec.overload = 3.0;
        let report =
            serve_with_shard_target(&spec, &rbv_par::Pool::serial(), 80).expect("overloaded serve");
        assert_eq!(report.completed + report.failed(), 160);
        assert!(report.failed() > 0, "3x overload must shed something");
        assert!(report.goodput_frac() > 0.0);
        assert!(report.latency_us.count() == report.completed);
        assert!(report.wasted_cycles >= 0.0);
        // The ledger section carries the same conservation story.
        let json = report.to_json();
        let ledger = json.get("ledger").expect("ledger member");
        let offered = ledger.get("offered").and_then(Json::as_f64).unwrap();
        let completed = ledger.get("completed").and_then(Json::as_f64).unwrap();
        assert_eq!(offered as u64, 160);
        assert_eq!(completed as u64, report.completed);
    }

    #[test]
    fn mmpp_arrivals_serve_and_conserve() {
        let mut spec = quick_spec(100, 3);
        spec.mmpp = true;
        spec.overload = 2.0;
        let report =
            serve_with_shard_target(&spec, &rbv_par::Pool::serial(), 100).expect("mmpp serve");
        assert_eq!(report.completed + report.failed(), 100);
        let json = report.to_json();
        assert_eq!(json.get("arrivals").and_then(Json::as_str), Some("mmpp"));
    }

    #[test]
    fn wallclock_profile_is_opt_in_and_segregated() {
        let spec = quick_spec(40, 5);
        let mut report =
            serve_with_shard_target(&spec, &rbv_par::Pool::serial(), 40).expect("serve");
        assert!(report.to_json().get("profile").is_none());
        report.wall_seconds = Some(2.0);
        let json = report.to_json();
        let profile = json.get("profile").expect("profile member");
        assert_eq!(
            profile
                .get("sim_requests_per_wall_second")
                .and_then(Json::as_f64),
            Some(20.0)
        );
    }

    #[test]
    fn traced_ledger_is_byte_identical_across_thread_counts() {
        let mut spec = quick_spec(120, 7);
        spec.overload = 2.0;
        spec.trace = true;
        let serial =
            serve_with_shard_target(&spec, &rbv_par::Pool::serial(), 30).expect("serial serve");
        let pooled =
            serve_with_shard_target(&spec, &rbv_par::Pool::new(4), 30).expect("pooled serve");
        assert_eq!(serial.shards, 4);
        let serial_text = serial.to_json().to_string_compact();
        assert_eq!(serial_text, pooled.to_json().to_string_compact());
        assert!(serial_text.contains("\"trace\""));
        // The decomposition sketches themselves are byte-identical too.
        let a = serial.trace.expect("serial trace");
        let b = pooled.trace.expect("pooled trace");
        assert_eq!(
            a.to_json().to_string_compact(),
            b.to_json().to_string_compact()
        );
        assert_eq!(a.violations_total(), 0, "{:?}", a.first_violation);
    }

    #[test]
    fn tracing_is_observation_only() {
        let mut traced_spec = quick_spec(100, 13);
        traced_spec.overload = 2.5;
        traced_spec.trace = true;
        let mut plain_spec = traced_spec;
        plain_spec.trace = false;
        let pool = rbv_par::Pool::serial();
        let traced = serve_with_shard_target(&traced_spec, &pool, 50).expect("traced");
        let plain = serve_with_shard_target(&plain_spec, &pool, 50).expect("plain");
        // Tracing off leaves no trace member at all (byte-identity with
        // pre-tracing ledgers).
        assert!(!plain.to_json().to_string_compact().contains("\"trace\""));
        // Tracing on changes nothing but the trace member: strip it (and
        // the spec flag) and the reports serialize identically.
        let mut stripped = traced.clone();
        stripped.trace = None;
        stripped.spec.trace = false;
        assert_eq!(
            stripped.to_json().to_string_compact(),
            plain.to_json().to_string_compact()
        );
    }

    #[test]
    fn span_decomposition_accounts_for_every_request() {
        let mut spec = quick_spec(160, 11);
        spec.overload = 3.0;
        spec.trace = true;
        let report =
            serve_with_shard_target(&spec, &rbv_par::Pool::serial(), 80).expect("traced serve");
        let trace = report.trace.as_ref().expect("trace summary");
        assert_eq!(trace.arrived, 160);
        assert_eq!(trace.completed, report.completed);
        assert_eq!(trace.failed, report.failed());
        assert_eq!(trace.unfinished, 0);
        // Client-visible latency covers exactly the completed requests;
        // the stage sketches cover every finished request.
        assert_eq!(trace.client_visible_us.count(), report.completed);
        assert_eq!(trace.queue_us.count(), 160);
        // Every per-request exact-sum and attempt-identity check passed.
        assert_eq!(trace.violations_total(), 0, "{:?}", trace.first_violation);
        assert!(trace.invariant_checks >= 160);
        assert!(!trace.top.is_empty());
        // Client-visible latency dominates pure service time at 3x
        // overload: queueing and retries are visible in the sketches.
        let visible_p99 = trace.client_visible_us.p99().unwrap_or(0.0);
        let service_p99 = trace.service_us.p99().unwrap_or(f64::MAX);
        assert!(visible_p99 >= service_p99);
    }

    #[test]
    fn retained_spans_round_trip_through_the_perfetto_exporter() {
        let mut spec = quick_spec(90, 17);
        spec.overload = 2.0;
        spec.trace = true;
        let report =
            serve_with_shard_target(&spec, &rbv_par::Pool::serial(), 30).expect("span serve");
        assert_eq!(report.spans.len(), report.shards as usize);
        let total: usize = report.spans.iter().map(|(_, s)| s.len()).sum();
        assert_eq!(total, 90, "one span record per finished request");
        for (_, spans) in &report.spans {
            for span in spans {
                assert_eq!(
                    span.queue + span.service + span.backoff + span.other,
                    span.finished - span.arrived,
                    "span buckets partition the lifetime"
                );
            }
        }
        let trace = rbv_trace::spans_to_perfetto(&report.spans);
        let parsed = Json::parse(&trace.to_json_string()).expect("exported JSON parses");
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents");
        let begins = events
            .iter()
            .filter(|e| {
                e.get("cat").and_then(Json::as_str) == Some("request")
                    && e.get("ph").and_then(Json::as_str) == Some("b")
            })
            .count();
        assert_eq!(begins, 90);
    }

    #[test]
    fn unfaulted_power_model_is_observation_only() {
        // The paper-default power policy never throttles an unfaulted
        // machine, so arming it must change nothing but the energy
        // member (and the flags that announce it).
        let mut powered_spec = quick_spec(100, 19);
        powered_spec.overload = 2.0;
        powered_spec.power = true;
        let mut plain_spec = powered_spec;
        plain_spec.power = false;
        let pool = rbv_par::Pool::serial();
        let powered = serve_with_shard_target(&powered_spec, &pool, 50).expect("powered");
        let plain = serve_with_shard_target(&plain_spec, &pool, 50).expect("plain");
        assert!(!plain.to_json().to_string_compact().contains("\"energy\""));
        let energy = powered.energy.clone().expect("energy member");
        assert_eq!(
            energy.core_uw_cycles.iter().sum::<u128>(),
            energy.total_uw_cycles,
            "exact conservation"
        );
        assert_eq!(energy.conservation_violations, 0);
        assert_eq!(energy.throttle_engages, 0, "unfaulted must not throttle");
        assert_eq!(energy.dvfs_transitions, 0);
        assert!(energy.total_joules() > 0.0);
        let mut stripped = powered.clone();
        stripped.energy = None;
        stripped.spec.power = false;
        assert_eq!(
            stripped.to_json().to_string_compact(),
            plain.to_json().to_string_compact()
        );
    }

    #[test]
    fn powered_thermal_ledger_is_byte_identical_across_thread_counts() {
        let mut spec = quick_spec(120, 7);
        spec.overload = 2.0;
        spec.power = true;
        spec.thermal = true;
        spec.guard = true;
        let serial =
            serve_with_shard_target(&spec, &rbv_par::Pool::serial(), 30).expect("serial serve");
        let pooled =
            serve_with_shard_target(&spec, &rbv_par::Pool::new(4), 30).expect("pooled serve");
        assert_eq!(serial.shards, 4);
        let serial_text = serial.to_json().to_string_compact();
        assert_eq!(serial_text, pooled.to_json().to_string_compact());
        assert!(serial_text.contains("\"energy\""));
        assert_eq!(serial, pooled);
        let energy = serial.energy.expect("energy member");
        assert_eq!(energy.conservation_violations, 0);
        assert_eq!(
            energy.core_uw_cycles.iter().sum::<u128>(),
            energy.total_uw_cycles
        );
    }

    #[test]
    fn thermal_without_power_is_rejected() {
        let mut spec = quick_spec(10, 1);
        spec.thermal = true;
        assert!(spec.validate().is_err());
        spec.power = true;
        assert!(spec.validate().is_ok());
    }

    proptest::proptest! {
        // Two full serves per case; keep the count modest.
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]

        /// The power-model-off bit-identity contract: a ledger served
        /// with the power model off is byte-identical to the powered,
        /// unfaulted ledger with its energy member (and flags) stripped
        /// — i.e. the power model is observation-only until a thermal
        /// fault or the capping ladder actually moves a frequency.
        #[test]
        fn power_off_ledgers_are_bit_identical_to_powered_unfaulted(
            seed in 0u64..1_000,
            requests in 40usize..120,
        ) {
            let mut powered_spec = quick_spec(requests, seed);
            powered_spec.overload = 2.5;
            powered_spec.power = true;
            let mut plain_spec = powered_spec;
            plain_spec.power = false;
            let pool = rbv_par::Pool::serial();
            let powered = serve_with_shard_target(&powered_spec, &pool, 60).expect("powered");
            let plain = serve_with_shard_target(&plain_spec, &pool, 60).expect("plain");
            let mut stripped = powered.clone();
            stripped.energy = None;
            stripped.spec.power = false;
            proptest::prop_assert_eq!(
                stripped.to_json().to_string_compact(),
                plain.to_json().to_string_compact()
            );
        }
    }

    #[test]
    fn defenses_beat_the_undefended_ablation_under_retry_storm() {
        // The acceptance comparison in miniature: at sustained overload
        // with impatient clients, armed defenses must complete at least
        // as many requests as the everything-off ablation, and the
        // undefended run must exhibit the retry storm (timeouts and
        // resubmissions) the defenses exist to contain.
        let mut defended = quick_spec(400, 23);
        defended.overload = 4.0;
        let mut undefended = defended;
        undefended.admission = false;
        undefended.shed = false;
        let pool = rbv_par::Pool::serial();
        let d = serve_with_shard_target(&defended, &pool, 400).expect("defended");
        let u = serve_with_shard_target(&undefended, &pool, 400).expect("undefended");
        assert_eq!(u.completed + u.failed(), 400);
        assert!(
            u.client_timeouts > 100 && u.client_retries > 100,
            "undefended overload should storm: {} timeouts, {} retries",
            u.client_timeouts,
            u.client_retries
        );
        assert!(
            u.wasted_cycles > 0.0,
            "aborted attempts should waste service cycles"
        );
        assert!(
            d.goodput_frac() > u.goodput_frac(),
            "defenses lost goodput: defended {:.3} <= undefended {:.3}",
            d.goodput_frac(),
            u.goodput_frac()
        );
        assert!(
            d.wasted_cycles < u.wasted_cycles,
            "defenses should waste fewer cycles than the storm"
        );
    }
}
