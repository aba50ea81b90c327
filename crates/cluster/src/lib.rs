//! Multi-tier cluster simulation for the Request Behavior Variations
//! reproduction: `repro cluster` steps several [`rbv_os::Machine`]
//! instances — a frontend, an application tier, and a database tier —
//! under one deterministic cross-machine event loop, connected by a
//! seeded latency/bandwidth network model.
//!
//! Request identity propagates across tiers: each request's stages are
//! split into per-tier *legs* (consecutive same-machine stages), every
//! leg runs on its machine as an ordinary injected request, and every
//! inter-tier transfer is a network *hop* with explicit serialization
//! and propagation delay. The loop records every request's begin, legs,
//! hops and end by direct call into [`rbv_trace::TierSpanCollector`],
//! whose reconstruction enforces the cross-tier extension of the
//! span-accounting invariant: per-tier residencies plus network hops
//! **exactly partition** each request's client-visible latency, in
//! integer cycles.
//!
//! Determinism is the same contract as the rest of the workspace:
//!
//! * A shard's events follow a canonical serial ordering (pending
//!   network deliveries, then the next client arrival, then machines in
//!   index order), so its event sequence is a pure function of its seed.
//!   The machines step side by side within network-lookahead windows,
//!   and everything shard-wide is applied in that serial order, so the
//!   bytes are those of one thread taking one event at a time (see
//!   `tier_shard`).
//! * The shard plan depends only on the request count, shard digests
//!   merge in shard order, and the serialized `rbv-cluster/v1` ledger is
//!   byte-identical at any `--threads` value.
//! * Every topology runs through the same shard loop: a
//!   [`ClusterTopology::Single`] run is a one-machine cluster whose
//!   requests are each one leg with no hops, offered the same arrivals
//!   and requests as a three-tier run of the same spec. The loop steps
//!   machines through [`rbv_os::Machine::start`]/[`rbv_os::Machine::step`],
//!   which is property-tested bit-identical to the plain engine run.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod tier_shard;

use rbv_openloop::probe_mean_service;
use rbv_os::{
    easing_threshold, pops_profile, solver_profile, ArrivalProcess, CompletedRequest, EventPops,
    RbvError, RunStats, SchedulerPolicy, SimConfig, SolverStats,
};
use rbv_sim::rng::{self, mix64};
use rbv_sim::SimRng;
use rbv_telemetry::Json;
use rbv_trace::{ClusterSpanRecord, TierSpanCollector, TierSummary};
use rbv_workloads::{AppId, Component, Request};

use tier_shard::run_tier_shard;

/// Schema tag embedded in every cluster ledger; bumped on layout changes.
pub const SCHEMA: &str = "rbv-cluster/v1";

/// Target requests per shard. Smaller than the serve harness's because a
/// three-tier shard steps three engines plus the network loop.
const SHARD_TARGET: usize = 16_384;

/// Shard-count cap (same rationale as the serve harness: the plan must
/// be independent of the worker pool).
const MAX_SHARDS: usize = 64;

/// How many machines the cluster steps and where stages land.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterTopology {
    /// One machine hosting every stage: each request is one leg and
    /// crosses no network.
    Single,
    /// Three machines: frontend (web tier + standalone stages),
    /// application tier, and database.
    ThreeTier,
}

impl ClusterTopology {
    /// Tier labels in machine-index order.
    pub fn tiers(self) -> &'static [&'static str] {
        match self {
            ClusterTopology::Single => &["standalone"],
            ClusterTopology::ThreeTier => &["frontend", "app", "db"],
        }
    }

    /// Ledger label.
    pub fn label(self) -> &'static str {
        match self {
            ClusterTopology::Single => "single",
            ClusterTopology::ThreeTier => "three-tier",
        }
    }

    /// Which machine runs a stage of the given component.
    fn place(self, component: Component) -> usize {
        match self {
            ClusterTopology::Single => 0,
            ClusterTopology::ThreeTier => match component {
                Component::WebTier | Component::Standalone => 0,
                Component::AppTier => 1,
                Component::Database => 2,
            },
        }
    }
}

/// The seeded network connecting cluster machines: every ordered
/// machine pair is an independent link with a serialization rate and a
/// propagation delay, and each link serializes one transfer at a time
/// (FIFO `busy_until` per link).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkModel {
    /// Per-hop propagation delay, cycles (added after serialization).
    pub base_latency_cycles: u64,
    /// Serialization cost per payload byte, cycles.
    pub cycles_per_byte: u64,
}

impl NetworkModel {
    /// A datacenter LAN at the simulator's 3 GHz clock: 50 µs one-way
    /// latency, ~1 Gbit/s serialization (24 cycles ≈ 8 ns per byte).
    pub fn lan() -> NetworkModel {
        NetworkModel {
            base_latency_cycles: 150_000,
            cycles_per_byte: 24,
        }
    }
}

impl Default for NetworkModel {
    fn default() -> NetworkModel {
        NetworkModel::lan()
    }
}

/// Everything `repro cluster <app>` needs to know.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSpec {
    /// Application under test.
    pub app: AppId,
    /// Total requests to offer across all shards.
    pub requests: usize,
    /// Offered load as a multiple of a *single* machine's measured
    /// capacity (the serve harness's yardstick, kept so `--overload`
    /// means the same thing in both harnesses; a three-tier cluster
    /// divides that work across machines).
    pub overload: f64,
    /// Base seed; shard seeds derive from it by SplitMix64.
    pub seed: u64,
    /// Arm the §4 contention-easing scheduler on every machine, with a
    /// per-shard threshold calibrated from a stock pass (the warehouse
    /// idiom: shards stay self-contained).
    pub easing: bool,
    /// Machine count and stage placement.
    pub topology: ClusterTopology,
    /// Link model for inter-tier hops.
    pub network: NetworkModel,
    /// Retain per-request span records for Perfetto export (memory grows
    /// with the request count — bounded runs only).
    pub trace_spans: bool,
}

impl ClusterSpec {
    /// A three-tier cluster spec with the default LAN network at 1×
    /// offered load.
    pub fn three_tier(app: AppId) -> ClusterSpec {
        ClusterSpec {
            app,
            requests: 600,
            overload: 1.0,
            seed: 42,
            easing: false,
            topology: ClusterTopology::ThreeTier,
            network: NetworkModel::lan(),
            trace_spans: false,
        }
    }

    /// Validates the spec.
    ///
    /// # Errors
    ///
    /// Returns [`RbvError::Config`] on a nonsensical spec.
    pub fn validate(&self) -> Result<(), RbvError> {
        if self.requests == 0 {
            return Err(RbvError::Config("cluster requires requests >= 1".into()));
        }
        if !self.overload.is_finite() || self.overload <= 0.0 {
            return Err(RbvError::Config(
                "cluster overload must be finite and positive".into(),
            ));
        }
        if self.network.cycles_per_byte == 0 && self.network.base_latency_cycles == 0 {
            return Err(RbvError::Config(
                "cluster network must impose some delay (zero-cost links would \
                 collapse hop attribution)"
                    .into(),
            ));
        }
        Ok(())
    }
}

/// The shard seed for shard `index` under the cluster harness's salt.
pub fn shard_seed(seed: u64, index: usize) -> u64 {
    rng::shard_seed(seed, 0xC105_7E12, index)
}

/// Exponential gap draw, mirroring the engine's open-loop arrival
/// sampler (floored at one cycle).
fn exp_gap(rng: &mut SimRng, mean: f64) -> u64 {
    use rand::Rng;
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    (-mean * u.ln()).max(1.0) as u64
}

/// Simulation config for one cluster machine running under external
/// arrivals (the cluster loop injects every request).
fn machine_config(
    spec: &ClusterSpec,
    shard_seed_value: u64,
    machine: usize,
    threshold: Option<f64>,
) -> SimConfig {
    let mut cfg =
        SimConfig::paper_default().with_interrupt_sampling(spec.app.sampling_period_micros());
    cfg.seed = mix64(shard_seed_value ^ (0xFEED_0000 + machine as u64));
    cfg.arrivals = ArrivalProcess::External;
    if let Some(high_usage_threshold) = threshold {
        cfg.scheduler = SchedulerPolicy::ContentionEasing {
            high_usage_threshold,
        };
        cfg.easing_error_gate = true;
    }
    cfg
}

/// A request's path through the cluster: its per-tier legs (sub-requests
/// of consecutive same-machine stages) and which machine runs each.
struct PathState {
    legs: Vec<Request>,
    machines: Vec<usize>,
    next_leg: usize,
    hops: u32,
}

impl PathState {
    /// For each machine the path visits after leg `leg`: the machine and
    /// the hops from leg `leg` to its first visit there.
    fn visits_after(&self, leg: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        let later = self.machines.get(leg + 1..).unwrap_or_default();
        later
            .iter()
            .enumerate()
            .filter(|&(i, m)| !later[..i].contains(m))
            .map(|(i, &m)| (m, i + 1))
    }

    /// Moves leg `idx` out for injection. Each leg is injected exactly
    /// once, so its slot keeps only an empty stage list and `legs.len()`
    /// still counts the path's legs.
    fn take_leg(&mut self, idx: usize) -> Request {
        let leg = &mut self.legs[idx];
        Request {
            app: leg.app,
            class: leg.class,
            stages: std::mem::take(&mut leg.stages),
        }
    }
}

/// Splits a request's stages into per-tier legs under the topology's
/// placement. Consecutive stages on the same machine stay one leg, so a
/// leg is itself a well-formed [`Request`].
fn split_legs(request: Request, topology: ClusterTopology) -> PathState {
    let mut legs: Vec<Request> = Vec::new();
    let mut machines: Vec<usize> = Vec::new();
    for stage in request.stages {
        let machine = topology.place(stage.component);
        match legs.last_mut() {
            Some(leg) if machines.last() == Some(&machine) => leg.stages.push(stage),
            _ => {
                legs.push(Request {
                    app: request.app,
                    class: request.class,
                    stages: vec![stage],
                });
                machines.push(machine);
            }
        }
    }
    PathState {
        legs,
        machines,
        next_leg: 0,
        hops: 0,
    }
}

/// Per-machine engine totals surfaced in the ledger.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MachineTotals {
    /// Machine index.
    pub machine: u32,
    /// Tier label.
    pub tier: String,
    /// Discrete events the machine's engine processed, across shards.
    pub engine_events: u64,
    /// Involuntary context switches, across shards.
    pub context_switches: u64,
}

impl MachineTotals {
    fn absorb(&mut self, stats: &RunStats) {
        self.engine_events += stats.engine_events;
        self.context_switches += stats.context_switches;
    }
}

/// One shard's digest, merged in shard order by [`run_cluster`].
struct ShardOutput {
    summary: TierSummary,
    records: Vec<ClusterSpanRecord>,
    machines: Vec<RunStats>,
    /// How each pass was stepped, in pass order.
    passes: Vec<PassWindows>,
    /// Contention-model solves of every pass, calibration included.
    solver: SolverStats,
    /// Engine events by kind of every pass, calibration included.
    pops: EventPops,
    /// Passive syscalls crossed in every pass, calibration included.
    crossings: u64,
}

impl ShardOutput {
    /// One pass's output, `machines` in machine order. Each machine's
    /// unconverged contention solves become violations of the summary's
    /// invariants.
    fn new(
        mut summary: TierSummary,
        records: Vec<ClusterSpanRecord>,
        machines: Vec<RunStats>,
        passes: Vec<PassWindows>,
    ) -> ShardOutput {
        let mut solver = SolverStats::default();
        let mut pops = EventPops::default();
        let mut crossings = 0;
        for (machine, stats) in machines.iter().enumerate() {
            summary
                .invariants
                .record_unconverged_solves(machine as u32, stats.solver.unconverged);
            solver.merge(&stats.solver);
            pops.merge(&stats.pops);
            crossings += stats.crossings;
        }
        ShardOutput {
            summary,
            records,
            machines,
            passes,
            solver,
            pops,
            crossings,
        }
    }
}

/// A tier span collector, retaining span records for Perfetto export
/// when `retain` is set.
fn span_collector(retain: bool) -> TierSpanCollector {
    if retain {
        TierSpanCollector::retaining()
    } else {
        TierSpanCollector::new()
    }
}

/// What the collector records of one finished leg: its residence on the
/// machine, and its on-CPU cycles (capped at that residence) as the
/// service share.
#[derive(Debug, Clone, Copy)]
struct LegTimes {
    arrived: u64,
    finished: u64,
    service: u64,
    cpi: f64,
}

impl LegTimes {
    fn of(done: &CompletedRequest) -> LegTimes {
        let (arrived, finished) = (done.arrived_at.get(), done.finished_at.get());
        LegTimes {
            arrived,
            finished,
            service: (done.cpu_cycles().round() as u64).min(finished - arrived),
            cpi: done.request_cpi().unwrap_or(0.0),
        }
    }

    /// Records the leg as machine `machine`'s leg of request `rid`.
    fn record(self, collector: &mut TierSpanCollector, rid: u64, machine: usize, tier: &str) {
        collector.leg(
            rid,
            machine as u32,
            tier,
            self.arrived,
            self.finished,
            self.service,
            self.cpi,
        );
    }
}

/// One shard's slice of the plan: its derived seed, request count, and
/// the global id of its first request.
#[derive(Debug, Clone, Copy)]
struct ShardJob {
    seed: u64,
    n: usize,
    rid_base: u64,
}

/// How one pass over a plan was stepped: how many machine events ran
/// inside lookahead windows (machines side by side) and how many ran one
/// at a time in the serial tail. Summed over shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassWindows {
    /// `"calibration"` (the easing stock pass) or `"run"` (the pass the
    /// ledger reports).
    pub pass: &'static str,
    /// Lookahead windows stepped.
    pub windows: u64,
    /// Machine events stepped inside those windows.
    pub window_events: u64,
    /// Machine events stepped one at a time after the last window.
    pub serial_tail_events: u64,
}

impl PassWindows {
    fn absorb(&mut self, other: &PassWindows) {
        self.pass = other.pass;
        self.windows += other.windows;
        self.window_events += other.window_events;
        self.serial_tail_events += other.serial_tail_events;
    }
}

/// Runs one shard of the plan, including the easing calibration pass
/// when the spec arms easing (stock pass derives per-machine
/// thresholds; the eased pass produces the digest — shards stay
/// self-contained, the warehouse idiom). The shard steps its machines
/// on up to `lanes` threads.
fn run_shard(
    spec: &ClusterSpec,
    mean_service: f64,
    index: usize,
    n: usize,
    rid_base: u64,
    lanes: usize,
) -> Result<ShardOutput, RbvError> {
    let seed = shard_seed(spec.seed, index);
    let job = ShardJob { seed, n, rid_base };
    let stock = if spec.easing {
        let mut mpi: Vec<Vec<f64>> = Vec::new();
        let stock = run_tier_shard(spec, mean_service, job, None, false, lanes, Some(&mut mpi))?;
        stock_pass_checks(&stock.summary, n, index)?;
        let thresholds: Vec<f64> = mpi
            .iter()
            .map(|samples| easing_threshold(samples))
            .collect();
        Some((stock, thresholds))
    } else {
        None
    };
    let thresholds = stock.as_ref().map(|(_, t)| t.as_slice());
    let mut output = run_tier_shard(
        spec,
        mean_service,
        job,
        thresholds,
        spec.trace_spans,
        lanes,
        None,
    )?;
    if let Some((stock, _)) = stock {
        let calibration = stock.passes.into_iter().map(|pass| PassWindows {
            pass: "calibration",
            ..pass
        });
        output.passes.splice(0..0, calibration);
        output.solver.merge(&stock.solver);
        output.pops.merge(&stock.pops);
        output.crossings += stock.crossings;
    }
    Ok(output)
}

/// The easing stock pass's own digest must be clean before its samples
/// calibrate anything: every request resolved, nothing unfinished, and
/// no request-conservation, hop-accounting or partition violation.
fn stock_pass_checks(summary: &TierSummary, n: usize, shard: usize) -> Result<(), RbvError> {
    let problem = if let Some(detail) = summary.invariants.first_violation() {
        detail.to_string()
    } else if summary.unfinished != 0 || summary.completed + summary.failed != n as u64 {
        format!(
            "{} completed + {} failed of {n} requests, {} unfinished",
            summary.completed, summary.failed, summary.unfinished
        )
    } else {
        return Ok(());
    };
    Err(RbvError::Config(format!(
        "cluster shard {shard}: easing calibration pass is not clean: {problem}"
    )))
}

/// The merged outcome of a cluster run: the cross-tier attribution
/// summary, per-machine engine totals, and (optionally) retained span
/// records for Perfetto export.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// The spec that produced this report.
    pub spec: ClusterSpec,
    /// Shards in the plan.
    pub shards: u64,
    /// Probed mean per-request service cycles (the load yardstick).
    pub mean_service_cycles: f64,
    /// Merged cross-tier attribution (tiers, network, client-visible
    /// latency, invariants, top-k).
    pub summary: TierSummary,
    /// Per-machine engine totals across shards, machine-index order.
    pub machines: Vec<MachineTotals>,
    /// Retained span records (empty unless the spec traced spans),
    /// shard-stamped, sorted by `(shard, rid)`.
    pub spans: Vec<ClusterSpanRecord>,
    /// How each pass was stepped (calibration first when easing is on),
    /// summed over shards. Reported only under the ledger's non-diffed
    /// `"profile"` member.
    pub passes: Vec<PassWindows>,
    /// Contention-model solves of every pass and machine, summed over
    /// shards. Reported only under the `"profile"` member.
    pub solver: SolverStats,
    /// Engine events by kind, live and stale, of every pass and machine,
    /// summed over shards. Reported only under the `"profile"` member.
    pub pops: EventPops,
    /// Passive syscalls recorded in passing (not as engine events) in
    /// every pass and machine, summed over shards. Reported only under
    /// the `"profile"` member.
    pub crossings: u64,
    /// Wall-clock duration, seconds, set by a caller that timed the run;
    /// `None` (as [`run_cluster`] leaves it) keeps the ledger a pure
    /// function of the spec.
    pub wall_seconds: Option<f64>,
}

impl ClusterReport {
    /// Whether the run drained cleanly: every offered request resolved,
    /// nothing unfinished, zero invariant violations.
    pub fn clean(&self) -> bool {
        self.summary.invariants.violations() == 0
            && self.summary.unfinished == 0
            && self.summary.completed + self.summary.failed == self.spec.requests as u64
    }

    /// Machine labels for [`rbv_trace::cluster_to_perfetto`].
    pub fn machine_labels(&self) -> Vec<(u32, String)> {
        self.machines
            .iter()
            .map(|m| (m.machine, m.tier.clone()))
            .collect()
    }

    /// Serializes the `rbv-cluster/v1` ledger. Key order is fixed and
    /// wall-clock fields are segregated under `"profile"` (absent unless
    /// recorded), so the document is byte-identical at any thread count.
    pub fn to_json(&self) -> Json {
        let num = Json::Num;
        let mut members = vec![
            ("schema".into(), Json::str(SCHEMA)),
            ("app".into(), Json::str(self.spec.app.to_string())),
            ("seed".into(), num(self.spec.seed as f64)),
            ("requests".into(), num(self.spec.requests as f64)),
            ("overload".into(), num(self.spec.overload)),
            ("topology".into(), Json::str(self.spec.topology.label())),
            ("easing".into(), Json::Bool(self.spec.easing)),
            ("shards".into(), num(self.shards as f64)),
            ("mean_service_cycles".into(), num(self.mean_service_cycles)),
            (
                "network".into(),
                Json::Obj(vec![
                    (
                        "base_latency_cycles".into(),
                        num(self.spec.network.base_latency_cycles as f64),
                    ),
                    (
                        "cycles_per_byte".into(),
                        num(self.spec.network.cycles_per_byte as f64),
                    ),
                ]),
            ),
            (
                "machines".into(),
                Json::Arr(
                    self.machines
                        .iter()
                        .map(|m| {
                            Json::Obj(vec![
                                ("machine".into(), num(f64::from(m.machine))),
                                ("tier".into(), Json::str(m.tier.clone())),
                                ("engine_events".into(), num(m.engine_events as f64)),
                                ("context_switches".into(), num(m.context_switches as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("trace".into(), self.summary.to_json()),
        ];
        if let Some(wall) = self.wall_seconds {
            members.push((
                "profile".into(),
                Json::Obj(vec![
                    ("wall_seconds".into(), num(wall)),
                    (
                        "sim_requests_per_wall_second".into(),
                        num(if wall > 0.0 {
                            self.spec.requests as f64 / wall
                        } else {
                            0.0
                        }),
                    ),
                    (
                        "passes".into(),
                        Json::Arr(
                            self.passes
                                .iter()
                                .map(|p| {
                                    Json::Obj(vec![
                                        ("pass".into(), Json::str(p.pass)),
                                        ("windows".into(), num(p.windows as f64)),
                                        ("window_events".into(), num(p.window_events as f64)),
                                        (
                                            "serial_tail_events".into(),
                                            num(p.serial_tail_events as f64),
                                        ),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    ("solver".into(), solver_profile(&self.solver)),
                    ("events".into(), pops_profile(&self.pops)),
                    ("crossings".into(), num(self.crossings as f64)),
                ]),
            ));
        }
        Json::Obj(members)
    }

    /// Human-readable per-tier attribution table (the `repro cluster`
    /// stderr report).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let q = |s: &rbv_telemetry::QuantileSketch, q: f64| s.quantile(q).unwrap_or(0.0);
        let _ = writeln!(
            out,
            "cluster {} · {} · {} requests · {:.2}x load · seed {}{}",
            self.spec.topology.label(),
            self.spec.app,
            self.spec.requests,
            self.spec.overload,
            self.spec.seed,
            if self.spec.easing { " · easing" } else { "" },
        );
        let _ = writeln!(
            out,
            "  resolved: {} completed, {} failed ({} shards)",
            self.summary.completed, self.summary.failed, self.shards
        );
        let _ = writeln!(
            out,
            "  {:<10} {:>6} {:>12} {:>12} {:>12} {:>8}",
            "tier", "legs", "wait p99 µs", "svc p99 µs", "leg p99 µs", "cpi p50"
        );
        for tier in &self.summary.tiers {
            let _ = writeln!(
                out,
                "  {:<10} {:>6} {:>12.1} {:>12.1} {:>12.1} {:>8.2}",
                tier.tier,
                tier.legs,
                q(&tier.wait_us, 0.99),
                q(&tier.service_us, 0.99),
                q(&tier.leg_us, 0.99),
                q(&tier.cpi, 0.5),
            );
        }
        let _ = writeln!(
            out,
            "  network: {} hops, {} B total, hop p50/p99 {:.1}/{:.1} µs",
            self.summary.hops,
            self.summary.hop_bytes,
            q(&self.summary.hop_us, 0.5),
            q(&self.summary.hop_us, 0.99),
        );
        let _ = writeln!(
            out,
            "  client-visible p50/p99: {:.1}/{:.1} µs",
            q(&self.summary.client_visible_us, 0.5),
            q(&self.summary.client_visible_us, 0.99),
        );
        let _ = writeln!(
            out,
            "  invariants: {} checks, {} violations",
            self.summary.invariants.checks(),
            self.summary.invariants.violations(),
        );
        if let Some(detail) = self.summary.invariants.first_violation() {
            let _ = writeln!(out, "  FIRST VIOLATION: {detail}");
        }
        out
    }
}

/// Runs the full cluster campaign: probe capacity, fan the fixed shard
/// plan over `pool`, and merge digests in shard order.
///
/// # Example
///
/// ```
/// use rbv_cluster::{run_cluster, ClusterSpec};
/// use rbv_workloads::AppId;
///
/// let mut spec = ClusterSpec::three_tier(AppId::Tpcc);
/// spec.requests = 12;
/// let report = run_cluster(&spec, &rbv_par::Pool::serial()).unwrap();
/// assert_eq!(report.summary.completed, 12);
/// // Every request's tier legs + network hops exactly partitioned its
/// // client-visible latency.
/// assert!(report.clean());
/// ```
///
/// # Errors
///
/// Propagates [`RbvError`] from validation, the probe, or any shard
/// (first shard in plan order wins, deterministically).
pub fn run_cluster(spec: &ClusterSpec, pool: &rbv_par::Pool) -> Result<ClusterReport, RbvError> {
    spec.validate()?;
    let mean_service = probe_mean_service(spec.app, spec.seed)?;
    let plan = rbv_par::shard_plan(spec.requests, SHARD_TARGET, MAX_SHARDS);
    let mut tasks: Vec<(usize, usize, u64)> = Vec::with_capacity(plan.len());
    let mut base = 0u64;
    for (i, &n) in plan.iter().enumerate() {
        tasks.push((i, n, base));
        base += n as u64;
    }
    // Each shard steps its machines on its share of the pool's threads,
    // capped at the host's CPUs and at the topology's machines: waiting
    // lanes spin, so oversubscribing only slows the run. The bytes do
    // not depend on the lane count.
    let threads = pool.threads().min(rbv_par::available_parallelism());
    let lanes = (threads / plan.len()).clamp(1, spec.topology.tiers().len());
    let outputs = pool.ordered_map(&tasks, |&(i, n, rid_base)| {
        run_shard(spec, mean_service, i, n, rid_base, lanes)
    });
    let mut summary = TierSummary::default();
    let mut machines: Vec<MachineTotals> = spec
        .topology
        .tiers()
        .iter()
        .enumerate()
        .map(|(i, tier)| MachineTotals {
            machine: i as u32,
            tier: (*tier).to_string(),
            ..MachineTotals::default()
        })
        .collect();
    let mut spans = Vec::new();
    let mut passes: Vec<PassWindows> = Vec::new();
    let mut solver = SolverStats::default();
    let mut pops = EventPops::default();
    let mut crossings = 0;
    for (shard, output) in outputs.into_iter().enumerate() {
        let mut output = output?;
        output.summary.set_shard(shard as u32);
        summary.merge(&output.summary);
        solver.merge(&output.solver);
        pops.merge(&output.pops);
        crossings += output.crossings;
        for (machine, stats) in machines.iter_mut().zip(&output.machines) {
            machine.absorb(stats);
        }
        passes.resize_with(output.passes.len(), PassWindows::default);
        for (total, pass) in passes.iter_mut().zip(&output.passes) {
            total.absorb(pass);
        }
        for mut record in output.records {
            record.shard = shard as u32;
            spans.push(record);
        }
    }
    // Backfill tier labels for machines no leg ever landed on, so the
    // ledger always names the full topology.
    {
        let tiers = spec.topology.tiers();
        if summary.tiers.len() < tiers.len() {
            summary
                .tiers
                .resize_with(tiers.len(), rbv_trace::TierStats::default);
        }
        for (i, stats) in summary.tiers.iter_mut().enumerate() {
            if stats.tier.is_empty() {
                stats.machine = i as u32;
                if let Some(label) = tiers.get(i) {
                    stats.tier = (*label).to_string();
                }
            }
        }
    }
    Ok(ClusterReport {
        spec: *spec,
        shards: plan.len() as u64,
        mean_service_cycles: mean_service,
        summary,
        machines,
        spans,
        passes,
        solver,
        pops,
        crossings,
        wall_seconds: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbv_par::Pool;
    use rbv_workloads::factory_for;

    fn small_spec(app: AppId, topology: ClusterTopology) -> ClusterSpec {
        ClusterSpec {
            app,
            requests: 40,
            overload: 1.0,
            seed: 7,
            easing: false,
            topology,
            network: NetworkModel::lan(),
            trace_spans: false,
        }
    }

    #[test]
    fn validate_rejects_nonsense() {
        let mut spec = small_spec(AppId::Tpcc, ClusterTopology::ThreeTier);
        spec.requests = 0;
        assert!(spec.validate().is_err());
        let mut spec = small_spec(AppId::Tpcc, ClusterTopology::ThreeTier);
        spec.overload = 0.0;
        assert!(spec.validate().is_err());
        let mut spec = small_spec(AppId::Tpcc, ClusterTopology::ThreeTier);
        spec.network = NetworkModel {
            base_latency_cycles: 0,
            cycles_per_byte: 0,
        };
        assert!(spec.validate().is_err());
    }

    #[test]
    fn split_legs_merges_consecutive_stages() {
        let mut factory = factory_for(AppId::Rubis, 3, 1.0);
        for _ in 0..32 {
            let request = factory.next_request();
            let stages = request.stages.len();
            let path = split_legs(request, ClusterTopology::ThreeTier);
            assert_eq!(path.legs.len(), path.machines.len());
            assert!(!path.legs.is_empty());
            // Legs alternate machines: no two consecutive legs share one.
            for pair in path.machines.windows(2) {
                assert_ne!(pair[0], pair[1]);
            }
            // Stages are conserved across the split.
            let total: usize = path.legs.iter().map(|l| l.stages.len()).sum();
            assert_eq!(total, stages);
        }
    }

    #[test]
    fn visits_after_counts_hops_to_each_first_later_visit() {
        let path = PathState {
            legs: Vec::new(),
            machines: vec![0, 1, 2, 1, 0],
            next_leg: 0,
            hops: 0,
        };
        let visits = |leg: usize| path.visits_after(leg).collect::<Vec<_>>();
        assert_eq!(visits(0), vec![(1, 1), (2, 2), (0, 4)]);
        assert_eq!(visits(1), vec![(2, 1), (1, 2), (0, 3)]);
        assert_eq!(visits(4), vec![]);
        assert_eq!(visits(5), vec![]);
    }

    #[test]
    fn three_tier_tpcc_partitions_latency_exactly() {
        let spec = small_spec(AppId::Tpcc, ClusterTopology::ThreeTier);
        let report = run_cluster(&spec, &Pool::serial()).expect("cluster run");
        assert!(report.clean(), "{:?}", report.summary.invariants);
        assert_eq!(report.summary.completed, 40);
        assert_eq!(report.summary.failed, 0);
        // TPC-C stages run on the database: every request crosses the
        // network twice (ingress + response).
        assert_eq!(report.summary.hops, 80);
        let db = &report.summary.tiers[2];
        assert_eq!(db.legs, 40);
        assert!(report.summary.invariants.checks() > 0);
    }

    #[test]
    fn web_stays_on_the_frontend() {
        let spec = small_spec(AppId::WebServer, ClusterTopology::ThreeTier);
        let report = run_cluster(&spec, &Pool::serial()).expect("cluster run");
        assert!(report.clean());
        assert_eq!(report.summary.hops, 0);
        assert_eq!(report.summary.tiers[0].legs, 40);
    }

    #[test]
    fn rubis_crosses_all_three_tiers() {
        let spec = small_spec(AppId::Rubis, ClusterTopology::ThreeTier);
        let report = run_cluster(&spec, &Pool::serial()).expect("cluster run");
        assert!(report.clean(), "{:?}", report.summary.invariants);
        assert!(report.summary.tiers.iter().all(|t| t.legs > 0));
        assert!(report.summary.hops >= 3 * 40);
    }

    #[test]
    fn ledger_is_thread_count_invariant() {
        let mut spec = small_spec(AppId::Tpcc, ClusterTopology::ThreeTier);
        spec.requests = 60;
        let serial = run_cluster(&spec, &Pool::serial()).expect("serial");
        let threaded = run_cluster(&spec, &Pool::new(4)).expect("threaded");
        assert_eq!(
            serial.to_json().to_string_compact(),
            threaded.to_json().to_string_compact()
        );
    }

    #[test]
    fn easing_runs_and_stays_clean() {
        let mut spec = small_spec(AppId::Tpcc, ClusterTopology::ThreeTier);
        spec.easing = true;
        let report = run_cluster(&spec, &Pool::serial()).expect("eased run");
        assert!(report.clean(), "{:?}", report.summary.invariants);
    }

    #[test]
    fn retained_spans_feed_perfetto() {
        let mut spec = small_spec(AppId::Tpcc, ClusterTopology::ThreeTier);
        spec.trace_spans = true;
        let report = run_cluster(&spec, &Pool::serial()).expect("traced run");
        assert_eq!(report.spans.len(), 40);
        let trace = rbv_trace::cluster_to_perfetto(&report.spans, &report.machine_labels());
        assert!(!trace.to_json_string().is_empty());
    }

    #[test]
    fn single_topology_reports_one_machine() {
        let spec = small_spec(AppId::Tpcc, ClusterTopology::Single);
        let report = run_cluster(&spec, &Pool::serial()).expect("single run");
        assert!(report.clean());
        assert_eq!(report.machines.len(), 1);
        assert_eq!(report.summary.hops, 0);
        assert_eq!(report.summary.tiers[0].tier, "standalone");
    }

    #[test]
    fn profile_member_is_opt_in() {
        let spec = small_spec(AppId::Tpcc, ClusterTopology::Single);
        let mut report = run_cluster(&spec, &Pool::serial()).expect("run");
        assert!(report.to_json().get("profile").is_none());
        // A caller that timed the run sets the wall time.
        report.wall_seconds = Some(0.5);
        assert!(report.to_json().get("profile").is_some());
    }
}
