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
//! * The cross-machine event loop is serial per shard and picks the
//!   globally next event under a canonical ordering (pending network
//!   deliveries, then the next client arrival, then machines in index
//!   order), so a shard's event sequence is a pure function of its seed.
//! * The shard plan depends only on the request count, shard digests
//!   merge in shard order, and the serialized `rbv-cluster/v1` ledger is
//!   byte-identical at any `--threads` value.
//! * A [`ClusterTopology::Single`] run is the serve harness's open-loop
//!   engine run ([`rbv_os::run_simulation_streaming`]) with each finished
//!   request recorded as one leg and no hops. The three-tier loop steps
//!   machines through [`Machine::start`]/[`Machine::step`], which is
//!   property-tested bit-identical to [`rbv_os::run_simulation`].

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::{BTreeMap, HashMap};

use rbv_openloop::probe_mean_service;
use rbv_os::{
    easing_threshold, run_simulation, run_simulation_streaming, ArrivalProcess, CompletedRequest,
    CompletionSink, FailedRequest, Machine, RbvError, RunStats, SchedulerPolicy, SimConfig,
};
use rbv_sim::rng::{self, mix64};
use rbv_sim::{Cycles, SimRng};
use rbv_telemetry::Json;
use rbv_trace::{ClusterHopRecord, ClusterSpanRecord, TierSpanCollector, TierSummary};
use rbv_workloads::{factory_for, AppId, Component, Request, RequestFactory};

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
    /// One machine hosting every stage — the degenerate configuration
    /// whose event sequence is bit-identical to the single-machine
    /// engine ([`rbv_os::run_simulation`]) on the same config.
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
    /// Record wall-clock timing under the ledger's non-diffed
    /// `"profile"` member.
    pub wallclock: bool,
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
            wallclock: false,
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
        cfg.easing_error_gate = Some(0.35);
    }
    cfg
}

/// Simulation config for the degenerate single-machine topology: the
/// serve harness's open-loop Poisson config.
fn single_machine_config(
    spec: &ClusterSpec,
    mean_service: f64,
    shard_seed_value: u64,
    threshold: Option<f64>,
) -> SimConfig {
    let mut cfg =
        SimConfig::paper_default().with_interrupt_sampling(spec.app.sampling_period_micros());
    cfg.seed = shard_seed_value;
    let cores = cfg.machine.topology.cores as f64;
    let base_gap = (mean_service / (cores * spec.overload)).max(1.0);
    cfg.arrivals = ArrivalProcess::OpenPoisson {
        mean_interarrival: Cycles::new(base_gap.max(1.0) as u64),
    };
    if let Some(high_usage_threshold) = threshold {
        cfg.scheduler = SchedulerPolicy::ContentionEasing {
            high_usage_threshold,
        };
        cfg.easing_error_gate = Some(0.35);
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
fn split_legs(request: &Request, topology: ClusterTopology) -> PathState {
    let mut legs: Vec<Request> = Vec::new();
    let mut machines: Vec<usize> = Vec::new();
    for stage in &request.stages {
        let machine = topology.place(stage.component);
        if machines.last() == Some(&machine) {
            if let Some(leg) = legs.last_mut() {
                leg.stages.push(stage.clone());
            }
        } else {
            legs.push(Request {
                app: request.app,
                class: request.class,
                stages: vec![stage.clone()],
            });
            machines.push(machine);
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
}

/// The hop payload size in bytes — hash-derived (consumes no RNG
/// stream): 256 B to 4 KiB, a request/response envelope.
fn hop_bytes(shard_seed_value: u64, rid: u64, hop: u32) -> u64 {
    256 + mix64(shard_seed_value ^ (rid << 20) ^ (u64::from(hop) << 52)) % 3840
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

/// Records a finished engine request as leg `machine` of request `rid`:
/// its on-CPU cycles (capped at its residence) are the service share.
fn record_leg(
    collector: &mut TierSpanCollector,
    rid: u64,
    machine: usize,
    tier: &str,
    done: &CompletedRequest,
) {
    let (arrived, finished) = (done.arrived_at.get(), done.finished_at.get());
    let service = (done.cpu_cycles().round() as u64).min(finished - arrived);
    collector.leg(
        rid,
        machine as u32,
        tier,
        arrived,
        finished,
        service,
        done.request_cpi().unwrap_or(0.0),
    );
}

/// One shard's slice of the plan: its derived seed, request count, and
/// the global id of its first request.
#[derive(Debug, Clone, Copy)]
struct ShardJob {
    seed: u64,
    n: usize,
    rid_base: u64,
}

/// Runs one three-tier shard: `job.n` requests with globally unique ids
/// starting at `job.rid_base`, stepped under the canonical cross-machine
/// ordering. When `calibration` is given, per-machine L2-miss samples
/// are collected into it (the easing stock pass).
#[allow(clippy::too_many_lines)]
fn run_tier_shard(
    spec: &ClusterSpec,
    mean_service: f64,
    job: ShardJob,
    thresholds: Option<&[f64]>,
    retain: bool,
    mut calibration: Option<&mut Vec<Vec<f64>>>,
) -> Result<ShardOutput, RbvError> {
    let ShardJob {
        seed: shard_seed_value,
        n,
        rid_base,
    } = job;
    let tiers = spec.topology.tiers();
    let n_machines = tiers.len();
    let mut machines: Vec<Machine> = Vec::with_capacity(n_machines);
    let mut factories: Vec<Box<dyn RequestFactory + Send>> = Vec::with_capacity(n_machines);
    for m in 0..n_machines {
        let threshold = thresholds.and_then(|t| t.get(m).copied());
        let cfg = machine_config(spec, shard_seed_value, m, threshold);
        machines.push(Machine::new(cfg, n)?);
        // Stub factories: External machines never spawn, but the step
        // API is uniform; give each a distinct derived seed anyway.
        factories.push(factory_for(
            spec.app,
            mix64(shard_seed_value ^ (0xFAC7_0000 + m as u64)),
            spec.app.harness_scale(),
        ));
    }
    for (machine, factory) in machines.iter_mut().zip(factories.iter_mut()) {
        machine.start(factory.as_mut());
    }
    if let Some(mpi) = calibration.as_deref_mut() {
        mpi.resize_with(n_machines, Vec::new);
    }

    let cores = SimConfig::paper_default().machine.topology.cores as f64;
    let mean_gap = (mean_service / (cores * spec.overload)).max(1.0);
    let mut arrival_rng = SimRng::seed_from(mix64(shard_seed_value ^ 0xA441_73A1));
    let mut factory = factory_for(spec.app, shard_seed_value, spec.app.harness_scale());

    let mut collector = span_collector(retain);
    let mut paths: Vec<PathState> = Vec::with_capacity(n);
    let mut inflight: HashMap<(usize, usize), usize> = HashMap::new();
    // In-flight transfers keyed by `(deliver_at, rid, hop)` — the
    // canonical delivery order.
    let mut transfers: BTreeMap<(u64, u64, u32), ClusterHopRecord> = BTreeMap::new();
    let mut links = vec![vec![0u64; n_machines]; n_machines];
    let mut next_arrival: u64 = 0;
    let mut offered: usize = 0;
    let mut resolved: usize = 0;
    let mut departures: u64 = 0;
    let mut deliveries: u64 = 0;

    // Schedules the hop that carries `rid` (local index) from machine
    // `from` toward `to`, departing at `departed`.
    let send = |local: usize,
                from: usize,
                to: usize,
                departed: u64,
                paths: &mut Vec<PathState>,
                transfers: &mut BTreeMap<(u64, u64, u32), ClusterHopRecord>,
                links: &mut Vec<Vec<u64>>,
                departures: &mut u64| {
        let rid = rid_base + local as u64;
        let hop = paths[local].hops;
        paths[local].hops += 1;
        let bytes = hop_bytes(shard_seed_value, rid, hop);
        let start = departed.max(links[from][to]);
        let serialized = start + bytes * spec.network.cycles_per_byte;
        links[from][to] = serialized;
        let deliver_at = serialized + spec.network.base_latency_cycles;
        *departures += 1;
        transfers.insert(
            (deliver_at, rid, hop),
            ClusterHopRecord {
                from: from as u32,
                to: to as u32,
                departed,
                delivered: deliver_at,
                bytes,
            },
        );
    };

    while resolved < n {
        // The canonical global ordering: among the earliest pending
        // instants, network deliveries rank before the next client
        // arrival, which ranks before machine-internal events in
        // machine-index order.
        let mut best: Option<(u64, usize)> = None;
        let mut consider = |time: u64, rank: usize| {
            if best.is_none_or(|b| (time, rank) < b) {
                best = Some((time, rank));
            }
        };
        if let Some((&(at, _, _), _)) = transfers.first_key_value() {
            consider(at, 0);
        }
        if offered < n {
            consider(next_arrival, 1);
        }
        for (i, machine) in machines.iter().enumerate() {
            if let Some(t) = machine.peek_time() {
                consider(t.get(), 2 + i);
            }
        }
        let Some((_, rank)) = best else {
            return Err(RbvError::Config(format!(
                "cluster shard deadlocked with {resolved}/{n} resolved"
            )));
        };

        if rank == 0 {
            // Deliver the earliest network transfer.
            let Some((&key, _)) = transfers.first_key_value() else {
                continue;
            };
            let Some(transfer) = transfers.remove(&key) else {
                continue;
            };
            let (at, rid, _) = key;
            let to = transfer.to as usize;
            deliveries += 1;
            collector.hop(rid, transfer);
            let local = (rid - rid_base) as usize;
            if paths[local].next_leg == paths[local].legs.len() {
                // The response hop reached the frontend: client end.
                resolved += 1;
                collector.end(rid, at);
            } else {
                let leg_idx = paths[local].next_leg;
                let leg = paths[local].take_leg(leg_idx);
                let machine_local = machines[to].inject(leg, Cycles::new(at));
                inflight.insert((to, machine_local), local);
            }
        } else if rank == 1 {
            // Offer the next client request.
            let at = next_arrival;
            let local = offered;
            let rid = rid_base + local as u64;
            offered += 1;
            let request = factory.next_request();
            collector.begin(rid, at, request.app, request.class);
            let path = split_legs(&request, spec.topology);
            let first = path.machines.first().copied().unwrap_or(0);
            paths.push(path);
            if first == 0 {
                let machine_local = machines[0].inject(paths[local].take_leg(0), Cycles::new(at));
                inflight.insert((0, machine_local), local);
            } else {
                // Ingress hop: the frontend forwards the request.
                send(
                    local,
                    0,
                    first,
                    at,
                    &mut paths,
                    &mut transfers,
                    &mut links,
                    &mut departures,
                );
            }
            next_arrival = at + exp_gap(&mut arrival_rng, mean_gap);
        } else {
            // Step the machine owning the globally next event.
            let i = rank - 2;
            machines[i].step(factories[i].as_mut());
            let (completed, failed) = machines[i].drain_finished();
            for done in completed {
                let Some(local) = inflight.remove(&(i, done.id)) else {
                    return Err(RbvError::Config(format!(
                        "cluster shard: machine {i} completed unknown request {}",
                        done.id
                    )));
                };
                if let Some(mpi) = calibration.as_deref_mut() {
                    mpi[i].extend(done.l2_mpi_samples());
                }
                let rid = rid_base + local as u64;
                record_leg(&mut collector, rid, i, tiers[i], &done);
                paths[local].next_leg += 1;
                if paths[local].next_leg < paths[local].legs.len() {
                    let to = paths[local].machines[paths[local].next_leg];
                    send(
                        local,
                        i,
                        to,
                        done.finished_at.get(),
                        &mut paths,
                        &mut transfers,
                        &mut links,
                        &mut departures,
                    );
                } else if i == 0 {
                    // Final leg ran on the frontend: the client sees the
                    // completion directly, no response hop.
                    resolved += 1;
                    collector.end(rid, done.finished_at.get());
                } else {
                    // Response hop back to the frontend.
                    send(
                        local,
                        i,
                        0,
                        done.finished_at.get(),
                        &mut paths,
                        &mut transfers,
                        &mut links,
                        &mut departures,
                    );
                }
            }
            for lost in failed {
                // Unreachable in v1: External arrivals exclude every
                // failure source. Kept total so an engine change cannot
                // silently strand a request.
                let Some(local) = inflight.remove(&(i, lost.id)) else {
                    return Err(RbvError::Config(format!(
                        "cluster shard: machine {i} failed unknown request {}",
                        lost.id
                    )));
                };
                resolved += 1;
                collector.fail(rid_base + local as u64, lost.failed_at.get());
            }
        }
    }

    let (mut summary, records) = collector.into_parts();
    summary.invariants.check_request_conservation(
        offered as u64,
        summary.completed,
        summary.failed,
    );
    summary
        .invariants
        .check_hop_accounting(departures, deliveries);
    let machine_stats = machines
        .into_iter()
        .map(|m| m.finish().stats)
        .collect::<Vec<_>>();
    Ok(ShardOutput {
        summary,
        records,
        machines: machine_stats,
    })
}

/// Records a single-topology shard's finished requests as they stream
/// out of the engine: one leg on machine 0, no hops, so the partition
/// invariant degenerates to `wait + service == latency ==
/// client-visible`.
struct SingleSink {
    collector: TierSpanCollector,
    rid_base: u64,
}

impl CompletionSink for SingleSink {
    fn on_complete(&mut self, done: &CompletedRequest) {
        let rid = self.rid_base + done.id as u64;
        let tier = ClusterTopology::Single.tiers()[0];
        self.collector
            .begin(rid, done.arrived_at.get(), done.app, done.class);
        record_leg(&mut self.collector, rid, 0, tier, done);
        self.collector.end(rid, done.finished_at.get());
    }

    fn on_fail(&mut self, lost: &FailedRequest) {
        let rid = self.rid_base + lost.id as u64;
        self.collector
            .begin(rid, lost.arrived_at.get(), lost.app, lost.class);
        self.collector.fail(rid, lost.failed_at.get());
    }
}

/// Runs one single-topology shard: the machine self-spawns open-loop
/// arrivals and streams every finished request into the collector.
fn run_single_shard(
    spec: &ClusterSpec,
    mean_service: f64,
    job: ShardJob,
    threshold: Option<f64>,
) -> Result<ShardOutput, RbvError> {
    let cfg = single_machine_config(spec, mean_service, job.seed, threshold);
    let mut factory = factory_for(spec.app, job.seed, spec.app.harness_scale());
    let mut sink = SingleSink {
        collector: span_collector(spec.trace_spans),
        rid_base: job.rid_base,
    };
    let result = run_simulation_streaming(cfg, factory.as_mut(), job.n, &mut sink)?;
    let (mut summary, records) = sink.collector.into_parts();
    summary
        .invariants
        .check_request_conservation(job.n as u64, summary.completed, summary.failed);
    summary.invariants.check_hop_accounting(0, 0);
    Ok(ShardOutput {
        summary,
        records,
        machines: vec![result.stats],
    })
}

/// Runs one shard of the plan, including the easing calibration pass
/// when the spec arms easing (stock pass derives per-machine
/// thresholds; the eased pass produces the digest — shards stay
/// self-contained, the warehouse idiom).
fn run_shard(
    spec: &ClusterSpec,
    mean_service: f64,
    index: usize,
    n: usize,
    rid_base: u64,
) -> Result<ShardOutput, RbvError> {
    let seed = shard_seed(spec.seed, index);
    let job = ShardJob { seed, n, rid_base };
    match spec.topology {
        ClusterTopology::Single => {
            let threshold = if spec.easing {
                let stock = single_machine_config(spec, mean_service, seed, None);
                let mut factory = factory_for(spec.app, seed, spec.app.harness_scale());
                Some(run_simulation(stock, factory.as_mut(), n)?.easing_threshold())
            } else {
                None
            };
            run_single_shard(spec, mean_service, job, threshold)
        }
        ClusterTopology::ThreeTier => {
            let thresholds = if spec.easing {
                let mut mpi: Vec<Vec<f64>> = Vec::new();
                run_tier_shard(spec, mean_service, job, None, false, Some(&mut mpi))?;
                Some(
                    mpi.iter()
                        .map(|samples| easing_threshold(samples))
                        .collect::<Vec<_>>(),
                )
            } else {
                None
            };
            run_tier_shard(
                spec,
                mean_service,
                job,
                thresholds.as_deref(),
                spec.trace_spans,
                None,
            )
        }
    }
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
    /// Wall-clock duration, seconds; `None` keeps the ledger a pure
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
    let started = spec.wallclock.then(std::time::Instant::now);
    let mean_service = probe_mean_service(spec.app, spec.seed)?;
    let plan = rbv_par::shard_plan(spec.requests, SHARD_TARGET, MAX_SHARDS);
    let mut tasks: Vec<(usize, usize, u64)> = Vec::with_capacity(plan.len());
    let mut base = 0u64;
    for (i, &n) in plan.iter().enumerate() {
        tasks.push((i, n, base));
        base += n as u64;
    }
    let outputs = pool.ordered_map(&tasks, |&(i, n, rid_base)| {
        run_shard(spec, mean_service, i, n, rid_base)
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
    for (shard, output) in outputs.into_iter().enumerate() {
        let mut output = output?;
        output.summary.set_shard(shard as u32);
        summary.merge(&output.summary);
        for (machine, stats) in machines.iter_mut().zip(&output.machines) {
            machine.absorb(stats);
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
        wall_seconds: started.map(|t| t.elapsed().as_secs_f64()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbv_par::Pool;

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
            wallclock: false,
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
            let path = split_legs(&request, ClusterTopology::ThreeTier);
            assert_eq!(path.legs.len(), path.machines.len());
            assert!(!path.legs.is_empty());
            // Legs alternate machines: no two consecutive legs share one.
            for pair in path.machines.windows(2) {
                assert_ne!(pair[0], pair[1]);
            }
            // Stages are conserved across the split.
            let total: usize = path.legs.iter().map(|l| l.stages.len()).sum();
            assert_eq!(total, request.stages.len());
        }
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
        let report = run_cluster(&spec, &Pool::serial()).expect("run");
        assert!(report.to_json().get("profile").is_none());
        let mut spec = spec;
        spec.wallclock = true;
        let report = run_cluster(&spec, &Pool::serial()).expect("run");
        assert!(report.to_json().get("profile").is_some());
    }
}
