//! Lookahead-window identity gate.
//!
//! A cluster shard steps its machines side by side within
//! network-lookahead windows and replays the shard-wide bookkeeping in
//! the serial loop's global order. This file keeps the serial loop the
//! windows replaced — one globally next event at a time under the
//! canonical ordering (network deliveries, then the next client arrival,
//! then machines in index order) — as a test-only reference, and
//! requires the `rbv-cluster/v1` ledger and the retained spans of every
//! run to be byte-equal to it across topologies, applications, easing,
//! network models and pool sizes. It also pins that the topologies
//! differ only in placement: a one-box run and a three-tier run of one
//! spec are offered the same requests at the same instants.

use std::collections::{BTreeMap, HashMap};

use rbv_cluster::{
    run_cluster, shard_seed, ClusterReport, ClusterSpec, ClusterTopology, MachineTotals,
    NetworkModel,
};
use rbv_os::{
    easing_threshold, ArrivalProcess, CompletedRequest, EventPops, Machine, RunStats,
    SchedulerPolicy, SimConfig, SolverStats,
};
use rbv_par::Pool;
use rbv_sim::rng::mix64;
use rbv_sim::{Cycles, SimRng};
use rbv_trace::{ClusterHopRecord, ClusterSpanRecord, TierSpanCollector, TierSummary};
use rbv_workloads::{factory_for, AppId, Component, Request, RequestFactory};

/// The serial cross-machine loop, as the cluster ran it before windows.
mod serial {
    use super::*;

    fn exp_gap(rng: &mut SimRng, mean: f64) -> u64 {
        use rand::Rng;
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        (-mean * u.ln()).max(1.0) as u64
    }

    fn place(topology: ClusterTopology, component: Component) -> usize {
        match (topology, component) {
            (ClusterTopology::Single, _) => 0,
            (_, Component::WebTier | Component::Standalone) => 0,
            (_, Component::AppTier) => 1,
            (_, Component::Database) => 2,
        }
    }

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

    struct PathState {
        legs: Vec<Request>,
        machines: Vec<usize>,
        next_leg: usize,
        hops: u32,
    }

    fn split_legs(request: &Request, topology: ClusterTopology) -> PathState {
        let mut legs: Vec<Request> = Vec::new();
        let mut machines: Vec<usize> = Vec::new();
        for stage in &request.stages {
            let machine = place(topology, stage.component);
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

    fn take_leg(path: &mut PathState, idx: usize) -> Request {
        let leg = &mut path.legs[idx];
        Request {
            app: leg.app,
            class: leg.class,
            stages: std::mem::take(&mut leg.stages),
        }
    }

    fn hop_bytes(shard_seed_value: u64, rid: u64, hop: u32) -> u64 {
        256 + mix64(shard_seed_value ^ (rid << 20) ^ (u64::from(hop) << 52)) % 3840
    }

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

    struct ShardOutput {
        summary: TierSummary,
        records: Vec<ClusterSpanRecord>,
        machines: Vec<RunStats>,
        /// Network deliveries due at the same cycle as the next client
        /// arrival: the tie the canonical order breaks delivery first.
        ties: u64,
    }

    #[allow(clippy::too_many_lines)]
    fn run_tier_shard(
        spec: &ClusterSpec,
        mean_service: f64,
        (shard_seed_value, n, rid_base): (u64, usize, u64),
        thresholds: Option<&[f64]>,
        retain: bool,
        mut calibration: Option<&mut Vec<Vec<f64>>>,
    ) -> ShardOutput {
        let tiers = spec.topology.tiers();
        let n_machines = tiers.len();
        let mut machines: Vec<Machine> = Vec::new();
        let mut factories: Vec<Box<dyn RequestFactory + Send>> = Vec::new();
        for m in 0..n_machines {
            let threshold = thresholds.and_then(|t| t.get(m).copied());
            let cfg = machine_config(spec, shard_seed_value, m, threshold);
            machines.push(Machine::new(cfg, n).expect("valid machine config"));
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

        let mut collector = if retain {
            TierSpanCollector::retaining()
        } else {
            TierSpanCollector::new()
        };
        let mut paths: Vec<PathState> = Vec::new();
        let mut inflight: HashMap<(usize, usize), usize> = HashMap::new();
        let mut transfers: BTreeMap<(u64, u64, u32), ClusterHopRecord> = BTreeMap::new();
        let mut links = vec![vec![0u64; n_machines]; n_machines];
        let (mut next_arrival, mut offered, mut resolved) = (0u64, 0usize, 0usize);
        let (mut departures, mut deliveries) = (0u64, 0u64);
        let mut ties = 0u64;

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
            let (_, rank) = best.expect("the serial loop never deadlocks");

            if rank == 0 {
                let (key, transfer) = transfers.pop_first().expect("a pending transfer");
                let (at, rid, _) = key;
                ties += u64::from(offered < n && next_arrival == at);
                let to = transfer.to as usize;
                deliveries += 1;
                collector.hop(rid, transfer);
                let local = (rid - rid_base) as usize;
                if paths[local].next_leg == paths[local].legs.len() {
                    resolved += 1;
                    collector.end(rid, at);
                } else {
                    let leg_idx = paths[local].next_leg;
                    let leg = take_leg(&mut paths[local], leg_idx);
                    let machine_local = machines[to].inject(leg, Cycles::new(at));
                    inflight.insert((to, machine_local), local);
                }
            } else if rank == 1 {
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
                    let leg = take_leg(&mut paths[local], 0);
                    let machine_local = machines[0].inject(leg, Cycles::new(at));
                    inflight.insert((0, machine_local), local);
                } else {
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
                let i = rank - 2;
                machines[i].step(factories[i].as_mut());
                let (completed, failed) = machines[i].drain_finished();
                for done in completed {
                    let local = inflight.remove(&(i, done.id)).expect("a known request");
                    if let Some(mpi) = calibration.as_deref_mut() {
                        mpi[i].extend(done.l2_mpi_samples());
                    }
                    let rid = rid_base + local as u64;
                    record_leg(&mut collector, rid, i, tiers[i], &done);
                    paths[local].next_leg += 1;
                    let finished = done.finished_at.get();
                    if paths[local].next_leg < paths[local].legs.len() {
                        let to = paths[local].machines[paths[local].next_leg];
                        send(
                            local,
                            i,
                            to,
                            finished,
                            &mut paths,
                            &mut transfers,
                            &mut links,
                            &mut departures,
                        );
                    } else if i == 0 {
                        resolved += 1;
                        collector.end(rid, finished);
                    } else {
                        send(
                            local,
                            i,
                            0,
                            finished,
                            &mut paths,
                            &mut transfers,
                            &mut links,
                            &mut departures,
                        );
                    }
                }
                for lost in failed {
                    let local = inflight.remove(&(i, lost.id)).expect("a known request");
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
        let machines: Vec<RunStats> = machines.into_iter().map(|m| m.finish().stats).collect();
        for (machine, stats) in machines.iter().enumerate() {
            summary
                .invariants
                .record_unconverged_solves(machine as u32, stats.solver.unconverged);
        }
        ShardOutput {
            summary,
            records,
            machines,
            ties,
        }
    }

    /// `run_cluster` with every shard on the serial loop, and the
    /// delivery-arrival ties its passes broke.
    pub fn run_cluster(spec: &ClusterSpec) -> (ClusterReport, u64) {
        let mean_service = rbv_openloop::probe_mean_service(spec.app, spec.seed).expect("probe");
        let plan = rbv_par::shard_plan(spec.requests, 16_384, 64);
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
        let mut rid_base = 0u64;
        let mut solver = SolverStats::default();
        let mut pops = EventPops::default();
        let mut crossings = 0u64;
        let mut ties = 0u64;
        for (shard, &n) in plan.iter().enumerate() {
            let job = (shard_seed(spec.seed, shard), n, rid_base);
            rid_base += n as u64;
            let thresholds = spec.easing.then(|| {
                let mut mpi = Vec::new();
                let stock = run_tier_shard(spec, mean_service, job, None, false, Some(&mut mpi));
                ties += stock.ties;
                for stats in &stock.machines {
                    solver.merge(&stats.solver);
                    pops.merge(&stats.pops);
                    crossings += stats.crossings;
                }
                mpi.iter()
                    .map(|samples| easing_threshold(samples))
                    .collect::<Vec<_>>()
            });
            let mut output = run_tier_shard(
                spec,
                mean_service,
                job,
                thresholds.as_deref(),
                spec.trace_spans,
                None,
            );
            output.summary.set_shard(shard as u32);
            summary.merge(&output.summary);
            ties += output.ties;
            for (totals, stats) in machines.iter_mut().zip(&output.machines) {
                totals.engine_events += stats.engine_events;
                totals.context_switches += stats.context_switches;
                solver.merge(&stats.solver);
                pops.merge(&stats.pops);
                crossings += stats.crossings;
            }
            for mut record in output.records {
                record.shard = shard as u32;
                spans.push(record);
            }
        }
        let tiers = spec.topology.tiers();
        if summary.tiers.len() < tiers.len() {
            summary
                .tiers
                .resize_with(tiers.len(), rbv_trace::TierStats::default);
        }
        for (i, stats) in summary.tiers.iter_mut().enumerate() {
            if stats.tier.is_empty() {
                stats.machine = i as u32;
                stats.tier = tiers[i].to_string();
            }
        }
        let report = ClusterReport {
            spec: *spec,
            shards: plan.len() as u64,
            mean_service_cycles: mean_service,
            summary,
            machines,
            spans,
            passes: Vec::new(),
            solver,
            pops,
            crossings,
            wall_seconds: None,
        };
        (report, ties)
    }
}

fn spans_json(report: &ClusterReport) -> String {
    rbv_trace::cluster_to_perfetto(&report.spans, &report.machine_labels()).to_json_string()
}

#[test]
fn windowed_shards_match_the_serial_loop_byte_for_byte() {
    let networks = [
        NetworkModel {
            base_latency_cycles: 0,
            cycles_per_byte: 1,
        },
        NetworkModel {
            base_latency_cycles: 1_000,
            cycles_per_byte: 24,
        },
        NetworkModel::lan(),
    ];
    // One box has no hops, so its network model changes nothing.
    let cases = networks
        .iter()
        .map(|&network| (ClusterTopology::ThreeTier, network))
        .chain([(ClusterTopology::Single, NetworkModel::lan())]);
    for (topology, network) in cases {
        for app in [AppId::WebServer, AppId::Tpcc, AppId::Rubis] {
            for easing in [false, true] {
                let spec = ClusterSpec {
                    app,
                    requests: 24,
                    overload: 1.0,
                    seed: 11,
                    easing,
                    topology,
                    network,
                    trace_spans: true,
                };
                let label = format!("{topology:?} {app} easing={easing} {network:?}");
                let (reference, _) = serial::run_cluster(&spec);
                assert!(reference.clean(), "{label}: the reference run is clean");
                // The summed solver tally, root steps included, is what
                // every thread count must reproduce below.
                assert!(reference.solver.root_steps > 0, "{label}: no root steps");
                let (ledger, spans) = (
                    reference.to_json().to_string_compact(),
                    spans_json(&reference),
                );
                for threads in 1..=4 {
                    let report = run_cluster(&spec, &Pool::new(threads)).expect("cluster run");
                    assert_eq!(
                        report.to_json().to_string_compact(),
                        ledger,
                        "{label}: ledger at {threads} threads"
                    );
                    assert_eq!(
                        spans_json(&report),
                        spans,
                        "{label}: spans at {threads} threads"
                    );
                    assert_eq!(report.solver, reference.solver, "{label}");
                    assert_eq!(report.pops, reference.pops, "{label}");
                    assert_eq!(report.crossings, reference.crossings, "{label}");
                    // Every pass ran windows, and stepped the rest one
                    // event at a time after the last arrival.
                    assert_eq!(report.passes.len(), 1 + usize::from(easing), "{label}");
                    let events: u64 = report.machines.iter().map(|m| m.engine_events).sum();
                    let run = report.passes.last().expect("the run pass");
                    assert!(
                        run.windows > 0 && run.serial_tail_events > 0,
                        "{label}: {run:?}"
                    );
                    assert_eq!(
                        run.window_events + run.serial_tail_events,
                        events,
                        "{label}"
                    );
                }
            }
        }
    }
}

/// Forced ties: a one-cycle hop and client arrivals one cycle apart
/// (an offered load so high that the exponential gap, floored at one
/// cycle, is one cycle for most requests). TPC-C's first leg runs on
/// the database, so each arrival departs at once and its delivery falls
/// on the cycle of the next arrival: the serial order's delivery-first
/// tie-break decides every such pair. RUBiS lands its arrivals on the
/// frontend back to back instead. Both must still match the serial
/// loop byte for byte.
#[test]
fn forced_delivery_arrival_ties_match_the_serial_loop() {
    for app in [AppId::Tpcc, AppId::Rubis] {
        for easing in [false, true] {
            let spec = ClusterSpec {
                app,
                requests: 24,
                overload: 1e9,
                seed: 5,
                easing,
                topology: ClusterTopology::ThreeTier,
                network: NetworkModel {
                    base_latency_cycles: 1,
                    cycles_per_byte: 0,
                },
                trace_spans: true,
            };
            let label = format!("{app} easing={easing}");
            let (reference, ties) = serial::run_cluster(&spec);
            assert!(reference.clean(), "{label}: the reference run is clean");
            if app == AppId::Tpcc {
                // Both passes of an eased run count theirs.
                let passes = 1 + u64::from(easing);
                assert!(ties >= passes * 12, "{label}: only {ties} ties");
            }
            let (ledger, spans) = (
                reference.to_json().to_string_compact(),
                spans_json(&reference),
            );
            for threads in 1..=4 {
                let report = run_cluster(&spec, &Pool::new(threads)).expect("cluster run");
                assert_eq!(
                    report.to_json().to_string_compact(),
                    ledger,
                    "{label}: ledger at {threads} threads"
                );
                assert_eq!(
                    spans_json(&report),
                    spans,
                    "{label}: spans at {threads} threads"
                );
                assert_eq!(report.solver, reference.solver, "{label}");
                assert_eq!(report.pops, reference.pops, "{label}");
            }
        }
    }
}

/// Only placement differs: a one-box run and a three-tier run of one spec
/// are offered the same requests (application and class) at the same
/// instants under the same ids, and only the three-tier run crosses the
/// network.
#[test]
fn one_box_and_three_tier_runs_are_offered_the_same_requests() {
    for app in [AppId::Tpcc, AppId::Rubis] {
        let mut spec = ClusterSpec::three_tier(app);
        spec.requests = 48;
        spec.seed = 3;
        spec.trace_spans = true;
        let three_tier = run_cluster(&spec, &Pool::serial()).expect("three-tier run");
        spec.topology = ClusterTopology::Single;
        let one_box = run_cluster(&spec, &Pool::serial()).expect("one-box run");
        let offered = |report: &ClusterReport| {
            let mut requests: Vec<(u64, u64, String, String)> = report
                .spans
                .iter()
                .map(|span| (span.rid, span.arrived, span.app.clone(), span.class.clone()))
                .collect();
            requests.sort();
            requests
        };
        assert_eq!(offered(&one_box).len(), 48, "{app}");
        assert_eq!(offered(&one_box), offered(&three_tier), "{app}");
        assert!(one_box.clean() && three_tier.clean(), "{app}");
        assert_eq!(one_box.summary.hops, 0, "{app}");
        assert!(three_tier.summary.hops >= 2 * 48, "{app}");
    }
}
