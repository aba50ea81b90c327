//! Passive syscalls are crossings, not engine events: a syscall no
//! sampling policy acts on is recorded in passing, at the first cycle its
//! core's segment reaches it. These tests pin what that must not change:
//! the trace sink still sees every syscall in time order, a sink observes
//! without steering, and a policy that samples at syscalls still takes an
//! event at each one.

use std::collections::HashMap;

use rbv_os::{
    run_simulation, run_simulation_traced, EventPops, RunResult, SamplingPolicy, SimConfig,
};
use rbv_sim::Cycles;
use rbv_telemetry::{MemorySink, TraceEvent};
use rbv_workloads::{factory_for, AppId, SyscallName};

const REQUESTS: usize = 8;

fn run(app: AppId, cfg: &SimConfig) -> RunResult {
    run_simulation(cfg.clone(), factory_for(app, 5, 0.05).as_mut(), REQUESTS).expect("valid")
}

fn run_traced(app: AppId, cfg: &SimConfig) -> (RunResult, MemorySink) {
    let mut sink = MemorySink::new();
    let mut factory = factory_for(app, 5, 0.05);
    let result =
        run_simulation_traced(cfg.clone(), factory.as_mut(), REQUESTS, &mut sink).expect("valid");
    (result, sink)
}

fn interrupt(app: AppId) -> SimConfig {
    SimConfig::paper_default().with_interrupt_sampling(app.sampling_period_micros())
}

fn syscalls(result: &RunResult) -> u64 {
    result
        .completed
        .iter()
        .map(|c| c.syscalls.len() as u64)
        .sum()
}

fn milestones(result: &RunResult) -> u64 {
    let kind = EventPops::KINDS
        .iter()
        .position(|&k| k == "milestone")
        .expect("a milestone kind");
    result.stats.pops.live[kind]
}

#[test]
fn a_traced_tpch_run_sees_every_syscall_once_in_time_order() {
    // A measure threshold adds L2-pressure episodes, reported from the
    // flush that began them.
    let mut cfg = interrupt(AppId::Tpch);
    cfg.measure_threshold = Some(0.002);
    let (result, sink) = run_traced(AppId::Tpch, &cfg);
    assert_eq!(result.completed.len(), REQUESTS);
    assert!(result.stats.crossings > 0, "{:?}", result.stats);
    let pressure = sink.events.iter().filter(|e| e.kind() == "l2_pressure");
    assert!(pressure.count() > 1);
    for pair in sink.events.windows(2) {
        assert!(pair[0].ts() <= pair[1].ts(), "timestamps go back: {pair:?}");
    }
    // One entry per record, at the record's instant, in the record's order.
    let mut entries: HashMap<u64, Vec<(Cycles, String)>> = HashMap::new();
    for event in &sink.events {
        if let TraceEvent::SyscallEntry { ts, rid, name, .. } = event {
            entries.entry(*rid).or_default().push((*ts, name.clone()));
        }
    }
    for request in &result.completed {
        let records: Vec<(Cycles, String)> = request
            .syscalls
            .iter()
            .map(|r| (r.at, r.name.to_string()))
            .collect();
        assert!(!records.is_empty());
        assert_eq!(entries.remove(&(request.id as u64)), Some(records));
    }
    assert!(entries.is_empty(), "entries of no completed request");
}

#[test]
fn a_sink_observes_without_steering() {
    let transitions = SamplingPolicy::TransitionSignals {
        triggers: [SyscallName::Read].into_iter().collect(),
        t_syscall_min: Cycles::from_micros(5),
        t_backup_int: Cycles::from_micros(200),
    };
    for app in [AppId::Tpch, AppId::Tpcc, AppId::WebServer] {
        let mut eased = interrupt(app);
        eased.measure_threshold = Some(0.002);
        let configs = [
            interrupt(app),
            eased,
            SimConfig::paper_default().with_syscall_sampling(5, 200),
            SimConfig {
                sampling: transitions.clone(),
                ..SimConfig::paper_default()
            },
        ];
        for cfg in &configs {
            let plain = run(app, cfg);
            let (traced, sink) = run_traced(app, cfg);
            assert!(!sink.is_empty());
            assert_eq!(plain.stats, traced.stats, "{app} {:?}", cfg.sampling);
            assert_eq!(
                plain.completed, traced.completed,
                "{app} {:?}",
                cfg.sampling
            );
            assert_eq!(plain.total_time, traced.total_time);
        }
    }
}

#[test]
fn syscall_triggered_sampling_pops_one_milestone_per_syscall() {
    for app in [AppId::Tpch, AppId::Tpcc, AppId::Rubis] {
        let cfg = SimConfig::paper_default().with_syscall_sampling(5, 200);
        let result = run(app, &cfg);
        assert_eq!(result.stats.crossings, 0, "{app}: every syscall acts");
        assert!(
            milestones(&result) >= syscalls(&result),
            "{app}: {} milestones for {} syscalls",
            milestones(&result),
            syscalls(&result)
        );
        // Under interrupt sampling every syscall is a crossing, and only
        // phase and stage ends are milestones.
        let passive = run(app, &interrupt(app));
        assert_eq!(passive.stats.crossings, syscalls(&passive), "{app}");
        assert!(milestones(&passive) < milestones(&result), "{app}");
    }
}
