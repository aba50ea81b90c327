//! Cluster identity and invariant gates.
//!
//! * A `Machine` driven through start/step/finish — the loop the
//!   three-tier cluster steps every machine with — must be
//!   **bit-identical** to the single-machine engine
//!   (`rbv_os::run_simulation`) on the same config: the incremental API
//!   is pure code motion over the engine's `run`, and this property pins
//!   that.
//! * A three-tier run's per-tier stages plus network hops must exactly
//!   partition every request's client-visible latency, with zero
//!   invariant violations, for every application.

use proptest::prelude::*;
use rbv_cluster::{run_cluster, shard_seed, ClusterSpec, ClusterTopology, NetworkModel};
use rbv_os::{run_simulation, ArrivalProcess, Machine, SimConfig};
use rbv_par::Pool;
use rbv_sim::Cycles;
use rbv_workloads::{factory_for, AppId};

fn spec(app: AppId, topology: ClusterTopology, requests: usize, seed: u64) -> ClusterSpec {
    ClusterSpec {
        app,
        requests,
        overload: 1.0,
        seed,
        easing: false,
        topology,
        network: NetworkModel::lan(),
        trace_spans: false,
        wallclock: false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For any seed/app/open-loop load, a self-spawning `Machine`
    /// stepped to its target and the engine's `run_simulation` produce
    /// the same `RunResult`, field for field — completion order,
    /// timelines, stats, total time.
    #[test]
    fn machine_step_loop_is_bit_identical_to_the_engine(
        seed in 0u64..1_000_000,
        app_idx in 0usize..3,
        overload in prop::sample::select(vec![0.5f64, 1.0, 2.0]),
    ) {
        const REQUESTS: usize = 24;
        let app = [AppId::WebServer, AppId::Tpcc, AppId::Rubis][app_idx];
        let mean_service = rbv_openloop::probe_mean_service(app, seed).expect("probe");
        let shard = shard_seed(seed, 0);
        // The single-topology shard's open-loop config.
        let mut cfg =
            SimConfig::paper_default().with_interrupt_sampling(app.sampling_period_micros());
        cfg.seed = shard;
        let cores = cfg.machine.topology.cores as f64;
        cfg.arrivals = ArrivalProcess::OpenPoisson {
            mean_interarrival: Cycles::new((mean_service / (cores * overload)).max(1.0) as u64),
        };

        let mut f1 = factory_for(app, shard, app.harness_scale());
        let mut machine = Machine::new(cfg.clone(), REQUESTS).expect("valid config");
        machine.start(f1.as_mut());
        while !machine.target_reached() && machine.step(f1.as_mut()) {}
        let via_machine = machine.finish();
        let mut f2 = factory_for(app, shard, app.harness_scale());
        let via_engine = run_simulation(cfg, f2.as_mut(), REQUESTS).expect("engine run");

        prop_assert_eq!(via_machine, via_engine);
    }
}

/// The tentpole acceptance gate: a three-tier run of every application
/// produces per-tier attribution whose stages exactly partition each
/// request's client-visible latency — invariant-checked, zero
/// violations — and resolves every offered request.
#[test]
fn three_tier_partition_is_exact_for_every_app() {
    for app in [
        AppId::WebServer,
        AppId::Tpcc,
        AppId::Tpch,
        AppId::Rubis,
        AppId::Webwork,
    ] {
        let s = spec(app, ClusterTopology::ThreeTier, 48, 11);
        let report = run_cluster(&s, &Pool::serial()).expect("cluster run");
        assert!(
            report.clean(),
            "{app:?}: {:?}",
            report.summary.invariants.first_violation()
        );
        assert_eq!(
            report.summary.completed + report.summary.failed,
            48,
            "{app:?}"
        );
        // Per-request partition checks ran: one per completed request
        // (whole-path) plus one per leg (wait + service == residence).
        assert!(
            report.summary.invariants.checks() as u64 > report.summary.completed,
            "{app:?}"
        );
    }
}

/// The serialized ledger is byte-identical at any thread count, single
/// and three-tier alike, including across the multi-shard boundary.
#[test]
fn ledger_bytes_are_thread_count_invariant() {
    for topology in [ClusterTopology::Single, ClusterTopology::ThreeTier] {
        let s = spec(AppId::Tpcc, topology, 96, 5);
        let a = run_cluster(&s, &Pool::serial()).expect("serial");
        let b = run_cluster(&s, &Pool::new(4)).expect("threaded");
        assert_eq!(
            a.to_json().to_string_compact(),
            b.to_json().to_string_compact(),
            "{topology:?}"
        );
    }
}
