//! Cluster identity and invariant gates.
//!
//! * The degenerate single-machine cluster path must be **bit-identical**
//!   to the single-machine engine (`rbv_os::run_simulation`) on the same
//!   config — the cluster's `Machine` start/step/finish loop is pure code
//!   motion over the engine's `run`, and this property pins that.
//! * A three-tier run's per-tier stages plus network hops must exactly
//!   partition every request's client-visible latency, with zero
//!   invariant violations, for every application.

use proptest::prelude::*;
use rbv_cluster::{
    machine_loop_run, run_cluster, shard_seed, single_machine_config, ClusterSpec, ClusterTopology,
    NetworkModel,
};
use rbv_os::run_simulation;
use rbv_par::Pool;
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

    /// The PR 9 parity property: for any seed/app/overload, the cluster's
    /// single-machine loop and the engine's `run_simulation` produce the
    /// same `RunResult`, field for field — completion order, timelines,
    /// stats, total time.
    #[test]
    fn single_machine_cluster_is_bit_identical_to_the_engine(
        seed in 0u64..1_000_000,
        app_idx in 0usize..3,
        overload in prop::sample::select(vec![0.5f64, 1.0, 2.0]),
    ) {
        let app = [AppId::WebServer, AppId::Tpcc, AppId::Rubis][app_idx];
        let mut s = spec(app, ClusterTopology::Single, 24, seed);
        s.overload = overload;
        let mean_service = rbv_openloop::probe_mean_service(app, seed).expect("probe");
        let shard = shard_seed(seed, 0);
        let cfg = single_machine_config(&s, mean_service, shard, None);

        let mut f1 = factory_for(app, shard, app.harness_scale());
        let via_cluster = machine_loop_run(cfg.clone(), f1.as_mut(), s.requests).expect("cluster loop");
        let mut f2 = factory_for(app, shard, app.harness_scale());
        let via_engine = run_simulation(cfg, f2.as_mut(), s.requests).expect("engine run");

        prop_assert_eq!(via_cluster, via_engine);
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
