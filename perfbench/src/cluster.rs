//! `cluster-rubis-easing`: the cross-machine event loop.
//!
//! Calls [`rbv_cluster::run_cluster`] on three-tier RUBiS at 1× load with
//! contention easing on: a stock calibration pass, then the eased pass.
//! Every request is injected into a machine one event at a time and
//! every leg and hop feeds the always-on tier span collector.

use std::hint::black_box;

use rbv_cluster::{run_cluster, ClusterReport, ClusterSpec};
use rbv_openloop::probe_mean_service;
use rbv_par::Pool;
use rbv_workloads::{factory_for, AppId};

use crate::report::{fnv1a, Rep};
use crate::spans;
use crate::workload::{maybe_span, Layers, Trace, Workload};

/// Requests offered per run (one shard of the cluster plan).
pub const REQUESTS: usize = 2_000;

const APP: AppId = AppId::Rubis;

/// The `cluster-rubis-easing` workload for one seed.
pub struct Cluster {
    spec: ClusterSpec,
}

impl Cluster {
    /// The workload at `seed`.
    pub fn new(seed: u64) -> Cluster {
        Cluster::with_requests(seed, REQUESTS)
    }

    fn with_requests(seed: u64, requests: usize) -> Cluster {
        let mut spec = ClusterSpec::three_tier(APP);
        spec.requests = requests;
        spec.seed = seed;
        spec.easing = true;
        Cluster { spec }
    }
}

/// Failed checks of a cluster report: [`ClusterReport::clean`] must hold.
pub fn report_problems(report: &ClusterReport) -> Vec<String> {
    if report.clean() {
        return Vec::new();
    }
    let summary = &report.summary;
    vec![format!(
        "ClusterReport::clean() does not hold: {} completed + {} failed of {} requests, {} \
         unfinished, {} invariant violations{}",
        summary.completed,
        summary.failed,
        report.spec.requests,
        summary.unfinished,
        summary.invariants.violations(),
        summary
            .invariants
            .first_violation()
            .map_or(String::new(), |v| format!(" (first: {v})")),
    )]
}

fn rep_of(report: &ClusterReport, ledger: &str) -> Rep {
    Rep {
        requests: report.spec.requests as u64,
        digest: fnv1a(ledger.as_bytes()),
        problems: report_problems(report),
    }
}

impl Workload for Cluster {
    fn setup(&self) {
        self.spec.validate().expect("the cluster spec is valid");
        black_box(factory_for(APP, self.spec.seed, 1.0));
        black_box(probe_mean_service(APP, self.spec.seed).expect("the probe config is valid"));
    }

    fn run(&self, pool: &Pool) -> Rep {
        let report = run_cluster(&self.spec, pool).expect("the cluster spec is valid");
        rep_of(&report, &report.to_json().to_string_compact())
    }

    fn unit(&self, pool: &Pool, trace: Trace<'_>) -> (Rep, Layers) {
        let (report, ledger) = maybe_span(trace, "cluster-rubis-easing", None, |root| {
            maybe_span(trace, "openloop.probe_mean_service", root, |_| {
                black_box(probe_mean_service(APP, self.spec.seed))
                    .expect("the probe config is valid")
            });
            let report = maybe_span(trace, "cluster.run_cluster", root, |_| {
                run_cluster(&self.spec, pool).expect("the cluster spec is valid")
            });
            let ledger = maybe_span(trace, "telemetry.to_json", root, |_| {
                report.to_json().to_string_compact()
            });
            maybe_span(trace, "guard.write_atomic", root, |_| {
                crate::write_output("ledger-cluster-rubis-easing.json", ledger.as_bytes());
            });
            (report, ledger)
        });
        let rep = rep_of(&report, &ledger);
        let Some((tracer, run)) = trace else {
            return (rep, Vec::new());
        };
        let spans = tracer.spans();
        let busy = |name| spans::run_busy_s(&spans, name, run);
        let run_s = busy("cluster.run_cluster");
        let events = |tier: &str| {
            report
                .machines
                .iter()
                .filter(|m| m.tier == tier)
                .map(|m| m.engine_events as f64)
                .sum::<f64>()
        };
        let engine_events: u64 = report.machines.iter().map(|m| m.engine_events).sum();
        let summary = &report.summary;
        let legs: u64 = summary.tiers.iter().map(|t| t.legs).sum();
        // Each request's begin and end (or failure), every leg and every
        // hop reach the eased pass's tier span collector.
        let trace_events =
            summary.arrived + summary.completed + summary.failed + legs + summary.hops;
        let (top_wait, top_total) = summary.top.iter().fold((0u64, 0u64), |(w, t), span| {
            (
                w + span.legs.iter().map(|l| l.1).sum::<u64>(),
                t + span.total,
            )
        });
        let layers = vec![
            ("openloop.probe_s", busy("openloop.probe_mean_service")),
            ("cluster.run_s", run_s),
            (
                "cluster.ns_per_event",
                run_s * 1e9 / engine_events.max(1) as f64,
            ),
            ("cluster.engine_events.frontend", events("frontend")),
            ("cluster.engine_events.app", events("app")),
            ("cluster.engine_events.db", events("db")),
            ("cluster.hops", summary.hops as f64),
            ("cluster.hop_bytes", summary.hop_bytes as f64),
            (
                "cluster.invariant_checks",
                summary.invariants.checks() as f64,
            ),
            ("os.engine_events", engine_events as f64),
            (
                "os.context_switches",
                report
                    .machines
                    .iter()
                    .map(|m| m.context_switches as f64)
                    .sum(),
            ),
            ("trace.events", trace_events as f64),
            ("telemetry.to_json_s", busy("telemetry.to_json")),
            ("telemetry.ledger_bytes", ledger.len() as f64),
            ("guard.write_atomic_s", busy("guard.write_atomic")),
            (
                "sim.client_p99_us",
                summary.client_visible_us.quantile(0.99).unwrap_or(0.0),
            ),
            (
                "sim.wait_share_p99",
                top_wait as f64 / top_total.max(1) as f64,
            ),
        ];
        (rep, layers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_unclean_report_fails_the_run() {
        let workload = Cluster::with_requests(5, 60);
        let report = run_cluster(&workload.spec, &Pool::serial()).expect("cluster");
        assert!(report_problems(&report).is_empty());
        let mut broken = report;
        broken.summary.unfinished = 1;
        let problems = report_problems(&broken);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("clean"), "{problems:?}");
    }

    #[test]
    fn ledger_digest_is_the_same_at_one_and_two_threads() {
        let workload = Cluster::with_requests(9, 80);
        assert_eq!(workload.run(&Pool::serial()), workload.run(&Pool::new(2)));
    }
}
