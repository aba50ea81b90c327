//! The paper's §7 distributed future work, end to end: deploy the
//! three-tier RUBiS service either consolidated on one 4-core machine or
//! distributed across a three-machine cluster (frontend / application /
//! database tiers on dedicated boxes joined by a modeled LAN), and
//! decompose each request's behavior per tier — the "local and
//! inter-machine variations" the paper anticipates.
//!
//! Both deployments run through [`rbv_cluster::run_cluster`]'s one shard
//! loop at the same offered load and are offered the same requests at
//! the same instants, so the only difference is placement: every tier leg's
//! wait, service and CPI come from the cluster's cross-tier span
//! attribution, which exactly partitions each request's client-visible
//! latency into tier residencies and network hops.
//!
//! ```text
//! cargo run --release --example distributed_rubis
//! ```

use rbv_cluster::{run_cluster, ClusterReport, ClusterSpec, ClusterTopology};
use request_behavior_variations::par::Pool;
use request_behavior_variations::telemetry::QuantileSketch;
use request_behavior_variations::workloads::AppId;

fn q(sketch: &QuantileSketch, p: f64) -> f64 {
    sketch.quantile(p).unwrap_or(f64::NAN)
}

fn report(label: &str, report: &ClusterReport) {
    let s = &report.summary;
    println!(
        "{label:22} requests {:4} | latency p50 {:.2} ms, p99 {:.2} ms | {} network hops",
        s.completed,
        q(&s.client_visible_us, 0.5) / 1e3,
        q(&s.client_visible_us, 0.99) / 1e3,
        s.hops,
    );
    for tier in &s.tiers {
        println!(
            "  {:10} legs {:4} | wait p50 {:7.1} us | service p50 {:7.1} us | CPI p50 {:.2}, p99 {:.2}",
            tier.tier,
            tier.legs,
            q(&tier.wait_us, 0.5),
            q(&tier.service_us, 0.5),
            q(&tier.cpi, 0.5),
            q(&tier.cpi, 0.99),
        );
    }
}

fn main() {
    let pool = Pool::global();
    for (label, topology) in [
        ("consolidated (1 box)", ClusterTopology::Single),
        ("distributed (3 boxes)", ClusterTopology::ThreeTier),
    ] {
        let mut spec = ClusterSpec::three_tier(AppId::Rubis);
        spec.topology = topology;
        spec.requests = 300;
        // Offered load relative to one machine's capacity.
        spec.overload = 0.7;
        spec.seed = 7;
        let result = run_cluster(&spec, &pool).expect("valid cluster spec");
        assert!(result.clean(), "span accounting must balance");
        report(label, &result);
        println!();
    }

    println!("distribution removes the queueing the shared box sees at this load and");
    println!("gives each tier its own CPI profile, at the price of three network hops");
    println!("per request and per-tier load imbalance (the app tier does most of the");
    println!("work) — the component-placement tradeoff the paper's future-work");
    println!("section points at.");
}
