//! Contention-easing CPU scheduling end to end (§5): profile a workload's
//! L2-misses-per-instruction distribution, set the 80th-percentile
//! high-usage threshold, and compare the stock scheduler against the
//! contention-easing one on the same request stream.
//!
//! ```text
//! cargo run --release --example contention_scheduler
//! ```

use request_behavior_variations::core::stats::{mean, percentile};
use request_behavior_variations::os::{run_simulation, SchedulerPolicy, SimConfig};
use request_behavior_variations::workloads::Tpch;

fn main() {
    // --- 1. Profiling pass: measure the workload's misses/instruction
    // distribution under the stock scheduler.
    let mut factory = Tpch::new(5, 0.5);
    let mut config = SimConfig::paper_default().with_interrupt_sampling(1_000);
    config.concurrency = 12;
    let profile = run_simulation(config.clone(), &mut factory, 60).expect("valid");
    let threshold = profile.easing_threshold();
    println!("80th-percentile L2 misses/instruction threshold: {threshold:.5}");

    // --- 2. Same stream under both schedulers.
    let report = |label: &str, scheduler: SchedulerPolicy| {
        let mut cfg = config.clone();
        cfg.scheduler = scheduler;
        cfg.measure_threshold = Some(threshold);
        let mut factory = Tpch::new(99, 0.5);
        let r = run_simulation(cfg, &mut factory, 200).expect("valid");
        let cpis = r.request_cpis();
        println!(
            "{label:18} mean CPI {:.2} | p99 CPI {:.2} | time with >=3 cores high {:.2}%",
            mean(&cpis).unwrap(),
            percentile(&cpis, 0.99).unwrap(),
            r.stats.high_usage_fraction_at_least(3) * 100.0
        );
    };

    report("stock scheduler", SchedulerPolicy::Stock);
    report(
        "contention-easing",
        SchedulerPolicy::ContentionEasing {
            high_usage_threshold: threshold,
        },
    );
    println!("(the contention-easing policy trims the worst case, not the average — §5.2)");
}
