//! Figures 12 & 13: contention-easing CPU scheduling (§5.2).
//!
//! Figure 12 reports the proportion of execution time during which ≥2, ≥3,
//! and all 4 cores simultaneously run requests in high-resource-usage
//! periods (L2 misses per instruction at or above the per-application 80th
//! percentile), under the stock and the contention-easing scheduler.
//! Figure 13 reports request CPI — average and worst-case (99 / 99.9
//! percentile) — under both schedulers.

use rbv_core::stats::{mean, percentile};
use rbv_os::{run_simulation, SchedulerPolicy, SimConfig};
use rbv_workloads::AppId;

use crate::harness::{print_table, requests_of, section};
use rbv_workloads::factory_for;

/// Results for one (application, scheduler) pair, averaged over runs.
#[derive(Debug, Clone)]
pub struct SchedulerOutcome {
    /// Application.
    pub app: AppId,
    /// True for the contention-easing scheduler.
    pub contention_easing: bool,
    /// Fractions of busy time with at least 2 / at least 3 / all 4 cores
    /// simultaneously at high resource usage (Figure 12).
    pub high_ge2: f64,
    /// See [`SchedulerOutcome::high_ge2`].
    pub high_ge3: f64,
    /// See [`SchedulerOutcome::high_ge2`].
    pub high_eq4: f64,
    /// Mean request CPI (Figure 13).
    pub cpi_mean: f64,
    /// 99-percentile request CPI.
    pub cpi_p99: f64,
    /// 99.9-percentile request CPI.
    pub cpi_p999: f64,
}

/// Scheduling experiments run WeBWorK at a larger scale than the rest of
/// the harness: request-phase granularity relative to the 5 ms
/// re-scheduling interval is load-bearing for §5.2.
fn sched_scale(app: AppId) -> f64 {
    match app {
        // Full-scale WeBWorK: its high-usage periods must keep their real
        // multi-millisecond granularity relative to the 5 ms rescheduling
        // interval and the 1 ms prediction unit.
        AppId::Webwork => 1.0,
        _ => app.harness_scale(),
    }
}

/// The per-application 80th-percentile L2-misses-per-instruction threshold
/// from a stock profiling run (§5.2).
pub fn profile_threshold(app: AppId, fast: bool) -> f64 {
    let n = (requests_of(app, fast) / 2).max(20);
    let mut cfg = SimConfig::paper_default().with_interrupt_sampling(app.sampling_period_micros());
    cfg.seed = 0xB0;
    cfg.concurrency = 12;
    let mut factory = factory_for(app, 0xB0, sched_scale(app));
    run_simulation(cfg, factory.as_mut(), n)
        .expect("valid")
        .easing_threshold()
}

/// Runs both schedulers for one application over `seeds` runs.
pub fn compute_app(app: AppId, fast: bool, seeds: &[u64]) -> Vec<SchedulerOutcome> {
    let threshold = profile_threshold(app, fast);
    let n = if fast {
        requests_of(app, true)
    } else if app == AppId::Webwork {
        // Full-scale WeBWorK requests: fewer of them suffice.
        200
    } else {
        // The paper uses three 1000-request test runs.
        1_000
    };

    let mut out = Vec::new();
    for contention_easing in [false, true] {
        let mut ge2 = 0.0;
        let mut ge3 = 0.0;
        let mut eq4 = 0.0;
        let mut cpis = Vec::new();
        for &seed in seeds {
            let mut cfg =
                SimConfig::paper_default().with_interrupt_sampling(app.sampling_period_micros());
            cfg.seed = seed;
            cfg.measure_threshold = Some(threshold);
            // Two runnable requests per core give the contention-easing
            // policy a real choice at each scheduling opportunity.
            cfg.concurrency = 12;
            if contention_easing {
                cfg.scheduler = SchedulerPolicy::ContentionEasing {
                    high_usage_threshold: threshold,
                };
            }
            let mut factory = factory_for(app, seed ^ 0xCE, sched_scale(app));
            let r = run_simulation(cfg, factory.as_mut(), n).expect("valid");
            ge2 += r.stats.high_usage_fraction_at_least(2);
            ge3 += r.stats.high_usage_fraction_at_least(3);
            eq4 += r.stats.high_usage_fraction_at_least(4);
            cpis.extend(r.request_cpis());
        }
        let k = seeds.len() as f64;
        out.push(SchedulerOutcome {
            app,
            contention_easing,
            high_ge2: ge2 / k,
            high_ge3: ge3 / k,
            high_eq4: eq4 / k,
            cpi_mean: mean(&cpis).unwrap_or(f64::NAN),
            cpi_p99: percentile(&cpis, 0.99).unwrap_or(f64::NAN),
            cpi_p999: percentile(&cpis, 0.999).unwrap_or(f64::NAN),
        });
    }
    out
}

/// Runs the Figures 12/13 experiment on TPCH and WeBWorK.
pub fn compute(fast: bool) -> Vec<SchedulerOutcome> {
    let seeds: &[u64] = if fast { &[1] } else { &[1, 2, 3] };
    let mut out = Vec::new();
    for app in [AppId::Tpch, AppId::Webwork] {
        out.extend(compute_app(app, fast, seeds));
    }
    out
}

/// Runs and prints Figures 12 and 13.
pub fn run(fast: bool) -> Vec<SchedulerOutcome> {
    section("Figures 12 & 13: contention-easing CPU scheduling");
    let outcomes = compute(fast);

    println!();
    println!("Figure 12 — proportion of time with simultaneous high-resource-usage cores:");
    let rows: Vec<Vec<String>> = outcomes
        .iter()
        .map(|o| {
            vec![
                o.app.to_string(),
                if o.contention_easing {
                    "contention-easing".into()
                } else {
                    "original".into()
                },
                format!("{:.1}%", o.high_ge2 * 100.0),
                format!("{:.2}%", o.high_ge3 * 100.0),
                format!("{:.3}%", o.high_eq4 * 100.0),
            ]
        })
        .collect();
    print_table(
        &[
            "application",
            "scheduler",
            ">=2 cores",
            ">=3 cores",
            "4 cores",
        ],
        &rows,
    );
    println!("(paper: the 4-core simultaneous-high proportion drops ~25%)");

    println!();
    println!("Figure 13 — request CPI under both schedulers:");
    let rows: Vec<Vec<String>> = outcomes
        .iter()
        .map(|o| {
            vec![
                o.app.to_string(),
                if o.contention_easing {
                    "contention-easing".into()
                } else {
                    "original".into()
                },
                format!("{:.2}", o.cpi_mean),
                format!("{:.2}", o.cpi_p99),
                format!("{:.2}", o.cpi_p999),
            ]
        })
        .collect();
    print_table(
        &["application", "scheduler", "average", "99 pct", "99.9 pct"],
        &rows,
    );
    println!("(paper: ~10% lower worst-case CPI, average essentially unchanged)");
    outcomes
}
