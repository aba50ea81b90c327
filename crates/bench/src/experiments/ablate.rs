//! Ablation studies of the design choices DESIGN.md calls out:
//!
//! * `ablate-dtw` — sweep the asynchrony penalty and the Sakoe–Chiba band
//!   width, measuring classification quality and cost;
//! * `ablate-ewma` — vaEWMA vs the fixed-aging EWMA on irregular-duration
//!   samples (the situation syscall-triggered sampling creates);
//! * `ablate-sampling` — sweep `t_syscall_min` / `t_backup_int`, trading
//!   sampling overhead against captured variation;
//! * `ablate-threshold` — sweep the contention-easing high-usage
//!   percentile, measuring worst-case CPI.

use rbv_core::cluster::{divergence_from_centroid, k_medoids_par, DistanceMatrix};
use rbv_core::distance::{dtw_banded, dtw_distance_with_penalty, l1_distance, length_penalty};
use rbv_core::predict::{evaluate_rmse, Ewma, VaEwma};
use rbv_core::series::Metric;
use rbv_core::stats::{coefficient_of_variation, percentile};
use rbv_os::{run_simulation, SimConfig};
use rbv_workloads::AppId;

use crate::harness::{print_table, requests_of, section, standard_factory, standard_run};

/// One row of the DTW ablation.
#[derive(Debug, Clone)]
pub struct DtwAblationRow {
    /// Description of the variant.
    pub variant: String,
    /// CPU-time divergence from centroid (Fig. 7A metric), percent.
    pub divergence: f64,
    /// Wall time to build the distance matrix, milliseconds.
    pub wall_ms: f64,
}

/// Sweeps the asynchrony penalty (0, p/4, p, 4p) and band widths on TPCC.
pub fn ablate_dtw(fast: bool) -> Vec<DtwAblationRow> {
    section("Ablation: DTW asynchrony penalty and band width (TPCC)");
    let n = requests_of(AppId::Tpcc, fast).min(if fast { 80 } else { 200 });
    let result = standard_run(AppId::Tpcc, 0xAB1, n, false);
    let bucket = crate::harness::bucket_ins(AppId::Tpcc);
    let series: Vec<Vec<f64>> = result
        .completed
        .iter()
        .map(|r| r.series(Metric::Cpi, bucket).values().to_vec())
        .collect();
    let cpu: Vec<f64> = result.completed.iter().map(|r| r.cpu_cycles()).collect();
    let refs: Vec<&[f64]> = series.iter().map(|s| s.as_slice()).collect();
    let p = length_penalty(&refs, 100_000);

    let pool = rbv_par::Pool::global();
    let mut rows = Vec::new();
    let mut eval = |variant: String, dist: &(dyn Fn(usize, usize) -> f64 + Sync)| {
        let t = std::time::Instant::now();
        let dm = DistanceMatrix::compute_par(series.len(), &pool, dist);
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        let clustering = k_medoids_par(&dm, 10, 40, &pool);
        rows.push(DtwAblationRow {
            variant,
            divergence: divergence_from_centroid(&clustering, &cpu).unwrap_or(f64::NAN),
            wall_ms,
        });
    };

    for factor in [0.0, 0.25, 1.0, 4.0] {
        let pen = p * factor;
        eval(format!("DTW penalty {factor}p"), &|i, j| {
            dtw_distance_with_penalty(&series[i], &series[j], pen)
        });
    }
    for band in [2usize, 8, 32] {
        eval(format!("banded DTW (p, band {band})"), &|i, j| {
            dtw_banded(&series[i], &series[j], p, band)
        });
    }
    eval("L1".into(), &|i, j| l1_distance(&series[i], &series[j], p));

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.variant.clone(),
                format!("{:.1}%", r.divergence),
                format!("{:.0} ms", r.wall_ms),
            ]
        })
        .collect();
    print_table(&["variant", "CPU-time divergence", "matrix cost"], &table);
    rows
}

/// vaEWMA vs fixed-aging EWMA under irregular sample durations.
pub fn ablate_ewma(fast: bool) -> Vec<(String, f64)> {
    section("Ablation: vaEWMA vs fixed-aging EWMA on irregular samples (TPCH)");
    // Syscall-triggered sampling produces wildly varying period lengths —
    // exactly the situation Equation 5 corrects for.
    let n = requests_of(AppId::Tpch, fast);
    let mut f = standard_factory(AppId::Tpch, 0xAB2);
    let mut cfg = SimConfig::paper_default().with_syscall_sampling(50, 2_000);
    cfg.seed = 0xAB2;
    let result = run_simulation(cfg, f.as_mut(), n).expect("valid");

    let mut rows = Vec::new();
    for alpha in [0.4, 0.6, 0.8] {
        let mut basic = Ewma::new(alpha);
        let mut va = VaEwma::new(alpha, 1.0);
        let score = |p: &mut dyn rbv_core::predict::Predictor| {
            let mut total = 0.0;
            let mut weight = 0.0;
            for r in &result.completed {
                let periods = r.timeline.periods();
                let d: Vec<f64> = periods.iter().map(|q| q.cycles / 3.0e6).collect();
                let v: Vec<f64> = periods
                    .iter()
                    .map(|q| q.value(Metric::L2MissesPerIns).unwrap_or(0.0))
                    .collect();
                if let Some(rmse) = evaluate_rmse(p, &d, &v) {
                    total += rmse * r.cpu_cycles();
                    weight += r.cpu_cycles();
                }
            }
            total / weight.max(1.0)
        };
        rows.push((format!("EWMA a={alpha}"), score(&mut basic)));
        rows.push((format!("vaEWMA a={alpha}"), score(&mut va)));
    }
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|(l, v)| vec![l.clone(), format!("{v:.3e}")])
        .collect();
    print_table(&["filter", "RMSE"], &table);
    rows
}

/// Sweeps syscall-triggered sampling parameters on the web server.
pub fn ablate_sampling(fast: bool) -> Vec<(u64, u64, f64, f64)> {
    section("Ablation: t_syscall_min / t_backup_int sweep (web server)");
    let n = requests_of(AppId::WebServer, fast);
    let mut rows = Vec::new();
    for (t_min, t_backup) in [(2, 20), (5, 40), (10, 40), (20, 100), (50, 400)] {
        let mut f = standard_factory(AppId::WebServer, 0xAB3);
        let mut cfg = SimConfig::paper_default().with_syscall_sampling(t_min, t_backup);
        cfg.seed = 0xAB3;
        let r = run_simulation(cfg, f.as_mut(), n).expect("valid");
        let overhead = r.stats.sampling_overhead_cycles() / r.stats.busy_cycles.max(1.0);
        let mut lengths = Vec::new();
        let mut values = Vec::new();
        for c in &r.completed {
            let (mut l, mut v) = c.timeline.weighted_values(Metric::Cpi);
            lengths.append(&mut l);
            values.append(&mut v);
        }
        let cov = coefficient_of_variation(&lengths, &values).unwrap_or(0.0);
        rows.push((t_min, t_backup, overhead, cov));
    }
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|&(a, b, o, c)| {
            vec![
                format!("{a} us"),
                format!("{b} us"),
                format!("{:.3}%", o * 100.0),
                format!("{c:.3}"),
            ]
        })
        .collect();
    print_table(
        &["t_syscall_min", "t_backup_int", "overhead", "captured CoV"],
        &table,
    );
    rows
}

/// Sweeps the contention-easing high-usage percentile on TPCH.
pub fn ablate_threshold(fast: bool) -> Vec<(f64, f64, f64)> {
    section("Ablation: contention-easing threshold percentile (TPCH)");
    use rbv_os::SchedulerPolicy;

    let profile = standard_run(AppId::Tpch, 0xAB4, requests_of(AppId::Tpch, true), false);
    let values = profile.l2_mpi_samples();

    let n = if fast { 40 } else { 200 };
    let mut rows = Vec::new();
    for pct in [0.6, 0.7, 0.8, 0.9] {
        let threshold = percentile(&values, pct).unwrap_or(0.0);
        let mut cfg = SimConfig::paper_default().with_interrupt_sampling(1_000);
        cfg.scheduler = SchedulerPolicy::ContentionEasing {
            high_usage_threshold: threshold,
        };
        cfg.measure_threshold = Some(threshold);
        cfg.seed = 0xAB4;
        let mut f = standard_factory(AppId::Tpch, 0xAB4);
        let r = run_simulation(cfg, f.as_mut(), n).expect("valid");
        let cpis = r.request_cpis();
        rows.push((
            pct,
            percentile(&cpis, 0.99).unwrap_or(f64::NAN),
            r.stats.high_usage_fraction_at_least(4),
        ));
    }
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|&(p, cpi, frac)| {
            vec![
                format!("{:.0}th", p * 100.0),
                format!("{cpi:.2}"),
                format!("{:.3}%", frac * 100.0),
            ]
        })
        .collect();
    print_table(&["percentile", "p99 CPI", "4-core-high time"], &table);
    rows
}

/// Quality of one group of transition signals: the paper scores a signal
/// by the average metric change it precedes (significance) and the
/// standard deviation of that change (uniformity).
#[derive(Debug, Clone)]
pub struct SignalQuality {
    /// "name" or "bigram".
    pub kind: String,
    /// Mean |CPI change| across the top signals, occurrence-weighted.
    pub mean_abs_change: f64,
    /// Mean standard deviation across the top signals, occurrence-weighted.
    pub mean_std: f64,
    /// Consistency score: |change| per unit of standard deviation.
    pub consistency: f64,
}

/// Name-based vs bigram-based transition signals (the §3.2 suggested
/// improvement) on RUBiS, whose socket calls recur in several semantic
/// contexts (web→EJB, EJB→DB, DB→reply hand-offs).
pub fn ablate_signals(fast: bool) -> Vec<SignalQuality> {
    section("Ablation: transition signals — names vs (prev, current) bigrams (RUBiS)");
    let n = requests_of(AppId::Rubis, fast);

    // Online training pass: map names and bigrams to CPI changes across
    // every system call occurrence.
    let mut f = standard_factory(AppId::Rubis, 0xAB5);
    let mut cfg = SimConfig::paper_default().with_syscall_sampling(5, 200);
    cfg.seed = 0xAB5;
    let training = run_simulation(cfg, f.as_mut(), n).expect("valid");
    let min_count = if fast { 10 } else { 40 };

    // Score the top signals of each kind by the paper's two criteria:
    // significance (|mean change|) and uniformity (standard deviation).
    let summarize = |kind: &str, rows: Vec<(String, f64, f64, usize)>| {
        let top: Vec<_> = rows.into_iter().take(6).collect();
        let weight: f64 = top.iter().map(|r| r.3 as f64).sum();
        let mean_abs_change =
            top.iter().map(|r| r.1.abs() * r.3 as f64).sum::<f64>() / weight.max(1.0);
        let mean_std = top.iter().map(|r| r.2 * r.3 as f64).sum::<f64>() / weight.max(1.0);
        println!();
        println!("top {kind} signals (mean CPI change +- std, occurrences):");
        for (label, mean, std, count) in &top {
            println!("  {label:28} {mean:+.2} +- {std:.2}  ({count})");
        }
        SignalQuality {
            kind: kind.to_string(),
            mean_abs_change,
            mean_std,
            consistency: mean_abs_change / mean_std.max(1e-9),
        }
    };

    let names = summarize(
        "name",
        training
            .transition_table(min_count)
            .into_iter()
            .map(|(n, m, s, c)| (n.to_string(), m, s, c))
            .collect(),
    );
    let bigrams = summarize(
        "bigram",
        training
            .transition_table_bigrams(min_count)
            .into_iter()
            .map(|((p, n), m, s, c)| (format!("{p} -> {n}"), m, s, c))
            .collect(),
    );

    println!();
    print_table(
        &["kind", "mean |change|", "mean std", "consistency"],
        &[
            vec![
                names.kind.clone(),
                format!("{:.2}", names.mean_abs_change),
                format!("{:.2}", names.mean_std),
                format!("{:.2}", names.consistency),
            ],
            vec![
                bigrams.kind.clone(),
                format!("{:.2}", bigrams.mean_abs_change),
                format!("{:.2}", bigrams.mean_std),
                format!("{:.2}", bigrams.consistency),
            ],
        ],
    );
    println!("(the paper: a name recurring in many semantic contexts cannot consistently");
    println!(" signal transitions; bigrams recover per-context significance/uniformity)");
    vec![names, bigrams]
}

/// Open-loop load sweep (extension): offered utilization vs request
/// latency and contention under Poisson arrivals — the paper's saturated
/// closed-loop runs sit at the right edge of this curve.
pub fn ablate_load(fast: bool) -> Vec<(f64, f64, f64, f64)> {
    use rbv_os::config::ArrivalProcess;
    use rbv_sim::Cycles;

    section("Ablation: open-loop load sweep (TPCC, Poisson arrivals)");
    let n = if fast { 60 } else { 300 };

    // Calibrate the mean per-request CPU demand from a closed-loop run.
    let calib = standard_run(AppId::Tpcc, 0xAB6, 40, false);
    let mean_cpu: f64 =
        calib.completed.iter().map(|r| r.cpu_cycles()).sum::<f64>() / calib.completed.len() as f64;
    let cores = 4.0;

    let mut rows = Vec::new();
    for utilization in [0.3, 0.6, 0.85] {
        let interarrival = (mean_cpu / (cores * utilization)) as u64;
        let mut cfg = SimConfig::paper_default().with_interrupt_sampling(100);
        cfg.arrivals = ArrivalProcess::OpenPoisson {
            mean_interarrival: Cycles::new(interarrival.max(1)),
        };
        cfg.seed = 0xAB6;
        let mut f = standard_factory(AppId::Tpcc, 0xAB6);
        let r = run_simulation(cfg, f.as_mut(), n).expect("valid");
        let latencies_ms: Vec<f64> = r
            .completed
            .iter()
            .map(|c| c.latency().as_f64() / 3.0e6)
            .collect();
        let p50 = percentile(&latencies_ms, 0.5).unwrap_or(f64::NAN);
        let p99 = percentile(&latencies_ms, 0.99).unwrap_or(f64::NAN);
        let cpis = r.request_cpis();
        let mean_cpi = cpis.iter().sum::<f64>() / cpis.len().max(1) as f64;
        rows.push((utilization, p50, p99, mean_cpi));
    }
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|&(u, p50, p99, cpi)| {
            vec![
                format!("{:.0}%", u * 100.0),
                format!("{p50:.2} ms"),
                format!("{p99:.2} ms"),
                format!("{cpi:.2}"),
            ]
        })
        .collect();
    print_table(
        &["offered load", "p50 latency", "p99 latency", "mean CPI"],
        &table,
    );
    println!("(queueing delay and co-run contention both grow with offered load)");
    rows
}

/// Static L2 partitioning vs LRU sharing (extension): the related-work
/// alternative to contention-easing scheduling, end to end.
pub fn ablate_partition(fast: bool) -> Vec<(String, bool, f64, f64)> {
    section("Ablation: LRU cache sharing vs static equal partitioning");
    let mut rows = Vec::new();
    for app in [AppId::Tpcc, AppId::Tpch] {
        let n = requests_of(app, fast).min(if fast { 60 } else { 200 });
        for partition in [false, true] {
            let mut cfg =
                SimConfig::paper_default().with_interrupt_sampling(app.sampling_period_micros());
            cfg.static_cache_partition = partition;
            cfg.seed = 0xAB7;
            let mut f = standard_factory(app, 0xAB7);
            let r = run_simulation(cfg, f.as_mut(), n).expect("valid");
            let cpis = r.request_cpis();
            let mean_cpi = cpis.iter().sum::<f64>() / cpis.len().max(1) as f64;
            let p90 = percentile(&cpis, 0.9).unwrap_or(f64::NAN);
            rows.push((app.to_string(), partition, mean_cpi, p90));
        }
    }
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|(app, part, mean, p90)| {
            vec![
                app.clone(),
                if *part {
                    "partitioned".into()
                } else {
                    "LRU shared".into()
                },
                format!("{mean:.2}"),
                format!("{p90:.2}"),
            ]
        })
        .collect();
    print_table(&["application", "L2 policy", "mean CPI", "p90 CPI"], &table);
    println!("(partitioning isolates cache-fitting working sets; it cannot help");
    println!(" streaming scans, whose contention is bandwidth, not capacity)");
    rows
}

/// Work stealing (extension): the paper's §5.2 prototype does not migrate
/// requests between runqueues "for simplicity"; this ablation measures
/// what that simplification costs on a skewed workload (a mix of ~10x
/// longer delivery transactions among short order-status ones).
pub fn ablate_stealing(fast: bool) -> Vec<(bool, f64, f64)> {
    use rbv_core::stats::mean;
    use rbv_workloads::{Request, RequestFactory, Tpcc, TpccTxn};

    section("Ablation: request migration (work stealing) on skewed TPCC load");

    struct Skewed {
        inner: Tpcc,
        emitted: usize,
    }
    impl RequestFactory for Skewed {
        fn app(&self) -> AppId {
            AppId::Tpcc
        }
        fn next_request(&mut self) -> Request {
            self.emitted += 1;
            if self.emitted % 4 == 1 {
                self.inner.request_of_txn(TpccTxn::Delivery)
            } else {
                self.inner.request_of_txn(TpccTxn::OrderStatus)
            }
        }
    }

    let n = if fast { 60 } else { 240 };
    let mut rows = Vec::new();
    for stealing in [false, true] {
        let mut cfg = SimConfig::paper_default();
        cfg.work_stealing = stealing;
        // Light concurrency: cores can actually idle next to a backlogged
        // neighbor, which is when migration matters.
        cfg.concurrency = 5;
        cfg.seed = 0xAB8;
        let mut f = Skewed {
            inner: Tpcc::new(0xAB8, 1.0),
            emitted: 0,
        };
        let r = run_simulation(cfg, &mut f, n).expect("valid");
        let latencies_ms: Vec<f64> = r
            .completed
            .iter()
            .map(|c| c.latency().as_f64() / 3.0e6)
            .collect();
        rows.push((
            stealing,
            mean(&latencies_ms).unwrap_or(f64::NAN),
            percentile(&latencies_ms, 0.99).unwrap_or(f64::NAN),
        ));
    }
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|&(st, mean_ms, p99_ms)| {
            vec![
                if st {
                    "with stealing".into()
                } else {
                    "no migration (paper)".into()
                },
                format!("{mean_ms:.2} ms"),
                format!("{p99_ms:.2} ms"),
            ]
        })
        .collect();
    print_table(&["policy", "mean latency", "p99 latency"], &table);
    println!("(finding: with least-loaded admission at every arrival and stage hop,");
    println!(" queues only empty while the system drains, so migration has almost");
    println!(" nothing left to move — the paper's no-migration simplification is");
    println!(" nearly free under this admission policy)");
    rows
}
