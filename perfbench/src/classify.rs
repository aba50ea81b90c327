//! `classify-dtw`: the paper's §4 classification pipeline.
//!
//! For each of the five server applications: one closed-loop, retaining
//! [`rbv_os::run_simulation`] with interrupt sampling, then CPI variation
//! series ([`rbv_os::CompletedRequest::series`]), the DTW-with-penalty
//! distance matrix ([`DistanceMatrix::compute_par`]), k-medoids with
//! k = 10 ([`k_medoids_par`]), and identification of held-out requests
//! against the clustered bank ([`nearest_series_with_stats`]).

use std::hint::black_box;

use rbv_core::cluster::{divergence_from_centroid, k_medoids_par, Clustering, DistanceMatrix};
use rbv_core::distance::{
    dtw_distance_with_penalty, length_penalty, nearest_series_with_stats, PruneStats,
};
use rbv_core::series::Metric;
use rbv_os::{run_simulation, RunResult, SimConfig};
use rbv_par::Pool;
use rbv_workloads::{factory_for, AppId, RequestFactory};

use crate::report::{fnv1a, Rep};
use crate::spans::{self, Span, Tally, TimedFactory};
use crate::workload::{maybe_span, Layers, Trace, Workload};

/// Requests simulated per application: most of them short web and TPCC
/// requests, few of the long TPCH, RUBiS and WeBWorK ones. WeBWorK's 14
/// still take longer to simulate than the other four apps together, and
/// leave a bank of 12 for k = 10.
const APPS: [(AppId, usize); 5] = [
    (AppId::WebServer, 320),
    (AppId::Tpcc, 240),
    (AppId::Tpch, 80),
    (AppId::Rubis, 120),
    (AppId::Webwork, 14),
];

/// Every `HOLD_OUT`-th completed request is held out of the bank and
/// identified against it.
const HOLD_OUT: usize = 5;

/// The paper's cluster count.
const K: usize = 10;

/// Harness scale of the long-request applications (as in `repro`).
fn scale_of(app: AppId) -> f64 {
    match app {
        AppId::Tpch => 0.5,
        AppId::Webwork => 0.1,
        _ => 1.0,
    }
}

/// The `classify-dtw` workload for one seed.
pub struct Classify {
    seed: u64,
    apps: Vec<(AppId, usize)>,
}

/// One application's simulation, with its span and factory tally when
/// traced.
struct Simulated {
    result: RunResult,
    traced: Option<(Span, Tally)>,
}

/// One application's pass through the pipeline.
#[derive(Default)]
struct AppOutcome {
    bytes: Vec<u8>,
    problems: Vec<String>,
    requests: u64,
    dtw_cells: f64,
    prune: PruneStats,
    divergence_pct: f64,
}

impl Classify {
    /// The workload at `seed`.
    pub fn new(seed: u64) -> Classify {
        Classify {
            seed,
            apps: APPS.to_vec(),
        }
    }

    fn config(&self, index: usize, app: AppId) -> (SimConfig, Box<dyn RequestFactory + Send>) {
        let seed = self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (index as u64 + 1);
        let mut cfg =
            SimConfig::paper_default().with_interrupt_sampling(app.sampling_period_micros());
        cfg.seed = seed;
        (cfg, factory_for(app, seed, scale_of(app)))
    }

    fn simulate(&self, index: usize, trace: Trace<'_>, root: Option<u64>) -> Simulated {
        let (app, n) = self.apps[index];
        let (cfg, mut factory) = self.config(index, app);
        let Some((tracer, run)) = trace else {
            let result = run_simulation(cfg, factory.as_mut(), n).expect("the config is valid");
            return Simulated {
                result,
                traced: None,
            };
        };
        let mut timed = TimedFactory::new(factory.as_mut());
        let open = tracer.begin("os.run_simulation", root, run);
        let result = run_simulation(cfg, &mut timed, n).expect("the config is valid");
        let span = tracer.end(open);
        Simulated {
            result,
            traced: Some((span, timed.tally)),
        }
    }

    /// The full pipeline; spans around every layer call when tracing.
    fn pipeline(&self, pool: &Pool, trace: Trace<'_>) -> (Rep, Layers) {
        maybe_span(trace, "classify-dtw", None, |root| {
            let indices: Vec<usize> = (0..self.apps.len()).collect();
            let simulated = pool.ordered_map(&indices, |&i| self.simulate(i, trace, root));
            let outcomes: Vec<AppOutcome> = simulated
                .iter()
                .map(|sim| classify(&sim.result, pool, trace, root))
                .collect();
            let mut bytes = Vec::new();
            let mut problems = Vec::new();
            let mut requests = 0;
            for (outcome, (app, _)) in outcomes.iter().zip(&self.apps) {
                bytes.extend_from_slice(&outcome.bytes);
                problems.extend(outcome.problems.iter().map(|p| format!("{app}: {p}")));
                requests += outcome.requests;
            }
            let rep = Rep {
                requests,
                digest: fnv1a(&bytes),
                problems,
            };
            let Some((tracer, run)) = trace else {
                return (rep, Vec::new());
            };
            for (span, tally) in simulated.iter().filter_map(|sim| sim.traced.as_ref()) {
                tracer.aggregate("workloads.next_request", span, *tally);
            }
            (rep, self.layers(&simulated, &outcomes, tracer, run))
        })
    }

    fn layers(
        &self,
        simulated: &[Simulated],
        outcomes: &[AppOutcome],
        tracer: &spans::Tracer,
        run: u32,
    ) -> Layers {
        let all = tracer.spans();
        let busy = |name| spans::run_busy_s(&all, name, run);
        let engine_self = spans::run_self_s(&all, "os.run_simulation", run);
        let engine_events: u64 = simulated.iter().map(|s| s.result.stats.engine_events).sum();
        let factory: Vec<Tally> = simulated
            .iter()
            .filter_map(|s| s.traced.as_ref().map(|(_, tally)| *tally))
            .collect();
        let mut prune = PruneStats::default();
        for outcome in outcomes {
            prune.merge(&outcome.prune);
        }
        let dtw_cells: f64 = outcomes.iter().map(|o| o.dtw_cells).sum();
        let distance_s = busy("core.distance_matrix");
        vec![
            ("core.simulate_s", busy("os.run_simulation")),
            ("os.engine_events", engine_events as f64),
            ("os.engine_self_s", engine_self),
            (
                "os.ns_per_event",
                engine_self * 1e9 / engine_events.max(1) as f64,
            ),
            (
                "os.context_switches",
                simulated
                    .iter()
                    .map(|s| s.result.stats.context_switches as f64)
                    .sum(),
            ),
            (
                "workloads.next_request_s",
                factory.iter().map(|t| t.busy.as_secs_f64()).sum(),
            ),
            (
                "workloads.requests_drawn",
                factory.iter().map(|t| t.calls as f64).sum(),
            ),
            ("core.series_s", busy("core.series")),
            ("core.distance_s", distance_s),
            ("core.dtw_cells", dtw_cells),
            (
                "core.ns_per_dtw_cell",
                distance_s * 1e9 / dtw_cells.max(1.0),
            ),
            ("core.kmedoids_s", busy("core.k_medoids")),
            ("core.identify_s", busy("core.identify")),
            ("core.identify_candidates", prune.candidates as f64),
            ("core.pruned_frac", prune.pruned_frac()),
            ("core.full_dp", prune.full_dp as f64),
            (
                "sim.divergence_cpu_pct",
                outcomes.iter().map(|o| o.divergence_pct).sum::<f64>() / outcomes.len() as f64,
            ),
        ]
    }
}

/// Series, distance matrix, clustering and identification for one
/// application's completed requests.
fn classify(result: &RunResult, pool: &Pool, trace: Trace<'_>, root: Option<u64>) -> AppOutcome {
    let (series, cpu_time, penalty) = maybe_span(trace, "core.series", root, |_| {
        // Bucket size: the median request spans about 48 buckets (the
        // Figure 7 harness's choice).
        let mut lens: Vec<f64> = result
            .completed
            .iter()
            .map(|r| r.timeline.total_instructions())
            .collect();
        lens.sort_by(f64::total_cmp);
        let median = lens.get(lens.len() / 2).copied().unwrap_or(1.0).max(1.0);
        let bucket = (median / 48.0).max(1_000.0);
        let series: Vec<Vec<f64>> = result
            .completed
            .iter()
            .map(|r| r.series(Metric::Cpi, bucket).values().to_vec())
            .collect();
        let cpu_time: Vec<f64> = result.completed.iter().map(|r| r.cpu_cycles()).collect();
        let refs: Vec<&[f64]> = series.iter().map(Vec::as_slice).collect();
        let penalty = length_penalty(&refs, 200_000);
        (series, cpu_time, penalty)
    });
    let (bank, held_out): (Vec<usize>, Vec<usize>) =
        (0..series.len()).partition(|i| i % HOLD_OUT != HOLD_OUT - 1);
    let bank_series: Vec<&[f64]> = bank.iter().map(|&i| series[i].as_slice()).collect();
    let bank_cpu: Vec<f64> = bank.iter().map(|&i| cpu_time[i]).collect();

    let dm = maybe_span(trace, "core.distance_matrix", root, |_| {
        DistanceMatrix::compute_par(bank_series.len(), pool, |i, j| {
            dtw_distance_with_penalty(bank_series[i], bank_series[j], penalty)
        })
    });
    let clustering = maybe_span(trace, "core.k_medoids", root, |_| {
        k_medoids_par(&dm, K, 40, pool)
    });
    let identified = maybe_span(trace, "core.identify", root, |_| {
        pool.ordered_map(&held_out, |&q| {
            nearest_series_with_stats(&series[q], &bank_series, penalty)
        })
    });

    let mut outcome = AppOutcome {
        requests: series.len() as u64,
        ..AppOutcome::default()
    };
    outcome.problems.extend(matrix_problems(&dm));
    for (_, stats) in &identified {
        outcome.problems.extend(prune_problems(stats));
        outcome.prune.merge(stats);
    }
    for i in 0..bank_series.len() {
        for j in (i + 1)..bank_series.len() {
            outcome.dtw_cells += (bank_series[i].len() * bank_series[j].len()) as f64;
        }
    }
    outcome.divergence_pct = divergence_from_centroid(&clustering, &bank_cpu).unwrap_or(0.0);
    outcome.bytes = result_bytes(
        penalty,
        &dm,
        &clustering,
        &identified,
        outcome.divergence_pct,
    );
    outcome
}

/// The deterministic result bytes the digest covers.
fn result_bytes(
    penalty: f64,
    dm: &DistanceMatrix,
    clustering: &Clustering,
    identified: &[(Option<(usize, f64)>, PruneStats)],
    divergence_pct: f64,
) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut put = |v: u64| bytes.extend_from_slice(&v.to_le_bytes());
    put(penalty.to_bits());
    put(dm.len() as u64);
    for i in 0..dm.len() {
        for j in 0..dm.len() {
            put(dm.get(i, j).to_bits());
        }
    }
    for &m in &clustering.medoids {
        put(m as u64);
    }
    for &a in &clustering.assignments {
        put(a as u64);
    }
    put(clustering.cost.to_bits());
    for (nearest, stats) in identified {
        let (idx, d) = nearest.unwrap_or((usize::MAX, f64::NAN));
        put(idx as u64);
        put(d.to_bits());
        for count in [
            stats.candidates,
            stats.lb_kim,
            stats.length_penalty,
            stats.lb_keogh,
            stats.early_abandon,
            stats.full_dp,
        ] {
            put(count);
        }
    }
    put(divergence_pct.to_bits());
    bytes
}

/// Failed checks of a distance matrix: every cell finite, and symmetric.
pub fn matrix_problems(dm: &DistanceMatrix) -> Vec<String> {
    for i in 0..dm.len() {
        for j in i..dm.len() {
            let (a, b) = (dm.get(i, j), dm.get(j, i));
            if !a.is_finite() {
                return vec![format!(
                    "distance matrix cell ({i}, {j}) = {a} is not finite"
                )];
            }
            if a.to_bits() != b.to_bits() {
                return vec![format!(
                    "distance matrix is not symmetric at ({i}, {j}): {a} vs {b}"
                )];
            }
        }
    }
    Vec::new()
}

/// Failed checks of one identification scan: the prune stages must
/// partition the candidates.
pub fn prune_problems(stats: &PruneStats) -> Vec<String> {
    let staged =
        stats.lb_kim + stats.length_penalty + stats.lb_keogh + stats.early_abandon + stats.full_dp;
    if staged == stats.candidates {
        Vec::new()
    } else {
        vec![format!(
            "prune stages sum to {staged}, not to the {} candidates",
            stats.candidates
        )]
    }
}

impl Workload for Classify {
    fn setup(&self) {
        for (index, &(app, _)) in self.apps.iter().enumerate() {
            let (cfg, factory) = self.config(index, app);
            cfg.validate().expect("the classify config is valid");
            black_box(factory);
        }
    }

    fn run(&self, pool: &Pool) -> Rep {
        self.pipeline(pool, None).0
    }

    fn unit(&self, pool: &Pool, trace: Trace<'_>) -> (Rep, Layers) {
        self.pipeline(pool, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> Classify {
        Classify {
            seed,
            apps: vec![(AppId::Tpcc, 40), (AppId::WebServer, 50)],
        }
    }

    #[test]
    fn pipeline_is_correct_and_thread_count_independent() {
        let workload = small(11);
        let serial = workload.run(&Pool::serial());
        assert!(serial.problems.is_empty(), "{:?}", serial.problems);
        assert_eq!(serial.requests, 90);
        assert_eq!(serial, workload.run(&Pool::new(2)));
        let tracer = spans::Tracer::new();
        let (traced, layers) = workload.unit(&Pool::new(2), Some((&tracer, 1)));
        assert_eq!(traced, serial, "tracing is observation-only");
        let get = |name| layers.iter().find(|(n, _)| *n == name).expect(name).1;
        assert!(get("core.dtw_cells") > 0.0);
        assert!(get("core.identify_candidates") > 0.0);
        assert_eq!(get("workloads.requests_drawn"), 90.0);
    }

    #[test]
    fn broken_prune_stats_and_matrices_fail_the_run() {
        let good = PruneStats {
            candidates: 3,
            lb_kim: 1,
            full_dp: 2,
            ..PruneStats::default()
        };
        assert!(prune_problems(&good).is_empty());
        let bad = PruneStats { full_dp: 3, ..good };
        assert_eq!(prune_problems(&bad).len(), 1);
        let dm = DistanceMatrix::compute(3, |i, j| (i + j) as f64);
        assert!(matrix_problems(&dm).is_empty());
    }
}
