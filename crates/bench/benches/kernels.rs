//! Criterion microbenchmarks of the compute kernels the modeling layer
//! leans on: request differencing (the O(m·n) DTW against the O(n) L1 —
//! the cost tradeoff §4.2 discusses), k-medoids clustering, the analytical
//! contention model (allocating and solver-reusing), one core's
//! power/thermal slice, and the trace-driven cache simulator.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::Rng;

use rbv_core::cluster::{k_medoids, DistanceMatrix};
use rbv_core::distance::{
    dtw_banded, dtw_distance_with_penalty, l1_distance, levenshtein, nearest_series,
    nearest_series_with_stats,
};
use rbv_core::predict::{Predictor, VaEwma};
use rbv_mem::cache::CacheConfig;
use rbv_mem::{ContentionSolver, MachineSpec, MemoryHierarchy, SegmentProfile};
use rbv_power::CorePower;
use rbv_sim::{Cycles, SimRng};

fn random_series(len: usize, seed: u64) -> Vec<f64> {
    let mut rng = SimRng::seed_from(seed);
    (0..len).map(|_| rng.gen_range(0.5..5.0)).collect()
}

fn bench_distances(c: &mut Criterion) {
    let mut group = c.benchmark_group("distance");
    for len in [32usize, 128, 512] {
        let x = random_series(len, 1);
        let y = random_series(len, 2);
        group.bench_with_input(BenchmarkId::new("l1", len), &len, |b, _| {
            b.iter(|| l1_distance(black_box(&x), black_box(&y), 2.0))
        });
        group.bench_with_input(BenchmarkId::new("dtw_penalty", len), &len, |b, _| {
            b.iter(|| dtw_distance_with_penalty(black_box(&x), black_box(&y), 2.0))
        });
        group.bench_with_input(BenchmarkId::new("dtw_banded8", len), &len, |b, _| {
            b.iter(|| dtw_banded(black_box(&x), black_box(&y), 2.0, 8))
        });
    }
    group.finish();
}

/// Both instantiations of the anti-diagonal DTW kernel on an odd shape:
/// all-finite input takes the compare-select `min`, one `+∞` value the
/// `f64::min` one. The stats scan times the cascade's shared abandon path.
fn bench_dtw_kernel(c: &mut Criterion) {
    let x = random_series(47, 7);
    let y = random_series(131, 8);
    let mut y_inf = y.clone();
    y_inf[65] = f64::INFINITY;
    let mut group = c.benchmark_group("dtw_kernel_47x131");
    group.bench_function("finite", |b| {
        b.iter(|| dtw_distance_with_penalty(black_box(&x), black_box(&y), 2.0))
    });
    group.bench_function("one_inf", |b| {
        b.iter(|| dtw_distance_with_penalty(black_box(&x), black_box(&y_inf), 2.0))
    });
    group.finish();

    let query = random_series(96, 20);
    let candidates: Vec<Vec<f64>> = (0..64).map(|i| random_series(96, 30 + i)).collect();
    c.bench_function("nearest_series_with_stats_64x96", |b| {
        b.iter(|| nearest_series_with_stats(black_box(&query), black_box(&candidates), 2.0))
    });
}

/// The series shapes the `classify-dtw` distance matrices are made of
/// (two short requests, a short against a long one, two long ones), for
/// the unconstrained kernel and for two of the band widths `repro
/// ablate-dtw` sweeps. A band is expected to cost less than the full DP.
fn bench_classify_shapes(c: &mut Criterion) {
    for (m, n) in [(48usize, 48usize), (15, 120), (37, 287)] {
        let x = random_series(m, 40);
        let y = random_series(n, 41);
        let mut group = c.benchmark_group(format!("dtw_classify_{m}x{n}"));
        group.bench_function("full", |b| {
            b.iter(|| dtw_distance_with_penalty(black_box(&x), black_box(&y), 2.0))
        });
        for band in [8usize, 32] {
            group.bench_with_input(BenchmarkId::new("banded", band), &band, |b, &band| {
                b.iter(|| dtw_banded(black_box(&x), black_box(&y), 2.0, band))
            });
        }
        group.finish();
    }
}

fn bench_levenshtein(c: &mut Criterion) {
    let mut rng = SimRng::seed_from(3);
    let a: Vec<u16> = (0..150).map(|_| rng.gen_range(0..20)).collect();
    let b: Vec<u16> = (0..150).map(|_| rng.gen_range(0..20)).collect();
    c.bench_function("levenshtein_150", |bench| {
        bench.iter(|| levenshtein(black_box(&a), black_box(&b)))
    });
}

fn bench_kmedoids(c: &mut Criterion) {
    let mut rng = SimRng::seed_from(4);
    let points: Vec<f64> = (0..200).map(|_| rng.gen_range(0.0..100.0)).collect();
    let dm = DistanceMatrix::compute(points.len(), |i, j| (points[i] - points[j]).abs());
    c.bench_function("k_medoids_200x10", |b| {
        b.iter(|| k_medoids(black_box(&dm), 10, 40))
    });
}

/// The DTW distance matrix Figure 7 builds, serial vs pooled at several
/// thread counts (outputs are bit-identical; only wall-clock differs).
fn bench_distance_matrix_par(c: &mut Criterion) {
    let series: Vec<Vec<f64>> = (0..48).map(|i| random_series(64, 10 + i)).collect();
    let mut group = c.benchmark_group("distance_matrix_dtw_48x64");
    group.bench_function("serial", |b| {
        b.iter(|| {
            DistanceMatrix::compute(series.len(), |i, j| {
                dtw_distance_with_penalty(black_box(&series[i]), black_box(&series[j]), 2.0)
            })
        })
    });
    for threads in [2usize, 4, 8] {
        let pool = rbv_par::Pool::new(threads);
        group.bench_with_input(BenchmarkId::new("pooled", threads), &threads, |b, _| {
            b.iter(|| {
                DistanceMatrix::compute_par(series.len(), &pool, |i, j| {
                    dtw_distance_with_penalty(black_box(&series[i]), black_box(&series[j]), 2.0)
                })
            })
        });
    }
    group.finish();
}

/// Running-best nearest-neighbor scan: naive full DTW per candidate vs
/// the lower-bound + early-abandon fast path.
fn bench_nearest_series(c: &mut Criterion) {
    let query = random_series(96, 20);
    let candidates: Vec<Vec<f64>> = (0..64).map(|i| random_series(96, 30 + i)).collect();
    let mut group = c.benchmark_group("nearest_series_64x96");
    group.bench_function("naive_full_dtw", |b| {
        b.iter(|| {
            candidates
                .iter()
                .map(|cand| dtw_distance_with_penalty(black_box(&query), cand, 2.0))
                .enumerate()
                .fold(None::<(usize, f64)>, |acc, (i, d)| match acc {
                    Some((_, best)) if d >= best => acc,
                    _ => Some((i, d)),
                })
        })
    });
    group.bench_function("pruned", |b| {
        b.iter(|| nearest_series(black_box(&query), black_box(&candidates), 2.0))
    });
    group.finish();
}

fn bench_contention_model(c: &mut Criterion) {
    let machine = MachineSpec::xeon_5160();
    let scan = SegmentProfile {
        base_cpi: 0.8,
        l2_refs_per_ins: 0.006,
        working_set_bytes: 200e6,
        reuse_locality: 0.35,
    };
    let join = SegmentProfile {
        base_cpi: 0.9,
        l2_refs_per_ins: 0.007,
        working_set_bytes: 12e6,
        reuse_locality: 0.65,
    };
    let running = vec![Some(scan), Some(join), Some(scan), Some(join)];
    c.bench_function("contention_model_4core", |b| {
        b.iter(|| machine.evaluate(black_box(&running)))
    });
    // The path the engine takes: one solver and rate table reused across
    // calls, so no per-call allocation.
    let mut solver = ContentionSolver::default();
    let mut rates = vec![None; running.len()];
    c.bench_function("contention_model_4core_reused", |b| {
        b.iter(|| {
            machine.evaluate_into(black_box(&running), &mut solver, &mut rates);
            black_box(&rates);
        })
    });

    // Reused-solver shapes beside the mixed one above: web-like segments
    // whose working sets all fit (the miss curve never reaches `powf`),
    // TPCH-like streaming scans (every miss ratio takes `powf`), two busy
    // cores with the whole second cache cluster idle, working sets a
    // little over half a cache, so each pair's shares settle 0.5–8% under
    // their working sets, where the water-fill's cap kinks the map, and
    // pairs that fill their caches unevenly (three quarters beside a
    // quarter; a whole cache beside a core without references), which an
    // even split would start far from: every cluster fits, so each solve
    // is the bandwidth root and one evaluation.
    let web = |base_cpi, ws| SegmentProfile {
        base_cpi,
        l2_refs_per_ins: 0.004,
        working_set_bytes: ws,
        reuse_locality: 0.93,
    };
    let stream = |base_cpi, ws| SegmentProfile {
        base_cpi,
        l2_refs_per_ins: 0.008,
        working_set_bytes: ws,
        reuse_locality: 0.5,
    };
    let near_fit = |base_cpi, ws| SegmentProfile {
        base_cpi,
        l2_refs_per_ins: 0.01,
        working_set_bytes: ws,
        reuse_locality: 0.9,
    };
    let shapes = [
        (
            "web_fit",
            vec![
                Some(web(1.1, 3e5)),
                Some(web(1.2, 4e5)),
                Some(web(1.0, 2.5e5)),
                Some(web(1.15, 3.5e5)),
            ],
        ),
        (
            "tpch_stream",
            vec![
                Some(stream(0.7, 360e6)),
                Some(stream(0.72, 300e6)),
                Some(stream(0.68, 420e6)),
                Some(stream(0.71, 380e6)),
            ],
        ),
        ("one_idle_cluster", vec![Some(scan), Some(join), None, None]),
        (
            "kink",
            vec![
                Some(near_fit(0.9, 2.1e6)),
                Some(near_fit(1.0, 2.2e6)),
                Some(near_fit(0.95, 2.12e6)),
                Some(near_fit(1.05, 2.3e6)),
            ],
        ),
        (
            "fit",
            vec![
                Some(near_fit(0.9, 3.0 * 1024.0 * 1024.0)),
                Some(near_fit(1.0, 1024.0 * 1024.0)),
                Some(SegmentProfile {
                    l2_refs_per_ins: 0.0,
                    ..web(1.2, 5e5)
                }),
                Some(near_fit(0.95, 4.0 * 1024.0 * 1024.0)),
            ],
        ),
    ];
    let mut group = c.benchmark_group("contention_model_reused");
    for (name, running) in &shapes {
        group.bench_function(name, |b| {
            b.iter(|| {
                machine.evaluate_into(black_box(running), &mut solver, &mut rates);
                black_box(&rates);
            })
        });
    }
    group.finish();
}

/// One core's power/thermal slice: the integer power and steady-state
/// recompute, the energy update and the RC relaxation step.
fn bench_core_power(c: &mut Criterion) {
    let dt = Cycles::new(9_000);
    let mut core = CorePower::new();
    c.bench_function("core_power_slice", |b| {
        b.iter(|| core.advance(black_box(dt), 1, black_box(730), 22_000, 1_900, 1_600))
    });
}

fn bench_cache_simulator(c: &mut Criterion) {
    c.bench_function("trace_cache_100k_accesses", |b| {
        b.iter(|| {
            let mut m = MemoryHierarchy::new(
                rbv_mem::Topology::XEON_5160_2X2,
                CacheConfig::XEON_5160_L1D,
                CacheConfig {
                    size_bytes: 256 << 10,
                    associativity: 16,
                    line_bytes: 64,
                },
            );
            let mut rng = SimRng::seed_from(5);
            for i in 0..100_000u64 {
                let core = (i % 4) as usize;
                let addr = rng.gen_range(0..4u64 << 20);
                m.access(core, addr, i % 7 == 0);
            }
            black_box(m.counters(0))
        })
    });
}

fn bench_vaewma(c: &mut Criterion) {
    let values = random_series(10_000, 6);
    c.bench_function("vaewma_10k_observations", |b| {
        b.iter(|| {
            let mut f = VaEwma::new(0.6, 1.0);
            for &v in &values {
                f.observe(v, 1.5);
            }
            black_box(f.predict())
        })
    });
}

criterion_group!(
    benches,
    bench_distances,
    bench_dtw_kernel,
    bench_classify_shapes,
    bench_levenshtein,
    bench_kmedoids,
    bench_distance_matrix_par,
    bench_nearest_series,
    bench_contention_model,
    bench_core_power,
    bench_cache_simulator,
    bench_vaewma,
);
criterion_main!(benches);
