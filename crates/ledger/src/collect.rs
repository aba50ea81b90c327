//! Building a [`RunLedger`] by running the benchmark matrix.
//!
//! Per application, the collector runs:
//!
//! 1. the **standard** interrupt-sampled concurrent run — request
//!    latency/CPI/L2 sketches plus the observer-effect accounting of the
//!    APIC + context-switch sampling modes;
//! 2. a **syscall-sampled** run — accounting for the syscall-entry and
//!    backup-timer modes;
//! 3. a **contention-easing** run against the standard run's stock
//!    baseline — the stock-vs-easing p99 CPI tail delta (§5.2);
//! 4. the **chaos matrix** (`rbv_faults::run_matrix`) — anomaly
//!    precision/recall, degradation, overload, and easing-under-storm;
//! 5. the **governed storm** (`rbv_faults::chaos::governor_storm`) — the
//!    adaptive sampling governor, health ladder, and invariant monitor
//!    under the measurement storm (the ledger's `guard` section).
//!
//! Everything is deterministic in `(app, seed, fast)`; wall-clock stage
//! timings go to the caller's [`SelfProfiler`] and never into the
//! deterministic part of the document.

use rbv_faults::chaos::{
    base_config, governor_storm, requests_of, run_matrix, ChaosReport, GovernorOutcome,
};
use rbv_os::{run_simulation, ObserverReport, RbvError, RunResult, SchedulerPolicy, SimConfig};
use rbv_telemetry::{Json, SelfProfiler};
use rbv_workloads::{factory_for, AppId};

use crate::document::{AppLedger, EasingDelta, RunLedger};

/// The applications `repro bench --all` covers (the paper's five server
/// applications).
pub const BENCH_APPS: [AppId; 5] = AppId::SERVER_APPS;

/// Stable short label for an application (matches the CLI spelling).
pub fn short_label(app: AppId) -> &'static str {
    match app {
        AppId::WebServer => "web",
        AppId::Tpcc => "tpcc",
        AppId::Tpch => "tpch",
        AppId::Rubis => "rubis",
        AppId::Webwork => "webwork",
        AppId::MbenchSpin => "mbench-spin",
        AppId::MbenchData => "mbench-data",
    }
}

fn run(cfg: SimConfig, app: AppId, seed: u64, n: usize) -> Result<RunResult, RbvError> {
    let mut factory = factory_for(app, seed, app.harness_scale());
    run_simulation(cfg, factory.as_mut(), n)
}

/// Stage 1: the standard interrupt-sampled run.
fn stage_standard(
    app: AppId,
    seed: u64,
    n: usize,
    profiler: &mut SelfProfiler,
) -> Result<RunResult, RbvError> {
    let label = short_label(app);
    let timer = profiler.stage(format!("{label}.standard"));
    let standard = run(base_config(app, seed), app, seed, n)?;
    profiler.stop(timer);
    Ok(standard)
}

/// Stage 2: the syscall-sampled run.
fn stage_syscall(
    app: AppId,
    seed: u64,
    n: usize,
    profiler: &mut SelfProfiler,
) -> Result<RunResult, RbvError> {
    let label = short_label(app);
    let timer = profiler.stage(format!("{label}.syscall"));
    let period = app.sampling_period_micros();
    let cfg = base_config(app, seed ^ 0x5C).with_syscall_sampling(period / 2, period * 5);
    let syscall = run(cfg, app, seed ^ 0x5C, n / 2)?;
    profiler.stop(timer);
    Ok(syscall)
}

/// Stage 3: contention easing against `standard` as the stock baseline.
/// The high-usage threshold is calibrated on the standard run
/// ([`RunResult::easing_threshold`]). This data dependency is why the
/// pooled collector chains stages 1 and 3 into one task.
fn stage_easing(
    app: AppId,
    seed: u64,
    n: usize,
    standard: &RunResult,
    profiler: &mut SelfProfiler,
) -> Result<RunResult, RbvError> {
    let label = short_label(app);
    let timer = profiler.stage(format!("{label}.easing"));
    let mut cfg = base_config(app, seed);
    cfg.scheduler = SchedulerPolicy::ContentionEasing {
        high_usage_threshold: standard.easing_threshold(),
    };
    cfg.easing_error_gate = true;
    let eased = run(cfg, app, seed, n)?;
    profiler.stop(timer);
    Ok(eased)
}

/// Signature cap for the kernel observability scan: enough requests for
/// stable prune rates, bounded so the scan stays a small fraction of the
/// collection cost.
const KERNEL_SIGNATURES: usize = 128;

/// Kernel observability stage (derived from the standard run, no extra
/// simulation): per-request CPI time-series signatures fed through the
/// online nearest-neighbor scan, recording which stage of the DTW prune
/// cascade (LB_Kim → length penalty → LB_Keogh → per-column abandon)
/// settled each candidate — the ledger's `kernel.prune.*` counters.
///
/// The scan mirrors online signature matching: request `i` queries the
/// `i-1` signatures seen before it, so the counters measure the cascade
/// exactly as §4.2's cost concern would meet it in production.
fn stage_kernel(app: AppId, standard: &RunResult, profiler: &mut SelfProfiler) -> Json {
    let label = short_label(app);
    let timer = profiler.stage(format!("{label}.kernel"));
    let signatures: Vec<Vec<f64>> = standard
        .completed
        .iter()
        .take(KERNEL_SIGNATURES)
        .map(|r| r.timeline.weighted_values(rbv_core::series::Metric::Cpi).1)
        .collect();
    let refs: Vec<&[f64]> = signatures.iter().map(Vec::as_slice).collect();
    let penalty = rbv_core::distance::length_penalty(&refs, 4096);
    let mut prune = rbv_core::PruneStats::default();
    for (i, query) in signatures.iter().enumerate().skip(1) {
        let (_, stats) = rbv_core::nearest_series_with_stats(query, &signatures[..i], penalty);
        prune.merge(&stats);
    }
    profiler.stop(timer);
    let num = |v: u64| Json::Num(v as f64);
    Json::Obj(vec![
        ("signatures".into(), num(signatures.len() as u64)),
        ("penalty".into(), Json::Num(penalty)),
        (
            "prune".into(),
            Json::Obj(vec![
                ("candidates".into(), num(prune.candidates)),
                ("lb_kim".into(), num(prune.lb_kim)),
                ("length_penalty".into(), num(prune.length_penalty)),
                ("lb_keogh".into(), num(prune.lb_keogh)),
                ("early_abandon".into(), num(prune.early_abandon)),
                ("full_dp".into(), num(prune.full_dp)),
                ("pruned_frac".into(), Json::Num(prune.pruned_frac())),
            ]),
        ),
    ])
}

/// One variant of the energy study, serialized for the ledger's
/// `energy` member.
fn energy_variant_json(result: &RunResult) -> Json {
    let energy = result
        .stats
        .energy
        .as_ref()
        .unwrap_or_else(|| unreachable!("powered run reports energy"));
    Json::Obj(vec![
        ("joules".into(), Json::Num(energy.total_joules())),
        (
            "core_joules".into(),
            Json::Arr(
                energy
                    .core_uw_cycles
                    .iter()
                    .map(|&c| Json::Num(rbv_os::joules(c)))
                    .collect(),
            ),
        ),
        (
            "throttle_engages".into(),
            Json::Num(energy.throttle_engages as f64),
        ),
        (
            "dvfs_transitions".into(),
            Json::Num(energy.dvfs_transitions as f64),
        ),
        (
            "power_rung_transitions".into(),
            Json::Num(energy.power_rung_transitions as f64),
        ),
        (
            "p99_cpi".into(),
            Json::Num(result.cpi_sketch().p99().unwrap_or(f64::NAN)),
        ),
    ])
}

/// Stage 6: the energy study. The same workload runs three times with
/// the per-core DVFS/power model on — stock scheduling, contention
/// easing, and easing under the guard's power-capping rungs — recording
/// joules (total and per core), throttle/DVFS counts, and p99 request
/// CPI per variant. The capped variant trades tail CPI for joules; the
/// ledger keeps both sides of that trade on the record. The easing
/// threshold derives from the standard run exactly as in stage 3.
fn stage_energy(
    app: AppId,
    seed: u64,
    n: usize,
    standard: &RunResult,
    profiler: &mut SelfProfiler,
) -> Result<Json, RbvError> {
    let label = short_label(app);
    let timer = profiler.stage(format!("{label}.energy"));
    let threshold = standard.easing_threshold();
    let variant = |mode: usize| -> Result<RunResult, RbvError> {
        let mut cfg = base_config(app, seed ^ 0xE76);
        cfg.concurrency = 12;
        cfg.power = Some(rbv_os::PowerPolicy::paper_default());
        if mode >= 1 {
            cfg.scheduler = SchedulerPolicy::ContentionEasing {
                high_usage_threshold: threshold,
            };
            cfg.easing_error_gate = true;
        }
        if mode == 2 {
            // The ladder supersedes the one-shot gate (as in the
            // governed storm); with the power model on, the guard also
            // runs its power-capping ladder.
            cfg.easing_error_gate = false;
            cfg.guard = true;
        }
        run(cfg, app, seed ^ 0xE76, n)
    };
    let stock = variant(0)?;
    let easing = variant(1)?;
    let power_easing = variant(2)?;
    profiler.stop(timer);
    Ok(Json::Obj(vec![
        ("stock".into(), energy_variant_json(&stock)),
        ("easing".into(), energy_variant_json(&easing)),
        ("power_easing".into(), energy_variant_json(&power_easing)),
    ]))
}

/// Stage 4: the chaos matrix.
fn stage_chaos(
    app: AppId,
    seed: u64,
    fast: bool,
    profiler: &mut SelfProfiler,
) -> Result<ChaosReport, RbvError> {
    let label = short_label(app);
    let timer = profiler.stage(format!("{label}.chaos"));
    let chaos = run_matrix(app, seed, fast)?;
    profiler.stop(timer);
    Ok(chaos)
}

/// Stage 5: the governed storm — the guard section the gate watches.
fn stage_guard(
    app: AppId,
    seed: u64,
    fast: bool,
    profiler: &mut SelfProfiler,
) -> Result<GovernorOutcome, RbvError> {
    let label = short_label(app);
    let timer = profiler.stage(format!("{label}.guard"));
    let guard = governor_storm(app, seed, requests_of(app, fast))?;
    profiler.stop(timer);
    Ok(guard)
}

/// Folds the six stage outcomes into one [`AppLedger`] record.
#[allow(clippy::too_many_arguments)]
fn assemble(
    app: AppId,
    standard: &RunResult,
    syscall: &RunResult,
    eased: &RunResult,
    kernel: Json,
    chaos: ChaosReport,
    guard: GovernorOutcome,
    energy: Json,
) -> AppLedger {
    AppLedger {
        app: short_label(app).to_string(),
        requests: standard.completed.len() as u64,
        latency_us: standard.latency_sketch(),
        cpi: standard.cpi_sketch(),
        l2_mpki: standard.l2_mpki_sketch(),
        observer: ObserverReport::account(&standard.stats).to_json(),
        syscall_observer: ObserverReport::account(&syscall.stats).to_json(),
        easing: EasingDelta {
            stock_p99_cpi: standard.cpi_sketch().p99().unwrap_or(f64::NAN),
            eased_p99_cpi: eased.cpi_sketch().p99().unwrap_or(f64::NAN),
        },
        kernel,
        chaos: chaos.to_json(),
        guard: guard.to_json(),
        energy,
    }
}

/// Collects the full ledger record for one application.
///
/// # Errors
///
/// Propagates [`RbvError`] from configuration validation.
pub fn collect_app(
    app: AppId,
    seed: u64,
    fast: bool,
    profiler: &mut SelfProfiler,
) -> Result<AppLedger, RbvError> {
    let n = requests_of(app, fast);
    let standard = stage_standard(app, seed, n, profiler)?;
    let syscall = stage_syscall(app, seed, n, profiler)?;
    let eased = stage_easing(app, seed, n, &standard, profiler)?;
    let kernel = stage_kernel(app, &standard, profiler);
    let chaos = stage_chaos(app, seed, fast, profiler)?;
    let guard = stage_guard(app, seed, fast, profiler)?;
    let energy = stage_energy(app, seed, n, &standard, profiler)?;
    Ok(assemble(
        app, &standard, &syscall, &eased, kernel, chaos, guard, energy,
    ))
}

/// Collects a full run ledger over `apps`. Wall-clock stage timings land
/// in `profiler`; they are embedded in the document only when
/// `include_wallclock` is set (and are then ignored by the differ).
///
/// # Errors
///
/// Propagates [`RbvError`] from configuration validation.
pub fn collect(
    apps: &[AppId],
    label: &str,
    seed: u64,
    fast: bool,
    include_wallclock: bool,
    profiler: &mut SelfProfiler,
) -> Result<RunLedger, RbvError> {
    collect_pooled(
        apps,
        label,
        seed,
        fast,
        include_wallclock,
        profiler,
        &rbv_par::Pool::serial(),
    )
}

/// Collects a full run ledger with the independent per-application stages
/// fanned over `pool`.
///
/// Each application contributes four independent tasks — {standard run +
/// easing run} (chained: easing's scheduler threshold derives from the
/// standard run), syscall run, chaos matrix, governed storm — every one a
/// deterministic simulation in `(app, seed, fast)`. Results are collected
/// in submission order and assembled in application order, so the
/// resulting document serializes **byte-identically** at any thread count
/// ([`rbv_par`]'s ordered-collect contract). Worker stage timings are
/// absorbed into `profiler` in the same fixed order; wall-clock values
/// are the only thread-count-dependent output and are embedded only when
/// `include_wallclock` is set (and are then ignored by the differ).
///
/// # Errors
///
/// Propagates the first [`RbvError`] in task-submission order
/// (deterministic regardless of which worker hit it first).
pub fn collect_pooled(
    apps: &[AppId],
    label: &str,
    seed: u64,
    fast: bool,
    include_wallclock: bool,
    profiler: &mut SelfProfiler,
    pool: &rbv_par::Pool,
) -> Result<RunLedger, RbvError> {
    /// One task's payload, tagged for in-order reassembly.
    enum Payload {
        StandardEasingKernelEnergy(Box<(RunResult, RunResult, Json, Json)>),
        Syscall(Box<RunResult>),
        Chaos(Box<ChaosReport>),
        Guard(Box<GovernorOutcome>),
    }
    const TASKS_PER_APP: usize = 4;

    let mut tasks = Vec::with_capacity(apps.len() * TASKS_PER_APP);
    for &app in apps {
        for kind in 0..TASKS_PER_APP {
            tasks.push((app, kind));
        }
    }
    let results = pool.ordered_map(&tasks, |&(app, kind)| {
        let mut worker = SelfProfiler::new();
        let n = requests_of(app, fast);
        let payload = match kind {
            0 => stage_standard(app, seed, n, &mut worker).and_then(|standard| {
                stage_easing(app, seed, n, &standard, &mut worker).and_then(|eased| {
                    let kernel = stage_kernel(app, &standard, &mut worker);
                    stage_energy(app, seed, n, &standard, &mut worker).map(|energy| {
                        Payload::StandardEasingKernelEnergy(Box::new((
                            standard, eased, kernel, energy,
                        )))
                    })
                })
            }),
            1 => stage_syscall(app, seed, n, &mut worker).map(|r| Payload::Syscall(Box::new(r))),
            2 => stage_chaos(app, seed, fast, &mut worker).map(|c| Payload::Chaos(Box::new(c))),
            _ => stage_guard(app, seed, fast, &mut worker).map(|g| Payload::Guard(Box::new(g))),
        };
        (worker, payload)
    });

    // Absorb worker profilers and reassemble records in submission order.
    let mut records = Vec::with_capacity(apps.len());
    let mut results = results.into_iter();
    for &app in apps {
        let mut standard_easing = None;
        let mut syscall = None;
        let mut chaos = None;
        let mut guard = None;
        for _ in 0..TASKS_PER_APP {
            let (worker, payload) = results
                .next()
                .unwrap_or_else(|| unreachable!("one result per submitted task"));
            profiler.absorb(worker);
            match payload? {
                Payload::StandardEasingKernelEnergy(b) => standard_easing = Some(*b),
                Payload::Syscall(b) => syscall = Some(*b),
                Payload::Chaos(b) => chaos = Some(*b),
                Payload::Guard(b) => guard = Some(*b),
            }
        }
        let (standard, eased, kernel, energy) = standard_easing
            .unwrap_or_else(|| unreachable!("standard+easing task always submitted"));
        let syscall = syscall.unwrap_or_else(|| unreachable!("syscall task always submitted"));
        let chaos = chaos.unwrap_or_else(|| unreachable!("chaos task always submitted"));
        let guard = guard.unwrap_or_else(|| unreachable!("guard task always submitted"));
        records.push(assemble(
            app, &standard, &syscall, &eased, kernel, chaos, guard, energy,
        ));
    }
    let profile = include_wallclock.then(|| {
        Json::Obj(
            profiler
                .stages()
                .iter()
                .map(|(name, secs)| (format!("wall_s.{name}"), Json::Num(*secs)))
                .collect(),
        )
    });
    Ok(RunLedger {
        label: label.to_string(),
        seed,
        fast,
        apps: records,
        profile,
    })
}
