//! Property-based tests of the execution engine: configurations drawn
//! over the whole `SimConfig` space must either be rejected with
//! `RbvError::Config` or run to completion with every request accounted
//! for, no matter how the scheduler, sampling, arrival, ingress-defense,
//! fault, guard, and power options are combined.

use proptest::prelude::*;

use rbv_core::series::Metric;
use rbv_os::config::ArrivalProcess;
use rbv_os::{
    run_simulation, ClientPolicy, MeasurementFaults, OverloadPolicy, PowerPolicy, QueueDiscipline,
    RbvError, SamplingPolicy, SchedulerPolicy, ShedPolicy, SimConfig,
};
use rbv_sim::Cycles;
use rbv_workloads::{factory_for, AppId};

fn app_strategy() -> impl Strategy<Value = AppId> {
    prop::sample::select(vec![AppId::WebServer, AppId::Tpcc, AppId::Rubis])
}

fn micros(range: std::ops::Range<u64>) -> impl Strategy<Value = Cycles> {
    range.prop_map(Cycles::from_micros)
}

/// A duration drawn from one of three decades (under 5 µs, up to
/// 100 µs, up to 3 ms), so that arrival gaps, deadlines, timeouts,
/// backoffs and CoDel targets land both below and above the 2–110 µs
/// service times of the scaled-down requests. Zero is drawn one time in
/// ten; `validate()` must reject it where a duration has to be positive.
fn span() -> impl Strategy<Value = Cycles> {
    (0u32..10, micros(1..5), micros(5..100), micros(100..3_000)).prop_map(
        |(pick, short, mid, long)| match pick {
            0 => Cycles::ZERO,
            1..=3 => short,
            4..=6 => mid,
            _ => long,
        },
    )
}

fn sampling_strategy() -> impl Strategy<Value = SamplingPolicy> {
    prop_oneof![
        Just(SamplingPolicy::ContextSwitchOnly),
        (5u64..200).prop_map(|us| SamplingPolicy::Interrupt {
            period: Cycles::from_micros(us),
        }),
        (2u64..50, 4u64..40).prop_map(|(min, mult)| SamplingPolicy::SyscallTriggered {
            t_syscall_min: Cycles::from_micros(min),
            t_backup_int: Cycles::from_micros(min * mult),
        }),
    ]
}

/// Closed loop, Poisson, or MMPP arrivals, open loop twice as often
/// (the client and shedding policies need it). Zero dwells and bursts
/// slower than the calm state are drawn too: `validate()` must reject
/// them.
fn arrivals_strategy() -> impl Strategy<Value = ArrivalProcess> {
    let poisson =
        || span().prop_map(|mean_interarrival| ArrivalProcess::OpenPoisson { mean_interarrival });
    let mmpp = || {
        (span(), 0.1f64..1.2, span(), span()).prop_map(
            |(mean_interarrival, burst_frac, mean_calm_dwell, mean_burst_dwell)| {
                ArrivalProcess::OpenMmpp {
                    mean_interarrival,
                    burst_mean_interarrival: Cycles::new(
                        (mean_interarrival.get() as f64 * burst_frac) as u64,
                    ),
                    mean_calm_dwell,
                    mean_burst_dwell,
                }
            },
        )
    };
    prop_oneof![
        Just(ArrivalProcess::ClosedLoop),
        poisson(),
        poisson(),
        mmpp(),
        mmpp(),
    ]
}

/// No discipline half the time (a discipline excludes work stealing).
fn discipline_strategy() -> impl Strategy<Value = Option<QueueDiscipline>> {
    prop::sample::select(vec![
        None,
        None,
        Some(QueueDiscipline::Dfcfs),
        Some(QueueDiscipline::Cfcfs),
    ])
}

/// `true` one time in `n`.
fn one_in(n: usize) -> impl Strategy<Value = bool> {
    (0..n).prop_map(|k| k == 0)
}

fn overload_strategy() -> impl Strategy<Value = Option<OverloadPolicy>> {
    let deadline = prop_oneof![Just(None), span().prop_map(Some)];
    prop_oneof![
        Just(None),
        (0usize..6, deadline, 0u32..4, span()).prop_map(
            |(max_runqueue, deadline, max_retries, retry_backoff)| {
                Some(OverloadPolicy {
                    max_runqueue,
                    deadline,
                    max_retries,
                    retry_backoff,
                })
            }
        ),
    ]
}

fn shed_strategy() -> impl Strategy<Value = Option<ShedPolicy>> {
    prop_oneof![
        Just(None),
        (span(), span()).prop_map(|(target, interval)| Some(ShedPolicy { target, interval })),
    ]
}

fn client_strategy() -> impl Strategy<Value = Option<ClientPolicy>> {
    prop_oneof![
        Just(None),
        (span(), 0u32..4, span()).prop_map(|(timeout, max_retries, retry_backoff)| {
            Some(ClientPolicy {
                timeout,
                max_retries,
                retry_backoff,
            })
        }),
    ]
}

/// Measurement faults, off half the time. The ranges reach past the valid
/// bounds (probabilities above 1, skid sigma of 1 or more, starvation
/// without a window) so that rejection is exercised too.
fn measurement_faults_strategy() -> impl Strategy<Value = MeasurementFaults> {
    prop_oneof![
        Just(MeasurementFaults::none()),
        (0.0f64..1.1, 0.0f64..0.6, 0.0f64..1.05, 0.0f64..0.5, span(),).prop_map(
            |(lost, overflow, skid, starvation, window)| MeasurementFaults {
                lost_interrupt_prob: lost,
                counter_overflow_prob: overflow,
                counter_skid_sigma: skid,
                syscall_starvation_prob: starvation,
                syscall_starvation_window: window,
            }
        ),
    ]
}

fn measure_threshold_strategy() -> impl Strategy<Value = Option<f64>> {
    prop_oneof![Just(None), (0.0f64..0.01).prop_map(Some)]
}

proptest! {
    // Each case runs a full simulation; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_config_is_rejected_or_conserves_its_requests(
        app in app_strategy(),
        seed in 0u64..1_000,
        n in 4usize..32,
        concurrency in 1usize..16,
        quantum_us in 100u64..200_000,
        sampling in sampling_strategy(),
        contention_easing in prop::bool::ANY,
        easing_error_gate in prop::bool::ANY,
        work_stealing in one_in(4),
        static_cache_partition in prop::bool::ANY,
        measure_threshold in measure_threshold_strategy(),
        arrivals in arrivals_strategy(),
        queue_discipline in discipline_strategy(),
        overload in overload_strategy(),
        shed in shed_strategy(),
        client in client_strategy(),
        faults in measurement_faults_strategy(),
        guard in prop::bool::ANY,
        power in prop::bool::ANY,
        thermal_storm in one_in(3),
    ) {
        let mut cfg = SimConfig::paper_default();
        cfg.seed = seed;
        cfg.concurrency = concurrency;
        cfg.quantum = Cycles::from_micros(quantum_us);
        cfg.sampling = sampling;
        if contention_easing {
            cfg.scheduler = SchedulerPolicy::ContentionEasing {
                high_usage_threshold: 0.004,
            };
        }
        cfg.easing_error_gate = easing_error_gate;
        cfg.work_stealing = work_stealing;
        cfg.static_cache_partition = static_cache_partition;
        cfg.measure_threshold = measure_threshold;
        cfg.arrivals = arrivals;
        cfg.queue_discipline = queue_discipline;
        cfg.overload = overload;
        cfg.shed = shed;
        cfg.client = client;
        cfg.faults = faults;
        cfg.guard = guard;
        if power {
            cfg.power = Some(PowerPolicy::paper_default());
        }
        cfg.thermal_storm = thermal_storm;

        let valid = cfg.validate();
        let mut reference = factory_for(app, seed, 0.05);
        let expected_ins: f64 = (0..n)
            .map(|_| reference.next_request().total_instructions().as_f64())
            .sum();
        let mut factory = factory_for(app, seed, 0.05);
        let result = match run_simulation(cfg.clone(), factory.as_mut(), n) {
            Ok(result) => {
                prop_assert!(valid.is_ok(), "ran a config validate() rejects: {cfg:?}");
                result
            }
            Err(RbvError::Config(msg)) => {
                prop_assert!(valid.is_err(), "rejected a valid config ({msg}): {cfg:?}");
                return;
            }
            Err(other) => panic!("non-config error {other:?} for {cfg:?}"),
        };

        // Conservation: every request completes or fails, exactly once.
        prop_assert_eq!(
            result.completed.len() + result.failed.len(),
            n,
            "lost requests under {:?}",
            cfg
        );
        let mut ids: Vec<usize> = result
            .completed
            .iter()
            .map(|r| r.id)
            .chain(result.failed.iter().map(|f| f.id))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), n, "duplicated requests under {:?}", cfg);

        // Per-request sanity.
        for r in &result.completed {
            prop_assert!(r.finished_at >= r.arrived_at);
            for p in r.timeline.periods() {
                prop_assert!(p.cycles >= 0.0 && p.instructions >= 0.0);
                prop_assert!(p.l2_misses <= p.l2_refs + 1e-9);
                if let Some(m) = p.value(Metric::L2MissesPerRef) {
                    prop_assert!((0.0..=1.0 + 1e-9).contains(&m));
                }
            }
            // Syscall records are ordered along the request.
            for w in r.syscalls.windows(2) {
                prop_assert!(w[0].request_ins <= w[1].request_ins + 1e-9);
                prop_assert!(w[0].at <= w[1].at);
            }
        }

        // Runs that lose no request also conserve instructions and keep
        // request CPI in range (the checks before ingress defenses and
        // faults were drawn).
        if result.failed.is_empty() {
            let measured: f64 = result
                .completed
                .iter()
                .map(|r| r.timeline.total_instructions())
                .sum();
            let rel = (measured - expected_ins).abs() / expected_ins;
            prop_assert!(rel < 0.08, "instruction drift {rel} under {cfg:?}");
            prop_assert!(result.stats.busy_cycles > 0.0);
            for r in &result.completed {
                let cpi = r.request_cpi().expect("instructions retired");
                prop_assert!(cpi.is_finite() && cpi > 0.1 && cpi < 100.0, "CPI {cpi} under {cfg:?}");
            }
        }

        // Stats aggregates are consistent.
        let high_total: f64 = result.stats.high_usage_cycles.iter().sum();
        prop_assert!(high_total <= result.stats.busy_cycles + 1e-6);
        prop_assert!(result.total_time >= Cycles::new(1));
    }
}
