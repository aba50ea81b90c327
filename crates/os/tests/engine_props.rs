//! Property-based tests of the execution engine: randomized configurations
//! must preserve the accounting invariants no matter how the scheduler,
//! sampling, arrival, guard, and power knobs are combined.

use proptest::prelude::*;

use rbv_core::series::Metric;
use rbv_os::config::ArrivalProcess;
use rbv_os::{run_simulation, PowerPolicy, SamplingPolicy, SchedulerPolicy, SimConfig};
use rbv_sim::Cycles;
use rbv_workloads::{factory_for, AppId};

fn app_strategy() -> impl Strategy<Value = AppId> {
    prop::sample::select(vec![AppId::WebServer, AppId::Tpcc, AppId::Rubis])
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

proptest! {
    // Each case runs a full simulation; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engine_invariants_hold_under_random_configs(
        app in app_strategy(),
        seed in 0u64..1_000,
        concurrency in 1usize..16,
        quantum_us in 100u64..200_000,
        sampling in sampling_strategy(),
        contention_easing in prop::bool::ANY,
        work_stealing in prop::bool::ANY,
        open_loop in prop::bool::ANY,
        guard in prop::bool::ANY,
        power in prop::bool::ANY,
        noise in 0.0f64..0.3,
    ) {
        let mut cfg = SimConfig::paper_default();
        cfg.seed = seed;
        cfg.concurrency = concurrency;
        cfg.quantum = Cycles::from_micros(quantum_us);
        cfg.sampling = sampling;
        cfg.counter_noise = noise;
        cfg.work_stealing = work_stealing;
        cfg.guard = guard;
        if power {
            cfg.power = Some(PowerPolicy::paper_default());
        }
        if contention_easing {
            cfg.scheduler = SchedulerPolicy::ContentionEasing {
                high_usage_threshold: 0.004,
            };
        }
        if open_loop {
            cfg.arrivals = ArrivalProcess::OpenPoisson {
                mean_interarrival: Cycles::from_micros(200),
            };
        }

        let n = 8;
        let mut reference = factory_for(app, seed, 0.05);
        let expected_ins: f64 = (0..n)
            .map(|_| reference.next_request().total_instructions().as_f64())
            .sum();
        let mut factory = factory_for(app, seed, 0.05);
        let result = run_simulation(cfg, factory.as_mut(), n).expect("valid random config");

        // Completion and conservation.
        prop_assert_eq!(result.completed.len(), n);
        let measured: f64 = result
            .completed
            .iter()
            .map(|r| r.timeline.total_instructions())
            .sum();
        let rel = (measured - expected_ins).abs() / expected_ins;
        prop_assert!(rel < 0.08, "instruction drift {rel}");

        // Per-request sanity.
        let mut ids = Vec::new();
        for r in &result.completed {
            ids.push(r.id);
            let cpi = r.request_cpi().expect("instructions retired");
            prop_assert!(cpi.is_finite() && cpi > 0.1 && cpi < 100.0, "CPI {cpi}");
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
        // No request lost or duplicated.
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), n);

        // Stats aggregates are consistent.
        prop_assert!(result.stats.busy_cycles > 0.0);
        let high_total: f64 = result.stats.high_usage_cycles.iter().sum();
        prop_assert!(high_total <= result.stats.busy_cycles + 1e-6);
        prop_assert!(result.total_time >= Cycles::new(1));
    }
}
