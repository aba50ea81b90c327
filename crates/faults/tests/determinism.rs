//! Property tests of the fault layer's determinism contract, plus the
//! easing-under-fault-storm acceptance test.
//!
//! The contract: a run is a pure function of `(config seed, factory
//! seed, FaultPlan, the config's fault channels)`. Identical inputs must
//! reproduce bit-identical `RunStats` and the identical injected-fault
//! sequence; distinct plan seeds must produce distinct fault schedules.

use proptest::prelude::*;

use rbv_faults::{FaultPlan, FaultyFactory, WorkloadFaults};
use rbv_os::{run_simulation, MeasurementFaults, OverloadPolicy, RunResult, SimConfig};
use rbv_sim::Cycles;
use rbv_workloads::{factory_for, AppId};

fn storm_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        workload: Some(WorkloadFaults::storm()),
        seed,
    }
}

fn faulty_run(app: AppId, engine_seed: u64, plan: &FaultPlan, n: usize) -> (RunResult, Vec<usize>) {
    let mut cfg = SimConfig::paper_default().with_interrupt_sampling(app.sampling_period_micros());
    cfg.seed = engine_seed;
    cfg.faults = MeasurementFaults {
        lost_interrupt_prob: 0.2,
        counter_overflow_prob: 0.05,
        counter_skid_sigma: 0.05,
        syscall_starvation_prob: 0.0,
        syscall_starvation_window: Cycles::ZERO,
    };
    cfg.overload = Some(OverloadPolicy {
        max_runqueue: 6,
        deadline: None,
        max_retries: 2,
        retry_backoff: Cycles::from_micros(50),
    });
    let mut factory = FaultyFactory::new(factory_for(app, engine_seed, 1.0), plan.clone());
    let result = run_simulation(cfg, &mut factory, n).expect("valid chaos config");
    (result, factory.injected_ids())
}

proptest! {
    // Each case runs two full simulations; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn identical_seed_and_plan_are_bit_identical(
        app in prop::sample::select(vec![AppId::WebServer, AppId::Tpcc]),
        engine_seed in 0u64..500,
        plan_seed in 0u64..500,
    ) {
        let plan = storm_plan(plan_seed);
        let (a, fa) = faulty_run(app, engine_seed, &plan, 25);
        let (b, fb) = faulty_run(app, engine_seed, &plan, 25);
        prop_assert_eq!(a.stats, b.stats);
        prop_assert_eq!(a.completed, b.completed);
        prop_assert_eq!(a.failed, b.failed);
        prop_assert_eq!(fa, fb);
    }

    #[test]
    fn distinct_plan_seeds_give_distinct_schedules(
        seed_a in 0u64..10_000,
        offset in 1u64..10_000,
    ) {
        let a = storm_plan(seed_a);
        let b = storm_plan(seed_a + offset);
        let sa: Vec<_> = (0..400).map(|i| a.workload_fault_for(i)).collect();
        let sb: Vec<_> = (0..400).map(|i| b.workload_fault_for(i)).collect();
        // 400 cells at 12% each: the chance two independent schedules
        // coincide everywhere is (0.88^2 + 0.12^2/3)^400 ~ 1e-40.
        prop_assert_ne!(sa, sb);
    }
}

#[test]
fn empty_plan_matches_unwrapped_run_exactly() {
    let app = AppId::Tpcc;
    let mut cfg = SimConfig::paper_default().with_interrupt_sampling(app.sampling_period_micros());
    cfg.seed = 11;
    let mut plain = factory_for(app, 11, 1.0);
    let baseline = run_simulation(cfg.clone(), plain.as_mut(), 20).expect("valid");

    let plan = FaultPlan::none(999); // plan seed must not matter when empty
    let mut wrapped = FaultyFactory::new(factory_for(app, 11, 1.0), plan);
    let faulted = run_simulation(cfg, &mut wrapped, 20).expect("valid");

    assert_eq!(baseline, faulted);
    assert!(wrapped.injected().is_empty());
}

#[test]
fn easing_fault_storm_is_no_worse_than_stock_at_p99_cpi() {
    // The tentpole acceptance criterion: under a measurement-fault storm
    // the gated easing scheduler must not lose to stock at p99 request
    // CPI (the confidence gate falls back to stock when vaEWMA error is
    // high, so it can only trade like-for-like or better).
    let outcome = rbv_faults::chaos::easing_storm(AppId::WebServer, 42, 80).expect("storm runs");
    assert!(
        outcome.stock_p99_cpi.is_finite() && outcome.eased_p99_cpi.is_finite(),
        "{outcome:?}"
    );
    assert!(
        outcome.eased_p99_cpi <= outcome.stock_p99_cpi * 1.05,
        "gated easing p99 CPI {:.3} worse than stock {:.3}",
        outcome.eased_p99_cpi,
        outcome.stock_p99_cpi
    );
}

/// The pooled chaos matrix collects its scenarios in submission order, so
/// the report is identical (PartialEq over every outcome, including exact
/// floats) at any thread count — this is what lets `repro chaos --threads N`
/// reproduce the serial report byte for byte.
#[test]
fn chaos_matrix_is_identical_across_thread_counts() {
    let app = AppId::WebServer;
    let serial = rbv_faults::run_matrix(app, 42, true).expect("serial matrix");
    for threads in [2, 5] {
        let pooled = rbv_faults::run_matrix_pooled(
            app,
            42,
            true,
            false,
            false,
            false,
            &rbv_par::Pool::new(threads),
        )
        .expect("pooled matrix");
        assert_eq!(serial, pooled, "chaos report diverged at {threads} threads");
    }
}
