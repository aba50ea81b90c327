//! Property tests of the guard's three contracts.
//!
//! 1. **Do-no-harm budget with one-window slack**: across random
//!    measurement-fault plans, a governed run's longest streak of
//!    over-budget windows never exceeds 1 (the AIMD correction lag) and
//!    cumulative compensated overhead stays within budget plus at most
//!    one window's overshoot.
//! 2. **Ladder dwell and hysteresis**: the health ladder moves one rung
//!    at a time, never re-transitions within the dwell, and holds its
//!    rung while the smoothed score sits inside the hysteresis band.
//! 3. **Governor-off bit-identity**: with the governor disabled the
//!    engine takes none of the guard paths, so runs are bit-identical
//!    and carry all-zero guard statistics.
//! 4. **Rung recovery**: whatever overload or thermal history drove the
//!    health ladder into its shed/brownout band or the power ladder onto
//!    its cap/park rungs, sustained calm input always climbs both
//!    ladders back out — no pressure history can latch a degraded rung.

use proptest::prelude::*;

use rbv_guard::{health, HealthLadder, LadderRung, PowerLadder, PowerRung, WindowSample};
use rbv_os::{run_simulation, RunResult, SimConfig, DO_NO_HARM_BUDGET};
use rbv_sim::Cycles;
use rbv_workloads::{factory_for, AppId};

fn storm_run(app: AppId, seed: u64, faults: rbv_os::MeasurementFaults, n: usize) -> RunResult {
    let mut cfg = SimConfig::paper_default().with_interrupt_sampling(app.sampling_period_micros());
    cfg.seed = seed;
    cfg.faults = faults;
    cfg.guard = true;
    let mut factory = factory_for(app, seed, 1.0);
    run_simulation(cfg, factory.as_mut(), n).expect("valid governed config")
}

proptest! {
    // Each case is a full simulation; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Contract 1, end to end: random fault plans cannot push the
    /// governor past its budget-plus-one-window-slack envelope.
    #[test]
    fn governed_overhead_honors_budget_with_one_window_slack(
        app in prop::sample::select(vec![AppId::WebServer, AppId::Tpcc, AppId::Rubis]),
        seed in 0u64..1_000,
        lost in 0.0f64..0.3,
        skid in 0.0f64..0.1,
        overflow in 0.0f64..0.05,
    ) {
        let faults = rbv_os::MeasurementFaults {
            lost_interrupt_prob: lost,
            counter_overflow_prob: overflow,
            counter_skid_sigma: skid,
            syscall_starvation_prob: 0.0,
            syscall_starvation_window: Cycles::ZERO,
        };
        let r = storm_run(app, seed, faults, 30);
        let s = &r.stats;
        prop_assert!(s.governor_windows > 0, "governor accounted no windows");
        prop_assert!(
            s.governor_max_breach_streak <= 1,
            "breach streak {} exceeds the one-window correction lag",
            s.governor_max_breach_streak
        );
        let budget = DO_NO_HARM_BUDGET;
        prop_assert!(
            s.governor_overhead_frac <= budget + s.governor_slack_frac + 1e-9,
            "cumulative overhead {:.5} above budget {:.3} + slack {:.5}",
            s.governor_overhead_frac,
            budget,
            s.governor_slack_frac
        );
        prop_assert!(s.invariant_checks > 0);
        prop_assert_eq!(s.invariant_violations.iter().sum::<u64>(), 0);
    }

    /// Contract 2: whatever window sequence the storm produces, the
    /// ladder moves at most one rung per observation and never twice
    /// within one dwell period.
    #[test]
    fn ladder_moves_one_rung_at_a_time_and_respects_dwell(
        scores in prop::collection::vec(
            (0u64..10, 0u64..5, 0.0f64..1.0, 0.0f64..1.0),
            4..60,
        ),
        step_micros in 20u64..400,
    ) {
        let dwell = health::DWELL;
        let mut ladder = HealthLadder::new();
        let step = Cycles::from_micros(step_micros);
        let mut now = Cycles::ZERO;
        let mut last_transition_at: Option<Cycles> = None;
        for (samples, lost, staleness, noise) in scores {
            now += step;
            let window = WindowSample {
                busy_cycles: 1e6,
                sampling_cycles: 1e3,
                samples,
                samples_lost: lost,
                samples_low_confidence: 0,
                starvation_windows: 0,
                staleness_frac: staleness,
                noise_ewma: noise,
                ..WindowSample::default()
            };
            let before = ladder.rung();
            if let Some(t) = ladder.observe(&window, now) {
                prop_assert_eq!(t.from, before, "transition must leave the current rung");
                prop_assert_eq!(t.to, ladder.rung(), "transition must land on the new rung");
                let adjacent = (t.from as i8 - t.to as i8).abs() == 1;
                prop_assert!(adjacent, "ladder jumped {:?} -> {:?}", t.from, t.to);
                if let Some(prev) = last_transition_at {
                    prop_assert!(
                        now - prev >= dwell,
                        "re-transition after {:?} violates the {:?} dwell",
                        now - prev,
                        dwell
                    );
                }
                last_transition_at = Some(now);
            } else {
                prop_assert_eq!(before, ladder.rung(), "rung changed without a transition");
            }
        }
    }

    /// Contract 2, hysteresis: scores inside the band (between
    /// `degrade_below` and `recover_above`) never move the ladder.
    #[test]
    fn ladder_holds_inside_the_hysteresis_band(
        start in prop::sample::select(vec![
            LadderRung::Easing,
            LadderRung::FrozenPredictions,
            LadderRung::Stock,
        ]),
        noises in prop::collection::vec(0.0f64..1.0, 1..30),
    ) {
        let (lo, hi) = (health::DEGRADE_BELOW, health::RECOVER_ABOVE);
        let noise_ref = health::NOISE_REF;
        let mut ladder = HealthLadder::new();
        let mut now = Cycles::ZERO;
        // Walk the ladder to the starting rung with decisively sick
        // windows, then clear the dwell.
        let sick = WindowSample {
            busy_cycles: 1e6,
            samples: 10,
            samples_lost: 40,
            staleness_frac: 1.0,
            noise_ewma: 10.0 * noise_ref,
            ..WindowSample::default()
        };
        while ladder.rung() != start {
            now += Cycles::from_millis(10);
            ladder.observe(&sick, now);
        }
        for noise in noises {
            now += Cycles::from_millis(10);
            // Craft a window whose raw score lands strictly inside the
            // band by spreading the penalty over the lost, noise, and
            // staleness terms (their weights sum to 0.8). With the
            // smoothed score starting either pinned sick (<= lo) or
            // fresh (1.0), the EWMA converges toward the in-band raw
            // scores without ever crossing `recover_above`, so the one
            // move hysteresis permits is degrading further — recovering
            // on in-band input is a hysteresis violation.
            let target = lo + (hi - lo) * (0.1 + 0.8 * noise);
            let f = (1.0 - target) / 0.8;
            let samples_lost = (1000.0 * f).round() as u64;
            let in_band = WindowSample {
                busy_cycles: 1e6,
                samples: 1000 - samples_lost,
                samples_lost,
                staleness_frac: f,
                noise_ewma: f * noise_ref,
                ..WindowSample::default()
            };
            let before = ladder.rung();
            if let Some(t) = ladder.observe(&in_band, now) {
                prop_assert!(
                    t.to as u8 > before as u8,
                    "in-band score recovered {:?} -> {:?}",
                    t.from,
                    t.to
                );
            }
            prop_assert!(
                ladder.rung() as u8 >= start as u8,
                "in-band scores recovered the ladder from {:?} to {:?}",
                start,
                ladder.rung()
            );
        }
    }

    /// Contract 4: no overload history can latch the health ladder in
    /// its shed/brownout band, and no thermal-pressure history can latch
    /// the power ladder on its cap/park rungs. Once the input calms,
    /// both always recover.
    #[test]
    fn degraded_rungs_always_recover_after_pressure_subsides(
        overload_windows in 1usize..20,
        reject_frac in 0.6f64..1.0,
        queue_frac in 0.5f64..1.0,
        thermal_pressures in prop::collection::vec(0.6f64..2.0, 1..20),
    ) {
        // Health ladder: arbitrary sustained overload, then calm.
        let mut ladder = HealthLadder::new();
        let mut now = Cycles::ZERO;
        let hot = WindowSample {
            busy_cycles: 1e6,
            samples: 10,
            offered: 100,
            rejected: (100.0 * reject_frac) as u64,
            queue_frac,
            ..WindowSample::default()
        };
        for _ in 0..overload_windows {
            now += Cycles::from_millis(10);
            ladder.observe(&hot, now);
        }
        let overloaded = matches!(ladder.rung(), LadderRung::Shed | LadderRung::Brownout);
        prop_assert!(
            overloaded || overload_windows < 3,
            "sustained rejections never pushed the ladder into the overload band"
        );
        // Calm, healthy windows: zero rejections, empty queue. The
        // ladder must walk back out of the overload band (and with a
        // perfect health score, all the way to normal operation).
        let calm = WindowSample {
            busy_cycles: 1e6,
            samples: 10,
            offered: 100,
            ..WindowSample::default()
        };
        for _ in 0..64 {
            now += Cycles::from_millis(10);
            ladder.observe(&calm, now);
        }
        prop_assert!(
            !matches!(ladder.rung(), LadderRung::Shed | LadderRung::Brownout),
            "health ladder latched on {:?} after pressure subsided",
            ladder.rung()
        );

        // Power ladder: arbitrary thermal-pressure history (including
        // readings past the firmware cap), then cool readings.
        let mut power = PowerLadder::new();
        let mut pnow = Cycles::ZERO;
        for pressure in thermal_pressures {
            pnow += Cycles::from_millis(2);
            power.observe(pressure, pnow);
        }
        for _ in 0..64 {
            pnow += Cycles::from_millis(2);
            power.observe(0.05, pnow);
        }
        prop_assert_eq!(
            power.rung(),
            PowerRung::Nominal,
            "power ladder latched on {:?} after the cores cooled",
            power.rung()
        );
    }

    /// Contract 3: governor-disabled runs take no guard path — two runs
    /// are bit-identical and report all-zero guard statistics.
    #[test]
    fn governor_off_runs_are_bit_identical(
        app in prop::sample::select(vec![AppId::WebServer, AppId::Tpcc]),
        seed in 0u64..1_000,
    ) {
        let run = |_: ()| {
            let mut cfg = SimConfig::paper_default()
                .with_interrupt_sampling(app.sampling_period_micros());
            cfg.seed = seed;
            let mut factory = factory_for(app, seed, 1.0);
            run_simulation(cfg, factory.as_mut(), 25).expect("valid config")
        };
        let a = run(());
        let b = run(());
        prop_assert_eq!(&a.stats, &b.stats);
        prop_assert_eq!(&a.completed, &b.completed);
        prop_assert_eq!(&a.failed, &b.failed);
        prop_assert_eq!(a.stats.governor_windows, 0);
        prop_assert_eq!(a.stats.governor_backoffs, 0);
        prop_assert_eq!(a.stats.governor_final_scale, 0.0);
        // Debug builds run the end-of-run `debug_invariant_sweep` (four
        // conservation checks) even without a governor; release builds
        // skip it entirely. Either way nothing may be violated.
        let expected_checks: u64 = if cfg!(debug_assertions) { 4 } else { 0 };
        prop_assert_eq!(a.stats.invariant_checks, expected_checks);
        prop_assert_eq!(
            a.stats.invariant_violations,
            [0u64; rbv_guard::InvariantKind::ALL.len()]
        );
        prop_assert_eq!(a.stats.health_transitions, 0);
    }
}
