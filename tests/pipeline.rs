//! Cross-crate pipeline integration tests: the engine's conservation and
//! determinism guarantees under every workload, exercised through the
//! public facade.

use request_behavior_variations::core::series::Metric;
use request_behavior_variations::os::{run_simulation, RunResult, SimConfig};
use request_behavior_variations::workloads::{factory_for, AppId};

fn run(app: AppId, seed: u64, n: usize, serial: bool) -> RunResult {
    let scale = match app {
        AppId::Tpch => 0.1,
        AppId::Webwork => 0.02,
        _ => 0.3,
    };
    let mut cfg = SimConfig::paper_default().with_interrupt_sampling(app.sampling_period_micros());
    cfg.seed = seed;
    if serial {
        cfg = cfg.serial();
    }
    let mut factory = factory_for(app, seed, scale);
    run_simulation(cfg, factory.as_mut(), n).expect("valid config")
}

#[test]
fn every_application_completes_with_attributed_counters() {
    for app in AppId::SERVER_APPS {
        let result = run(app, 11, 15, false);
        assert_eq!(result.completed.len(), 15, "{app}");
        for r in &result.completed {
            assert!(r.timeline.total_instructions() > 0.0, "{app}");
            assert!(r.timeline.total_cycles() > 0.0, "{app}");
            let cpi = r.request_cpi().expect("instructions retired");
            assert!((0.3..20.0).contains(&cpi), "{app}: CPI {cpi}");
            // CPU time never exceeds wall-clock latency.
            assert!(r.cpu_cycles() <= r.latency().as_f64() * 1.001, "{app}");
            // Serialized timeline periods are all nonempty.
            for p in r.timeline.periods() {
                assert!(p.cycles > 0.0 || p.instructions > 0.0, "{app}");
            }
        }
    }
}

#[test]
fn instructions_are_conserved_through_the_engine() {
    for app in AppId::SERVER_APPS {
        let scale = match app {
            AppId::Tpch => 0.1,
            AppId::Webwork => 0.02,
            _ => 0.3,
        };
        let mut reference = factory_for(app, 23, scale);
        let expected: f64 = (0..10)
            .map(|_| reference.next_request().total_instructions().as_f64())
            .sum();
        let result = run(app, 23, 10, false);
        let measured: f64 = result
            .completed
            .iter()
            .map(|r| r.timeline.total_instructions())
            .sum();
        let rel = (measured - expected).abs() / expected;
        // Observer-effect injection/compensation allows a small residue.
        assert!(
            rel < 0.03,
            "{app}: measured {measured} vs expected {expected}"
        );
    }
}

#[test]
fn runs_are_bit_deterministic() {
    for app in [AppId::Tpcc, AppId::Rubis] {
        let a = run(app, 7, 12, false);
        let b = run(app, 7, 12, false);
        assert_eq!(a.completed.len(), b.completed.len());
        for (x, y) in a.completed.iter().zip(&b.completed) {
            assert_eq!(x.class, y.class, "{app}");
            assert_eq!(x.timeline, y.timeline, "{app}");
            assert_eq!(x.finished_at, y.finished_at, "{app}");
            assert_eq!(x.syscalls.len(), y.syscalls.len(), "{app}");
        }
        assert_eq!(a.stats, b.stats, "{app}");
    }
}

#[test]
fn different_seeds_differ() {
    let a = run(AppId::Tpcc, 1, 10, false);
    let b = run(AppId::Tpcc, 2, 10, false);
    assert_ne!(
        a.completed[0].timeline, b.completed[0].timeline,
        "seeds must decorrelate runs"
    );
}

#[test]
fn serial_runs_never_overlap_requests() {
    let result = run(AppId::WebServer, 3, 12, true);
    for w in result.completed.windows(2) {
        assert!(w[0].finished_at <= w[1].arrived_at);
    }
}

#[test]
fn multi_stage_requests_visit_all_components() {
    let result = run(AppId::Rubis, 5, 10, false);
    for r in &result.completed {
        // Socket hand-offs of the three-tier pipeline show in the syscall
        // stream.
        let names = r.syscall_names();
        use request_behavior_variations::workloads::SyscallName;
        assert!(names.contains(&SyscallName::Sendto));
        assert!(names.contains(&SyscallName::Recvfrom));
    }
}

#[test]
fn derived_metrics_are_internally_consistent() {
    let result = run(AppId::Tpcc, 9, 10, false);
    for r in &result.completed {
        for p in r.timeline.periods() {
            if let (Some(rpi), Some(mpr), Some(mpi)) = (
                p.value(Metric::L2RefsPerIns),
                p.value(Metric::L2MissesPerRef),
                p.value(Metric::L2MissesPerIns),
            ) {
                assert!((rpi * mpr - mpi).abs() < 1e-9 * (1.0 + mpi));
                assert!((0.0..=1.0 + 1e-9).contains(&mpr));
            }
        }
    }
}
