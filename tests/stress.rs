//! Stress and failure-injection tests: the engine's invariants must
//! survive pathological configurations — extreme quanta, extreme sampling
//! rates, deep concurrency, tiny machines, and hostile parameter corners.

use request_behavior_variations::core::series::Metric;
use request_behavior_variations::mem::{MachineSpec, Topology};
use request_behavior_variations::os::{run_simulation, RunResult, SamplingPolicy, SimConfig};
use request_behavior_variations::sim::Cycles;
use request_behavior_variations::workloads::{
    factory_for, AppId, RequestFactory as _, Tpcc, WebServer,
};

fn sane(result: &RunResult, expected: usize) {
    assert_eq!(result.completed.len(), expected);
    for r in &result.completed {
        assert!(r.timeline.total_instructions() > 0.0);
        assert!(r.cpu_cycles() > 0.0);
        // Observer-effect cycles are charged to counters but not to wall
        // time (see rbv-os::machine docs): under the pathological sampling
        // rates of this suite the residue can reach a few percent.
        assert!(r.cpu_cycles() <= r.latency().as_f64() * 1.05 + 1e4);
        let cpi = r.request_cpi().expect("retired instructions");
        assert!(cpi.is_finite() && cpi > 0.1 && cpi < 100.0, "CPI {cpi}");
        for p in r.timeline.periods() {
            assert!(p.cycles >= 0.0 && p.instructions >= 0.0);
            assert!(p.l2_refs >= 0.0 && p.l2_misses >= 0.0);
            if let Some(m) = p.value(Metric::L2MissesPerRef) {
                assert!(m <= 1.0 + 1e-9, "miss ratio {m}");
            }
        }
    }
}

#[test]
fn tiny_quantum_forces_constant_context_switching() {
    // A 20 us quantum is 5000x smaller than the default: every request is
    // chopped into hundreds of execution periods, and attribution must
    // still conserve work.
    let mut cfg = SimConfig::paper_default();
    cfg.quantum = Cycles::from_micros(20);
    let mut f = Tpcc::new(31, 0.1);
    let r = run_simulation(cfg, &mut f, 30).expect("valid");
    sane(&r, 30);
    // Many in-kernel (context switch) samples occurred.
    assert!(
        r.stats.samples_inkernel > 100,
        "{}",
        r.stats.samples_inkernel
    );
}

#[test]
fn extreme_sampling_rate_does_not_distort_totals() {
    // 1 us interrupts: the observer effect is injected thousands of times;
    // "do no harm" compensation must keep totals close to the uninstrumented
    // instruction stream.
    let mut expected = Tpcc::new(32, 0.1);
    let total: f64 = (0..6)
        .map(|_| expected.next_request().total_instructions().as_f64())
        .sum();
    let mut cfg = SimConfig::paper_default().with_interrupt_sampling(1);
    cfg.seed = 32;
    let mut f = Tpcc::new(32, 0.1);
    let r = run_simulation(cfg, &mut f, 6).expect("valid");
    sane(&r, 6);
    let measured: f64 = r
        .completed
        .iter()
        .map(|c| c.timeline.total_instructions())
        .sum();
    let rel = (measured - total).abs() / total;
    assert!(rel < 0.06, "relative drift {rel}");
}

#[test]
fn deep_concurrency_conserves_every_request() {
    let mut cfg = SimConfig::paper_default();
    cfg.concurrency = 64;
    let mut f = WebServer::new(33, 0.5);
    let r = run_simulation(cfg, &mut f, 100).expect("valid");
    sane(&r, 100);
    // Queueing must show: with 64 in flight on 4 cores, latencies dwarf
    // CPU times for most requests.
    let queued = r
        .completed
        .iter()
        .filter(|c| c.latency().as_f64() > c.cpu_cycles() * 3.0)
        .count();
    assert!(queued > 50, "queued {queued}");
}

#[test]
fn single_core_machine_works() {
    let mut cfg = SimConfig::paper_default();
    cfg.machine = MachineSpec {
        topology: Topology {
            cores: 1,
            cores_per_cluster: 1,
        },
        ..MachineSpec::xeon_5160()
    };
    cfg.concurrency = 3;
    let mut f = Tpcc::new(34, 0.05);
    let r = run_simulation(cfg, &mut f, 8).expect("valid");
    sane(&r, 8);
}

#[test]
fn eight_core_machine_works() {
    let mut cfg = SimConfig::paper_default();
    cfg.machine = MachineSpec {
        topology: Topology {
            cores: 8,
            cores_per_cluster: 2,
        },
        ..MachineSpec::xeon_5160()
    };
    cfg.concurrency = 16;
    let mut f = Tpcc::new(35, 0.05);
    let r = run_simulation(cfg, &mut f, 30).expect("valid");
    sane(&r, 30);
}

#[test]
fn zero_requests_is_a_clean_noop() {
    let mut f = Tpcc::new(36, 0.05);
    let r = run_simulation(SimConfig::paper_default(), &mut f, 0).expect("valid");
    assert!(r.completed.is_empty());
    assert_eq!(r.stats.samples_inkernel, 0);
}

#[test]
fn one_request_serial_is_minimal() {
    let mut f = Tpcc::new(37, 0.05);
    let r = run_simulation(SimConfig::paper_default().serial(), &mut f, 1).expect("valid");
    sane(&r, 1);
    // No queueing in a serial single-request run.
    let c = &r.completed[0];
    assert!(c.latency().as_f64() <= c.cpu_cycles() * 1.01);
}

#[test]
fn backup_interrupt_equal_to_min_plus_one_is_legal() {
    let mut cfg = SimConfig::paper_default();
    cfg.sampling = SamplingPolicy::SyscallTriggered {
        t_syscall_min: Cycles::from_micros(1),
        t_backup_int: Cycles::from_micros(2),
    };
    let mut f = WebServer::new(38, 0.2);
    let r = run_simulation(cfg, &mut f, 5).expect("valid");
    sane(&r, 5);
}

#[test]
fn every_app_survives_tiny_scale_and_tiny_quantum_together() {
    for app in AppId::SERVER_APPS {
        let mut cfg = SimConfig::paper_default().with_interrupt_sampling(5);
        cfg.quantum = Cycles::from_micros(50);
        let scale = match app {
            AppId::Tpch => 0.02,
            AppId::Webwork => 0.005,
            _ => 0.05,
        };
        let mut f = factory_for(app, 40, scale);
        let r = run_simulation(cfg, f.as_mut(), 6).expect("valid");
        sane(&r, 6);
    }
}

#[test]
fn partitioning_and_open_loop_compose() {
    use request_behavior_variations::os::config::ArrivalProcess;
    let mut cfg = SimConfig::paper_default().with_interrupt_sampling(100);
    cfg.static_cache_partition = true;
    cfg.arrivals = ArrivalProcess::OpenPoisson {
        mean_interarrival: Cycles::from_micros(300),
    };
    let mut f = factory_for(AppId::Rubis, 41, 0.2);
    let r = run_simulation(cfg, f.as_mut(), 15).expect("valid");
    sane(&r, 15);
}
