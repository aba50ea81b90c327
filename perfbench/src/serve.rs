//! `serve-web-2x`: the open-loop streaming path of the engine.
//!
//! The timed run calls [`rbv_openloop::serve_with_shard_target`] for the
//! web server at 2× capacity with Poisson arrivals, the default defenses
//! (admission, CoDel shedding, client retries) and the power model on,
//! once for each of [`SUB_SEEDS`] seeds derived from the benchmark seed,
//! each in two shards. serve sizes its arrival rate from an 8-request
//! capacity probe, so one seed's probe alone moves the work a run does by
//! ±12%; over eight seeds that averages out. The timed runs use one
//! thread, and the host's speed is measured between the serve calls. The
//! traced run replays shard 0 of every sub-seed through
//! [`rbv_os::run_simulation_streaming_traced`], with the benchmark's own
//! timing wrappers around the request factory, the completion sink and
//! the span collector it passes in.

use std::hint::black_box;

use rbv_openloop::{probe_mean_service, serve_with_shard_target, ServeReport, ServeSpec};
use rbv_os::{
    run_simulation_streaming, run_simulation_streaming_traced, ArrivalProcess, ClientPolicy,
    CompletedRequest, CompletionSink, FailReason, FailedRequest, OverloadPolicy, PowerPolicy,
    RunResult, ShedPolicy, SimConfig,
};
use rbv_par::Pool;
use rbv_sim::Cycles;
use rbv_telemetry::{QuantileSketch, TraceEvent, TraceSink};
use rbv_trace::SpanCollector;
use rbv_workloads::{factory_for, AppId, RequestFactory};

use crate::report::{fnv1a, Rep};
use crate::spans::{self, Tally, TimedFactory, Tracer};
use crate::workload::{maybe_span, Layers, Trace, Workload};

/// Serve calls per run, each at its own seed derived from the benchmark
/// seed.
pub const SUB_SEEDS: usize = 8;

/// Requests offered per serve call: 40 000 per run.
pub const REQUESTS_PER_SEED: usize = 5_000;

/// Shard-size target of each serve call, so it runs two shards.
pub const SHARD_TARGET: usize = 2_500;

const APP: AppId = AppId::WebServer;

/// The `serve-web-2x` workload for one seed.
pub struct Serve {
    /// One serve spec per sub-seed.
    specs: Vec<ServeSpec>,
    /// Each spec's probed capacity yardstick, which the replayed shard
    /// is sized with.
    mean_services: Vec<f64>,
}

/// The seed of serve call `index` of a run at `seed`. Mixed again after
/// the index is added: consecutive seeds give serve calls that share most
/// of their work, and then eight calls average out no more than one.
fn sub_seed(seed: u64, index: usize) -> u64 {
    splitmix64(splitmix64(seed ^ 0x5e7e_5eed).wrapping_add(index as u64))
}

impl Serve {
    /// The workload at `seed`.
    pub fn new(seed: u64) -> Serve {
        Serve::sized(seed, SUB_SEEDS, REQUESTS_PER_SEED)
    }

    fn sized(seed: u64, sub_seeds: usize, requests: usize) -> Serve {
        let specs: Vec<ServeSpec> = (0..sub_seeds)
            .map(|i| {
                let mut spec = ServeSpec::new(APP, requests, sub_seed(seed, i));
                spec.overload = 2.0;
                spec.power = true;
                spec
            })
            .collect();
        let mean_services = specs
            .iter()
            .map(|spec| {
                probe_mean_service(APP, spec.seed).expect("the serve probe config is valid")
            })
            .collect();
        Serve {
            specs,
            mean_services,
        }
    }

    /// Requests in shard 0 of a serve call's plan.
    fn shard0_requests(spec: &ServeSpec) -> usize {
        let shards = spec.requests.div_ceil(SHARD_TARGET).clamp(1, 64);
        spec.requests.div_ceil(shards)
    }

    /// Replays shard 0 of every serve call; spans and wrappers only when
    /// `trace` is given.
    fn replay(&self, trace: Trace<'_>) -> (Rep, Layers) {
        let mut requests = 0;
        let mut text = String::new();
        let mut problems = Vec::new();
        let mut totals = ReplayTotals::default();
        for (spec, &mean_service) in self.specs.iter().zip(&self.mean_services) {
            let seed = shard_seed(spec.seed, 0);
            let cfg = shard_config(spec, mean_service, seed);
            let n = Self::shard0_requests(spec);
            let mut factory = factory_for(APP, seed, 1.0);
            let mut acc = Accumulator::default();
            let result = match trace {
                None => run_simulation_streaming(cfg, factory.as_mut(), n, &mut acc)
                    .expect("the replayed shard config is valid"),
                Some((tracer, run)) => {
                    let (result, shard_problems) =
                        traced_shard(cfg, factory.as_mut(), n, &mut acc, tracer, run, &mut totals);
                    problems.extend(shard_problems);
                    result
                }
            };
            problems.extend(replay_problems(n, &acc, &result));
            // Debug formatting prints every f64 exactly, so the digest
            // covers the sketches and statistics bit for bit.
            text.push_str(&format!(
                "{acc:?}|{:?}|{:?}\n",
                result.stats, result.total_time
            ));
            totals.add_stats(&result);
            requests += n as u64;
        }
        let rep = Rep {
            requests,
            digest: fnv1a(text.as_bytes()),
            problems,
        };
        let layers = match trace {
            None => Vec::new(),
            Some(_) => totals.layers(),
        };
        (rep, layers)
    }
}

/// One replayed shard through the traced engine entry point, inside a
/// span, with the factory, sink and span collector timed.
fn traced_shard(
    cfg: SimConfig,
    factory: &mut dyn RequestFactory,
    n: usize,
    acc: &mut Accumulator,
    tracer: &Tracer,
    run: u32,
    totals: &mut ReplayTotals,
) -> (RunResult, Vec<String>) {
    let mut timed_factory = TimedFactory::new(factory);
    let mut timed_sink = TimedSink {
        inner: acc,
        tally: Tally::default(),
    };
    let mut timed_trace = TimedTrace {
        inner: SpanCollector::new(),
        tally: Tally::default(),
    };
    let open = tracer.begin("os.run_simulation_streaming_traced", None, run);
    let result = run_simulation_streaming_traced(
        cfg,
        &mut timed_factory,
        n,
        &mut timed_sink,
        &mut timed_trace,
    )
    .expect("the replayed shard config is valid");
    let call = tracer.end(open);
    let (factory_tally, sink_tally, trace_tally) =
        (timed_factory.tally, timed_sink.tally, timed_trace.tally);
    tracer.aggregate("workloads.next_request", &call, factory_tally);
    tracer.aggregate("openloop.sink", &call, sink_tally);
    tracer.aggregate("trace.record", &call, trace_tally);
    totals.engine_self_ns += spans::self_ns(&tracer.spans(), &call) as f64;
    totals.factory.calls += factory_tally.calls;
    totals.factory.busy += factory_tally.busy;
    totals.trace.calls += trace_tally.calls;
    totals.trace.busy += trace_tally.busy;

    let (summary, _) = timed_trace.inner.into_parts();
    let mut problems = Vec::new();
    if summary.completed != acc.completed || summary.unfinished != 0 {
        problems.push(format!(
            "span reconstruction diverged: {} spans completed vs {} streamed, {} unfinished",
            summary.completed, acc.completed, summary.unfinished
        ));
    }
    (result, problems)
}

/// The replayed shards' engine statistics and wrapper times, summed.
#[derive(Debug, Default)]
struct ReplayTotals {
    engine_events: u64,
    engine_self_ns: f64,
    context_switches: u64,
    admission_rejections: u64,
    retries: u64,
    wasted_cycles: f64,
    busy_cycles: f64,
    dvfs_transitions: u64,
    joules: f64,
    factory: Tally,
    trace: Tally,
}

impl ReplayTotals {
    fn add_stats(&mut self, result: &RunResult) {
        let stats = &result.stats;
        self.engine_events += stats.engine_events;
        self.context_switches += stats.context_switches;
        self.admission_rejections += stats.admission_rejections;
        self.retries += stats.admission_retries + stats.client_retries;
        self.wasted_cycles += stats.wasted_cycles;
        self.busy_cycles += stats.busy_cycles;
        if let Some(energy) = &stats.energy {
            self.dvfs_transitions += energy.dvfs_transitions;
            self.joules += energy.total_joules();
        }
    }

    fn layers(&self) -> Layers {
        vec![
            ("os.engine_events", self.engine_events as f64),
            ("os.engine_self_s", self.engine_self_ns / 1e9),
            (
                "os.ns_per_event",
                self.engine_self_ns / self.engine_events.max(1) as f64,
            ),
            ("os.context_switches", self.context_switches as f64),
            ("os.admission_rejections", self.admission_rejections as f64),
            ("os.retries", self.retries as f64),
            (
                "os.wasted_cycles_frac",
                self.wasted_cycles / self.busy_cycles.max(1.0),
            ),
            ("workloads.next_request_s", self.factory.busy.as_secs_f64()),
            ("workloads.requests_drawn", self.factory.calls as f64),
            ("trace.record_s", self.trace.busy.as_secs_f64()),
            ("trace.events", self.trace.calls as f64),
            ("power.dvfs_transitions", self.dvfs_transitions as f64),
            ("power.joules", self.joules),
        ]
    }
}

/// Failed checks of a serve ledger: request conservation and exact
/// energy conservation (the power model is armed).
pub fn ledger_problems(report: &ServeReport) -> Vec<String> {
    let mut problems = Vec::new();
    if report.completed + report.failed() != report.offered() {
        problems.push(format!(
            "conservation: {} completed + {} failed != {} offered",
            report.completed,
            report.failed(),
            report.offered()
        ));
    }
    match &report.energy {
        None => problems.push("power model armed but the ledger has no energy member".into()),
        Some(energy) if energy.conservation_violations != 0 => problems.push(format!(
            "energy conservation violated in {} shard(s)",
            energy.conservation_violations
        )),
        Some(_) => {}
    }
    problems
}

/// Failed checks of one replayed shard: request conservation and exact
/// energy conservation.
fn replay_problems(n: usize, acc: &Accumulator, result: &RunResult) -> Vec<String> {
    let mut problems = Vec::new();
    let failed: u64 = acc.failed_by_reason.iter().sum();
    if acc.completed + failed != n as u64 {
        problems.push(format!(
            "replay conservation: {} completed + {failed} failed != {n} offered",
            acc.completed
        ));
    }
    if let Some(energy) = &result.stats.energy {
        if energy.core_uw_cycles.iter().sum::<u128>() != energy.total_uw_cycles {
            problems.push("replay energy conservation violated".into());
        }
    }
    problems
}

/// The run's outcome from its serve reports and their ledgers: the
/// digest covers every ledger in sub-seed order.
fn serve_rep(reports: &[ServeReport], ledgers: &[String]) -> Rep {
    let mut problems = Vec::new();
    for report in reports {
        for problem in ledger_problems(report) {
            problems.push(format!("seed {}: {problem}", report.spec.seed));
        }
    }
    Rep {
        requests: reports.iter().map(ServeReport::offered).sum(),
        digest: fnv1a(ledgers.join("\n").as_bytes()),
        problems,
    }
}

impl Workload for Serve {
    fn setup(&self) {
        for spec in &self.specs {
            spec.validate().expect("the serve spec is valid");
            black_box(factory_for(APP, spec.seed, 1.0));
            black_box(probe_mean_service(APP, spec.seed).expect("the serve probe config is valid"));
        }
    }

    fn run(&self, pool: &Pool) -> Rep {
        self.run_in_laps(pool, &mut || {})
    }

    /// One lap per serve call and its ledger.
    fn run_in_laps(&self, pool: &Pool, lap: &mut dyn FnMut()) -> Rep {
        let mut reports = Vec::new();
        let mut ledgers = Vec::new();
        for (i, spec) in self.specs.iter().enumerate() {
            if i > 0 {
                lap();
            }
            let report =
                serve_with_shard_target(spec, pool, SHARD_TARGET).expect("the serve spec is valid");
            ledgers.push(report.to_json().to_string_compact());
            reports.push(report);
        }
        serve_rep(&reports, &ledgers)
    }

    /// One thread: the shards of a serve call then run one after the
    /// other, and the host-speed kernel times the same single thread.
    fn timed_threads(&self, _nproc: usize) -> usize {
        1
    }

    fn unit(&self, _pool: &Pool, trace: Trace<'_>) -> (Rep, Layers) {
        self.replay(trace)
    }

    fn traced_run(&self, pool: &Pool, tracer: &Tracer, run: u32) -> (Rep, Layers) {
        let trace = Some((tracer, run));
        let (reports, ledgers) = maybe_span(trace, "serve-web-2x", None, |root| {
            let mut reports = Vec::new();
            let mut ledgers = Vec::new();
            for spec in &self.specs {
                maybe_span(trace, "openloop.probe_mean_service", root, |_| {
                    black_box(probe_mean_service(APP, spec.seed))
                        .expect("the serve probe config is valid")
                });
                let report = maybe_span(trace, "openloop.serve", root, |_| {
                    serve_with_shard_target(spec, pool, SHARD_TARGET)
                        .expect("the serve spec is valid")
                });
                ledgers.push(maybe_span(trace, "telemetry.to_json", root, |_| {
                    report.to_json().to_string_compact()
                }));
                reports.push(report);
            }
            maybe_span(trace, "guard.write_atomic", root, |_| {
                crate::write_output("ledger-serve-web-2x.json", ledgers.join("\n").as_bytes());
            });
            (reports, ledgers)
        });
        let rep = serve_rep(&reports, &ledgers);
        let mut latency_us = QuantileSketch::new();
        for report in &reports {
            latency_us.merge(&report.latency_us);
        }
        let completed: u64 = reports.iter().map(|r| r.completed).sum();
        let spans = tracer.spans();
        let busy = |name| spans::run_busy_s(&spans, name, run);
        let layers = vec![
            ("openloop.probe_s", busy("openloop.probe_mean_service")),
            (
                "openloop.shards",
                reports.iter().map(|r| r.shards).sum::<u64>() as f64,
            ),
            ("telemetry.to_json_s", busy("telemetry.to_json")),
            (
                "telemetry.ledger_bytes",
                ledgers.iter().map(String::len).sum::<usize>() as f64,
            ),
            ("guard.write_atomic_s", busy("guard.write_atomic")),
            (
                "sim.goodput_frac",
                completed as f64 / rep.requests.max(1) as f64,
            ),
            (
                "sim.latency_p50_us",
                latency_us.quantile(0.5).unwrap_or(0.0),
            ),
            (
                "sim.latency_p99_us",
                latency_us.quantile(0.99).unwrap_or(0.0),
            ),
        ];
        (rep, layers)
    }
}

/// SplitMix64 finalizer, as rbv-openloop derives shard seeds.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed rbv-openloop gives shard `index`.
fn shard_seed(seed: u64, index: usize) -> u64 {
    splitmix64(splitmix64(seed ^ 0x0be7_10c4).wrapping_add(index as u64))
}

fn cycles_at_least_one(value: f64) -> Cycles {
    Cycles::new(value.max(1.0) as u64)
}

/// The config rbv-openloop builds for one shard of this spec (Poisson
/// arrivals, admission, shedding and retries on, power on, guard and
/// thermal off), rebuilt from the public config types. The self-test
/// `replayed_shard_matches_a_one_shard_serve` holds the two equal.
fn shard_config(spec: &ServeSpec, mean_service: f64, seed: u64) -> SimConfig {
    let mut cfg =
        SimConfig::paper_default().with_interrupt_sampling(spec.app.sampling_period_micros());
    cfg.seed = seed;
    let cores = cfg.machine.topology.cores as f64;
    let base_gap = (mean_service / (cores * spec.overload)).max(1.0);
    cfg.arrivals = ArrivalProcess::OpenPoisson {
        mean_interarrival: cycles_at_least_one(base_gap),
    };
    cfg.overload = Some(OverloadPolicy {
        max_runqueue: 4,
        deadline: Some(cycles_at_least_one(mean_service * 8.0)),
        max_retries: 3,
        retry_backoff: cycles_at_least_one(mean_service / 4.0),
    });
    cfg.shed = Some(ShedPolicy {
        target: cycles_at_least_one(mean_service * 4.0),
        interval: cycles_at_least_one(mean_service * 16.0),
    });
    cfg.client = Some(ClientPolicy {
        timeout: cycles_at_least_one(mean_service * 12.0),
        max_retries: 3,
        retry_backoff: cycles_at_least_one(mean_service),
    });
    cfg.power = Some(PowerPolicy::paper_default());
    cfg
}

/// The completion sink the replay streams into: the same digests and
/// counters rbv-openloop's accumulator keeps.
#[derive(Debug, Default)]
struct Accumulator {
    completed: u64,
    failed_by_reason: [u64; 5],
    latency_us: QuantileSketch,
    cpu_cycles: QuantileSketch,
}

impl CompletionSink for Accumulator {
    fn on_complete(&mut self, request: &CompletedRequest) {
        self.completed += 1;
        self.latency_us
            .observe(request.latency().as_f64() / 3_000.0);
        self.cpu_cycles.observe(request.cpu_cycles());
    }

    fn on_fail(&mut self, request: &FailedRequest) {
        let slot = match request.reason {
            FailReason::AdmissionShed => 0,
            FailReason::DeadlineAbort => 1,
            FailReason::ClientTimeout => 2,
            FailReason::CodelShed => 3,
            FailReason::BrownoutReject => 4,
        };
        self.failed_by_reason[slot] += 1;
    }
}

/// Times every completion and failure the engine hands over.
struct TimedSink<'a> {
    inner: &'a mut Accumulator,
    tally: Tally,
}

impl CompletionSink for TimedSink<'_> {
    fn on_complete(&mut self, request: &CompletedRequest) {
        let inner = &mut self.inner;
        self.tally.time(|| inner.on_complete(request));
    }

    fn on_fail(&mut self, request: &FailedRequest) {
        let inner = &mut self.inner;
        self.tally.time(|| inner.on_fail(request));
    }
}

/// Times every trace event the engine emits into the span collector.
struct TimedTrace {
    inner: SpanCollector,
    tally: Tally,
}

impl TraceSink for TimedTrace {
    fn record(&mut self, event: TraceEvent) {
        let inner = &mut self.inner;
        self.tally.time(|| inner.record(event));
    }

    fn finish(&mut self) {
        let started = std::time::Instant::now();
        self.inner.finish();
        self.tally.busy += started.elapsed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replayed_shard_matches_a_one_shard_serve() {
        // A one-shard serve runs exactly shard 0, so the replica config
        // must reproduce its ledger counts.
        let workload = Serve::sized(42, 1, 600);
        let spec = &workload.specs[0];
        assert_eq!(Serve::shard0_requests(spec), 600);
        let report = serve_with_shard_target(spec, &Pool::serial(), SHARD_TARGET).expect("serve");
        let seed = shard_seed(spec.seed, 0);
        let cfg = shard_config(spec, workload.mean_services[0], seed);
        let mut factory = factory_for(APP, seed, 1.0);
        let mut acc = Accumulator::default();
        let result =
            run_simulation_streaming(cfg, factory.as_mut(), 600, &mut acc).expect("replay");
        assert_eq!(acc.completed, report.completed);
        assert_eq!(acc.failed_by_reason, report.failed_by_reason);
        assert_eq!(
            result.stats.admission_rejections,
            report.admission_rejections
        );
        assert_eq!(result.stats.busy_cycles, report.busy_cycles);
        assert_eq!(
            result.stats.energy.expect("powered").total_uw_cycles,
            report.energy.expect("powered").total_uw_cycles
        );
    }

    #[test]
    fn tracing_the_replay_leaves_its_digest_unchanged() {
        let workload = Serve::sized(7, 2, 400);
        let tracer = Tracer::new();
        let (plain, _) = workload.replay(None);
        let (traced, layers) = workload.replay(Some((&tracer, 1)));
        assert!(plain.problems.is_empty(), "{:?}", plain.problems);
        assert_eq!(plain, traced);
        let drawn = layers
            .iter()
            .find(|(name, _)| *name == "workloads.requests_drawn")
            .expect("drawn");
        assert!(drawn.1 >= 800.0);
    }

    #[test]
    fn conservation_and_energy_violations_fail_the_run() {
        let workload = Serve::sized(3, 1, 300);
        let report = serve_with_shard_target(&workload.specs[0], &Pool::serial(), SHARD_TARGET)
            .expect("serve");
        assert!(ledger_problems(&report).is_empty());
        let mut broken = report.clone();
        broken.completed += 1;
        assert_eq!(ledger_problems(&broken).len(), 1);
        let mut broken = report;
        if let Some(energy) = broken.energy.as_mut() {
            energy.conservation_violations = 1;
        }
        let problems = ledger_problems(&broken);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("energy"), "{problems:?}");
    }
}
