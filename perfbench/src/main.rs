//! Repository benchmark: runs one workload against the public entry
//! points of the layer crates, checks every run's outputs, and prints
//! the metrics named in `BENCHMARK.json` as the last line of stdout.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-web-2x --seed 42 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` times whole runs with tracing off and prints the
//! end-to-end metrics; `--trace 1` makes the traced run and prints the
//! per-layer metrics. See `perfbench/README.md`.

mod calibrate;
mod classify;
mod cluster;
mod report;
mod serve;
mod spans;
mod workload;

use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use rbv_par::Pool;
use rbv_telemetry::Json;

use report::{median, result_line, Rep, Runs, PER_LAYER};
use spans::Tracer;
use workload::{Layers, Workload};

/// Workload names, as `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["serve-web-2x", "cluster-rubis-easing", "classify-dtw"];

/// Timed runs made even when `--seconds` runs out first.
const MIN_REPS: usize = 3;

/// Traced/untraced pairs made even when `--seconds` runs out first.
const MIN_PAIRS: usize = 2;

/// Set-up batches timed at least, for the `setup_s` median.
const SETUP_BATCHES: usize = 7;

/// Shortest set-up batch, so timer resolution stays in the noise.
const SETUP_BATCH_S: f64 = 0.02;

/// The hidden flag that makes this executable a fresh-process run.
const FRESH_RUN_FLAG: &str = "--fresh-process-run";

/// Committed sim digests and the default and held-out seeds.
const DIGESTS: &str = include_str!("../digests.json");

const USAGE: &str = "usage: perfbench --workload <serve-web-2x|cluster-rubis-easing|classify-dtw> \
                     --seed <u64> --seconds <n> --trace <0|1>";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value:?}"));
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("seconds must be finite and >= 0, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn build(name: &str, seed: u64) -> Box<dyn Workload> {
    match name {
        "serve-web-2x" => Box::new(serve::Serve::new(seed)),
        "cluster-rubis-easing" => Box::new(cluster::Cluster::new(seed)),
        "classify-dtw" => Box::new(classify::Classify::new(seed)),
        _ => unreachable!("parse_args admits only known workloads"),
    }
}

/// The directory the benchmark writes its spans and ledgers into.
fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("the benchmark output directory is writable");
    dir
}

/// Writes `bytes` to `name` in the output directory through the
/// repository's atomic writer.
pub fn write_output(name: &str, bytes: &[u8]) {
    rbv_guard::write_atomic(&out_dir().join(name), bytes)
        .expect("the benchmark output is writable");
}

/// Set-ups per timed batch, so one batch is long enough to time well.
fn setup_batch_size(workload: &dyn Workload) -> usize {
    workload.setup();
    let started = Instant::now();
    workload.setup();
    let one = started.elapsed().as_secs_f64().max(1e-7);
    ((SETUP_BATCH_S / one).ceil() as usize).clamp(1, 100_000)
}

/// Time of one set-up, averaged over a batch of `per_batch`.
fn time_setup_batch(workload: &dyn Workload, per_batch: usize) -> f64 {
    let started = Instant::now();
    for _ in 0..per_batch {
        workload.setup();
    }
    started.elapsed().as_secs_f64() / per_batch as f64
}

/// Peak resident set size of this process, MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status reports VmHWM");
    kib / 1024.0
}

/// The untimed warm-up: one full run on `pool`, whose digest every later
/// run of this seed must repeat on the other thread count.
fn warm_up(workload: &dyn Workload, pool: &Pool, runs: &mut Runs) -> Rep {
    let reference = workload.run(pool);
    runs.record("warm-up run", &reference);
    reference
}

/// Runs the workload once in a fresh process and returns its digest and
/// peak RSS in MiB. A fresh process keeps the allocator's retained free
/// memory from earlier runs out of the high-water mark.
fn fresh_process_run(workload: &str, seed: u64) -> (u64, f64) {
    let exe = std::env::current_exe().expect("the benchmark knows its own executable");
    let out = std::process::Command::new(exe)
        .args([FRESH_RUN_FLAG, workload, &seed.to_string()])
        .output()
        .expect("the fresh process starts");
    let text = String::from_utf8_lossy(&out.stdout);
    let fields: Vec<&str> = text.split_whitespace().collect();
    match (out.status.success(), fields.as_slice()) {
        (true, [digest, mib]) => (
            u64::from_str_radix(digest, 16).expect("the fresh process prints a hex digest"),
            mib.parse().expect("the fresh process prints its peak RSS"),
        ),
        _ => panic!(
            "the fresh process failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ),
    }
}

/// The fresh process itself: one run at one thread, then its digest and
/// peak RSS. At one thread the peak repeats for a seed; at `nproc`
/// threads the allocator's per-thread arenas add a megabyte or two that
/// depends on how the threads interleave.
fn fresh_run_child(workload: &str, seed: u64) {
    let rep = build(workload, seed).run(&Pool::serial());
    println!("{:016x} {}", rep.digest, peak_rss_mib());
}

/// Timed mode: end-to-end metrics with tracing off, timed on `pool` after
/// a warm-up on `warm_pool`. `fresh_run` runs the workload once in a fresh
/// process and returns (digest, peak RSS MiB); `slowdown` measures the
/// host's current speed (see [`calibrate`]).
fn timed(
    workload: &dyn Workload,
    pool: &Pool,
    warm_pool: &Pool,
    seconds: f64,
    fresh_run: &dyn Fn() -> (u64, f64),
    slowdown: &dyn Fn() -> f64,
) -> (Runs, u64, Vec<(&'static str, f64)>) {
    let per_batch = setup_batch_size(workload);
    let mut runs = Runs::default();
    let reference = warm_up(workload, warm_pool, &mut runs);
    let (digest, peak_rss) = fresh_run();
    let mut fresh = Rep {
        requests: reference.requests,
        digest,
        problems: Vec::new(),
    };
    fresh.check_digest(reference.digest);
    runs.record("fresh-process run", &fresh);
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let (mut rates, mut raw_rates, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    // The host speed is measured before every timed run and between the
    // laps of a run; each lap is scaled by the mean of the measurements on
    // either side of it, and each set-up batch by the one just before it.
    let mut slow_before = slowdown();
    while rates.len() < MIN_REPS || started.elapsed() < budget {
        setups.push(time_setup_batch(workload, per_batch) / slow_before);
        let (mut wall, mut scaled) = (0.0, 0.0);
        let mut lap_started = Instant::now();
        let mut lap = || {
            let lap_wall = lap_started.elapsed().as_secs_f64();
            let slow_after = slowdown();
            wall += lap_wall;
            scaled += lap_wall / ((slow_before + slow_after) / 2.0);
            slow_before = slow_after;
            lap_started = Instant::now();
        };
        let mut rep = black_box(workload.run_in_laps(pool, &mut lap));
        lap();
        rep.check_digest(reference.digest);
        runs.record("timed run", &rep);
        raw_rates.push(rep.requests as f64 / wall);
        rates.push(rep.requests as f64 / scaled);
    }
    while setups.len() < SETUP_BATCHES {
        setups.push(time_setup_batch(workload, per_batch) / slow_before);
        slow_before = slowdown();
    }
    let rate = median(&rates);
    let each: Vec<String> = raw_rates.iter().map(|r| format!("{r:.1}")).collect();
    println!(
        "req_per_s: median {rate:.1} at reference host speed ({:.1} as measured) over {} timed \
         runs of {} requests; as measured: {}",
        median(&raw_rates),
        rates.len(),
        reference.requests,
        each.join(" ")
    );
    let metrics = vec![
        ("req_per_s", rate),
        ("peak_rss_mb", peak_rss),
        ("setup_s", median(&setups)),
    ];
    (runs, reference.digest, metrics)
}

/// Traced mode: per-layer metrics from the traced run, plus the tracing
/// overhead against untraced runs of the same unit.
fn traced(
    workload: &dyn Workload,
    pool: &Pool,
    seconds: f64,
    spans_file: &str,
) -> (Runs, u64, Vec<(&'static str, f64)>) {
    let tracer = Tracer::new();
    let mut runs = Runs::default();
    let reference = warm_up(workload, &Pool::serial(), &mut runs);
    let (mut full, full_layers) = workload.traced_run(pool, &tracer, 0);
    full.check_digest(reference.digest);
    runs.record("traced run", &full);
    let mut traced_layers: Vec<Layers> = vec![full_layers];
    let mut overheads = Vec::new();
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    while overheads.len() < MIN_PAIRS || started.elapsed() < budget {
        let run = overheads.len() as u32 + 1;
        // Alternate which side runs first so neither always gets the
        // warmer caches.
        let plain_first = run % 2 == 1;
        let mut plain = None;
        let mut traced = None;
        for is_plain in [plain_first, !plain_first] {
            let side_started = Instant::now();
            if is_plain {
                let (rep, _) = workload.unit(pool, None);
                plain = Some((rep, side_started.elapsed().as_secs_f64()));
            } else {
                let (rep, layers) = workload.unit(pool, Some((&tracer, run)));
                traced = Some((rep, layers, side_started.elapsed().as_secs_f64()));
            }
        }
        let (plain, plain_wall) = plain.expect("both sides ran");
        let (mut traced, layers, traced_wall) = traced.expect("both sides ran");
        runs.record("untraced unit", &plain);
        traced.check_digest(plain.digest);
        runs.record("traced unit", &traced);
        overheads.push(traced_wall / plain_wall - 1.0);
        traced_layers.push(layers);
    }
    tracer
        .write(&out_dir().join(spans_file))
        .expect("the spans file is writable");
    println!(
        "spans: {} recorded, written to perfbench/out/{spans_file}",
        tracer.spans().len()
    );
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, _)| {
            let values: Vec<f64> = if name == "trace.overhead_frac" {
                overheads.clone()
            } else {
                traced_layers
                    .iter()
                    .filter_map(|layers| layers.iter().find(|(n, _)| *n == name))
                    .map(|(_, v)| *v)
                    .collect()
            };
            // A layer the workload does not run reports 0.
            (
                name,
                if values.is_empty() {
                    0.0
                } else {
                    median(&values)
                },
            )
        })
        .collect();
    (runs, reference.digest, metrics)
}

/// The committed digest of `workload` at `seed`, when there is one.
fn committed_digest(workload: &str, seed: u64) -> Option<u64> {
    let doc = Json::parse(DIGESTS).expect("digests.json parses");
    let hex = doc
        .get("sim_digest")?
        .get(workload)?
        .get(&seed.to_string())?
        .as_str()?;
    u64::from_str_radix(hex, 16).ok()
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, workload, seed] = argv.as_slice() {
        if flag == FRESH_RUN_FLAG && WORKLOADS.contains(&workload.as_str()) {
            fresh_run_child(
                workload,
                seed.parse().expect("the parent passes a valid seed"),
            );
            return;
        }
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let workload = build(&args.workload, args.seed);
    let nproc = rbv_par::available_parallelism();
    let threads = if args.trace {
        nproc
    } else {
        workload.timed_threads(nproc)
    };
    let pool = Pool::new(threads);
    // The warm-up runs on the other thread count, so every invocation
    // checks the digest at 1 vs `nproc` threads.
    let warm_pool = Pool::new(if threads == 1 { nproc } else { 1 });
    println!(
        "perfbench {} · seed {} · {} s · trace {} · {threads} pool threads",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let (runs, digest, metrics) = if args.trace {
        let spans_file = format!("spans-{}-seed{}.json", args.workload, args.seed);
        traced(workload.as_ref(), &pool, args.seconds, &spans_file)
    } else {
        let fresh_run = || fresh_process_run(&args.workload, args.seed);
        timed(
            workload.as_ref(),
            &pool,
            &warm_pool,
            args.seconds,
            &fresh_run,
            &calibrate::slowdown,
        )
    };
    match committed_digest(&args.workload, args.seed) {
        Some(committed) if committed == digest => {
            println!("sim_digest {digest:016x}: matches the committed digest");
        }
        Some(committed) => println!(
            "sim_digest {digest:016x}: sim statistics changed (committed {committed:016x})"
        ),
        None => println!("sim_digest {digest:016x}: no committed digest for this seed"),
    }
    for (name, value) in &metrics {
        let unit = report::unit_of(name).unwrap_or("");
        println!("  {name:<32} {value:>16.6} {unit}");
    }
    println!("runs: {} attempted, {} failed", runs.attempted, runs.failed);
    println!("{}", result_line(runs, &metrics));
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::END_TO_END;

    fn catalogue(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string(),
                    m.get("unit")
                        .and_then(Json::as_str)
                        .expect("unit")
                        .to_string(),
                )
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
            .collect()
    }

    #[test]
    fn printed_metric_names_match_benchmark_json() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(catalogue(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(catalogue(&doc, "per_layer"), owned(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn default_and_held_out_seeds_have_committed_digests() {
        let doc = Json::parse(DIGESTS).expect("digests.json parses");
        for key in ["default_seed", "held_out_seed"] {
            let seed = doc.get(key).and_then(Json::as_f64).expect(key) as u64;
            for workload in WORKLOADS {
                assert!(
                    committed_digest(workload, seed).is_some(),
                    "{workload} has no digest for {key} {seed}"
                );
            }
        }
    }

    #[test]
    fn arguments_parse_and_reject_nonsense() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let args = parse_args(&argv(
            "--workload classify-dtw --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(args.seed, 7);
        assert!(args.trace);
        assert!(parse_args(&argv("--workload nope --seed 7 --seconds 10 --trace 1")).is_err());
        assert!(parse_args(&argv("--workload classify-dtw --seed 7 --seconds 10")).is_err());
        assert!(parse_args(&argv(
            "--workload classify-dtw --seed x --seconds 1 --trace 0"
        ))
        .is_err());
        assert!(parse_args(&argv(
            "--workload classify-dtw --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
    }

    /// A workload whose third run returns another digest, as a simulator
    /// that stopped repeating itself would.
    struct Drifting {
        runs: std::sync::atomic::AtomicU64,
    }

    impl Workload for Drifting {
        fn setup(&self) {}

        fn run(&self, _pool: &Pool) -> Rep {
            let n = self.runs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Rep {
                requests: 10,
                digest: if n == 2 { 99 } else { 1 },
                problems: Vec::new(),
            }
        }

        fn unit(&self, pool: &Pool, _trace: workload::Trace<'_>) -> (Rep, Layers) {
            (self.run(pool), Vec::new())
        }
    }

    #[test]
    fn an_injected_digest_mismatch_is_reported_as_a_failed_run() {
        let workload = Drifting {
            runs: std::sync::atomic::AtomicU64::new(0),
        };
        let (runs, digest, metrics) = timed(
            &workload,
            &Pool::serial(),
            &Pool::serial(),
            0.0,
            &|| (1, 10.0),
            &|| 1.0,
        );
        assert_eq!(digest, 1);
        assert_eq!(runs.attempted, 2 + MIN_REPS as u64);
        assert_eq!(runs.failed, 1);
        let line = result_line(runs, &metrics);
        let parsed = Json::parse(&line).expect("result line parses");
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(parsed.get("failed").and_then(Json::as_f64), Some(1.0));
    }
}
