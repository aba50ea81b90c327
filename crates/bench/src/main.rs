//! `repro` — regenerate the tables and figures of *Request Behavior
//! Variations* (ASPLOS 2010).
//!
//! ```text
//! repro <experiment-id> [--fast]   # one artifact
//! repro all [--fast]               # everything, in paper order
//! repro list                       # available experiment ids
//! repro trace <app> [--seed N] [--trace out.json] [--metrics out.json|out.csv]
//! repro chaos <app> [--seed N] [--fast] [--min-recall X] [--json] [--governor] \
//!       [--retry-storm] [--thermal]
//! repro serve <app> [--requests N] [--overload X] [--seed N] [--mmpp] [--guard] \
//!       [--power] [--thermal] [--load-sweep] \
//!       [--discipline none|dfcfs|cfcfs] [--admission on|off] [--shed on|off] \
//!       [--retries on|off] [--out SERVE.json] [--json] [--wallclock] \
//!       [--trace-spans SPANS.json]
//! repro explain <serve-ledger.json>
//! repro cluster <app> [--requests N] [--overload X] [--seed N] [--easing] \
//!       [--single] [--out CLUSTER.json] [--json] [--wallclock] \
//!       [--trace-spans SPANS.json]
//! repro bench [<app>|--all] [--seed N] [--fast] [--out BENCH.json] [--wallclock]
//! repro diff <baseline.json> <candidate.json> [--tolerance pct]
//! repro campaign [--fast] [--seed N] [--drift] [--epochs N] \
//!       [--out WAREHOUSE.json] [--wallclock] [--report] [--json]
//! repro campaign --report <warehouse.json> [--json]
//! ```
//!
//! Every subcommand also accepts the global `--threads N` flag (default:
//! available parallelism) sizing the deterministic work pool that fans
//! out independent simulations. Output is byte-identical at any `N`
//! (see `rbv_par`'s ordered-collect contract).
//!
//! Exit codes follow [`RbvError::exit_code`]: 2 for usage errors, 1 for
//! configuration/IO failures and failed `--min-recall` gates, 0 on
//! success.

use std::path::PathBuf;
use std::process::ExitCode;

use rbv_bench::experiments::{dispatch, REGISTRY};
use rbv_os::RbvError;

/// Parsed command line: boolean flags, valued options, positionals.
#[derive(Debug)]
struct Cli {
    fast: bool,
    syscalls: bool,
    all: bool,
    json: bool,
    governor: bool,
    retry_storm: bool,
    wallclock: bool,
    drift: bool,
    report: bool,
    mmpp: bool,
    guard: bool,
    single: bool,
    easing: bool,
    power: bool,
    thermal: bool,
    load_sweep: bool,
    epochs: Option<u32>,
    seed: Option<u64>,
    threads: Option<usize>,
    requests: Option<usize>,
    overload: Option<f64>,
    discipline: Option<Option<rbv_os::QueueDiscipline>>,
    admission: Option<bool>,
    shed: Option<bool>,
    retries: Option<bool>,
    trace: Option<PathBuf>,
    trace_spans: Option<PathBuf>,
    metrics: Option<PathBuf>,
    out: Option<PathBuf>,
    min_recall: Option<f64>,
    tolerance: Option<f64>,
    positionals: Vec<String>,
}

fn usage() {
    eprintln!("usage: repro <experiment-id>|all|list [--fast] [--seed N]");
    eprintln!("       (any subcommand) [--threads N]   # work-pool size; output is");
    eprintln!("                                        # byte-identical at any N");
    eprintln!("       repro trace <web|tpcc|tpch|rubis|webwork> \\");
    eprintln!("             [--trace out.json] [--metrics out.json|out.csv]");
    eprintln!("       repro chaos <web|tpcc|tpch|rubis|webwork> \\");
    eprintln!("             [--seed N] [--fast] [--min-recall X] [--json] [--governor]");
    eprintln!("             [--retry-storm] [--thermal]");
    eprintln!("       repro serve <web|tpcc|tpch|rubis|webwork> \\");
    eprintln!("             [--requests N] [--overload X] [--seed N] [--mmpp] [--guard]");
    eprintln!("             [--power] [--thermal] [--load-sweep]");
    eprintln!("             [--discipline none|dfcfs|cfcfs] [--admission on|off]");
    eprintln!("             [--shed on|off] [--retries on|off]");
    eprintln!("             [--out SERVE.json] [--json] [--wallclock]");
    eprintln!("             [--trace-spans SPANS.json]");
    eprintln!("       repro explain <serve-ledger.json>");
    eprintln!("       repro cluster <web|tpcc|tpch|rubis|webwork> \\");
    eprintln!("             [--requests N] [--overload X] [--seed N] [--easing] [--single]");
    eprintln!("             [--out CLUSTER.json] [--json] [--wallclock]");
    eprintln!("             [--trace-spans SPANS.json]");
    eprintln!("       repro bench [<app>|--all] [--seed N] [--fast] \\");
    eprintln!("             [--out BENCH.json] [--wallclock]");
    eprintln!("       repro diff <baseline.json> <candidate.json> [--tolerance pct]");
    eprintln!("       repro campaign [--fast] [--seed N] [--drift] [--epochs N] \\");
    eprintln!("             [--out WAREHOUSE.json] [--wallclock] [--report] [--json]");
    eprintln!("       repro campaign --report <warehouse.json> [--json]");
    eprintln!("run `repro list` for the available experiments");
}

/// Parses the `on`/`off` value of a defense ablation flag.
fn parse_on_off(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<bool, RbvError> {
    let v = it
        .next()
        .ok_or_else(|| RbvError::Cli(format!("{flag} requires on|off")))?;
    match v.as_str() {
        "on" => Ok(true),
        "off" => Ok(false),
        other => Err(RbvError::Cli(format!("{flag} takes on|off, got `{other}`"))),
    }
}

fn parse(args: Vec<String>) -> Result<Cli, RbvError> {
    let mut cli = Cli {
        fast: false,
        syscalls: false,
        all: false,
        json: false,
        governor: false,
        retry_storm: false,
        wallclock: false,
        drift: false,
        report: false,
        mmpp: false,
        guard: false,
        single: false,
        easing: false,
        power: false,
        thermal: false,
        load_sweep: false,
        epochs: None,
        seed: None,
        threads: None,
        requests: None,
        overload: None,
        discipline: None,
        admission: None,
        shed: None,
        retries: None,
        trace: None,
        trace_spans: None,
        metrics: None,
        out: None,
        min_recall: None,
        tolerance: None,
        positionals: Vec::new(),
    };
    let cli_err = |msg: String| RbvError::Cli(msg);
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--fast" => cli.fast = true,
            "--syscalls" => cli.syscalls = true,
            "--all" => cli.all = true,
            "--json" => cli.json = true,
            "--governor" => cli.governor = true,
            "--retry-storm" => cli.retry_storm = true,
            "--mmpp" => cli.mmpp = true,
            "--guard" => cli.guard = true,
            "--single" => cli.single = true,
            "--easing" => cli.easing = true,
            "--power" => cli.power = true,
            "--thermal" => cli.thermal = true,
            "--load-sweep" => cli.load_sweep = true,
            "--wallclock" => cli.wallclock = true,
            "--drift" => cli.drift = true,
            "--report" => cli.report = true,
            "--epochs" => {
                let v = it
                    .next()
                    .ok_or_else(|| cli_err("--epochs requires a value".into()))?;
                let n: u32 = v
                    .parse()
                    .map_err(|_| cli_err(format!("bad epoch count `{v}`")))?;
                if n < 2 {
                    return Err(cli_err(
                        "--epochs must be at least 2 (day + night reference epochs)".into(),
                    ));
                }
                cli.epochs = Some(n);
            }
            "--seed" => {
                let v = it
                    .next()
                    .ok_or_else(|| cli_err("--seed requires a value".into()))?;
                cli.seed = Some(v.parse().map_err(|_| cli_err(format!("bad seed `{v}`")))?);
            }
            "--threads" => {
                let v = it
                    .next()
                    .ok_or_else(|| cli_err("--threads requires a value".into()))?;
                let n: usize = v
                    .parse()
                    .map_err(|_| cli_err(format!("bad thread count `{v}`")))?;
                if n == 0 {
                    return Err(cli_err("--threads must be at least 1".into()));
                }
                cli.threads = Some(n);
            }
            "--min-recall" => {
                let v = it
                    .next()
                    .ok_or_else(|| cli_err("--min-recall requires a value".into()))?;
                let r: f64 = v
                    .parse()
                    .map_err(|_| cli_err(format!("bad recall `{v}`")))?;
                if !(0.0..=1.0).contains(&r) {
                    return Err(cli_err(format!("recall {r} must be in [0, 1]")));
                }
                cli.min_recall = Some(r);
            }
            "--requests" => {
                let v = it
                    .next()
                    .ok_or_else(|| cli_err("--requests requires a value".into()))?;
                let n: usize = v
                    .parse()
                    .map_err(|_| cli_err(format!("bad request count `{v}`")))?;
                if n == 0 {
                    return Err(cli_err("--requests must be at least 1".into()));
                }
                cli.requests = Some(n);
            }
            "--overload" => {
                let v = it
                    .next()
                    .ok_or_else(|| cli_err("--overload requires a value".into()))?;
                let x: f64 = v
                    .parse()
                    .map_err(|_| cli_err(format!("bad overload factor `{v}`")))?;
                if !x.is_finite() || x <= 0.0 {
                    return Err(cli_err(format!(
                        "overload factor {x} must be finite and positive"
                    )));
                }
                cli.overload = Some(x);
            }
            "--discipline" => {
                let v = it
                    .next()
                    .ok_or_else(|| cli_err("--discipline requires a value".into()))?;
                cli.discipline = Some(match v.as_str() {
                    "none" => None,
                    "dfcfs" => Some(rbv_os::QueueDiscipline::Dfcfs),
                    "cfcfs" => Some(rbv_os::QueueDiscipline::Cfcfs),
                    other => {
                        return Err(cli_err(format!(
                            "bad discipline `{other}` (none|dfcfs|cfcfs)"
                        )));
                    }
                });
            }
            "--admission" => cli.admission = Some(parse_on_off(&mut it, "--admission")?),
            "--shed" => cli.shed = Some(parse_on_off(&mut it, "--shed")?),
            "--retries" => cli.retries = Some(parse_on_off(&mut it, "--retries")?),
            "--trace" => {
                cli.trace = Some(PathBuf::from(
                    it.next()
                        .ok_or_else(|| cli_err("--trace requires a path".into()))?,
                ));
            }
            "--trace-spans" => {
                cli.trace_spans =
                    Some(PathBuf::from(it.next().ok_or_else(|| {
                        cli_err("--trace-spans requires a path".into())
                    })?));
            }
            "--metrics" => {
                cli.metrics =
                    Some(PathBuf::from(it.next().ok_or_else(|| {
                        cli_err("--metrics requires a path".into())
                    })?));
            }
            "--out" => {
                cli.out = Some(PathBuf::from(
                    it.next()
                        .ok_or_else(|| cli_err("--out requires a path".into()))?,
                ));
            }
            "--tolerance" => {
                let v = it
                    .next()
                    .ok_or_else(|| cli_err("--tolerance requires a value".into()))?;
                let pct: f64 = v
                    .parse()
                    .map_err(|_| cli_err(format!("bad tolerance `{v}`")))?;
                if !pct.is_finite() || pct < 0.0 {
                    return Err(cli_err(format!("tolerance {pct} must be finite and >= 0")));
                }
                cli.tolerance = Some(pct / 100.0);
            }
            other if other.starts_with("--") => {
                return Err(cli_err(format!("unknown flag `{other}`")));
            }
            _ => cli.positionals.push(arg),
        }
    }
    Ok(cli)
}

/// Prints `e` and converts it to its process exit code.
fn fail(e: &RbvError) -> ExitCode {
    eprintln!("error: {e}");
    ExitCode::from(e.exit_code())
}

fn main() -> ExitCode {
    let cli = match parse(std::env::args().skip(1).collect()) {
        Ok(cli) => cli,
        Err(e) => {
            let code = fail(&e);
            usage();
            return code;
        }
    };
    let fast = cli.fast;
    // Size the global deterministic work pool for every downstream
    // harness; results do not depend on this (ordered collect), only
    // wall-clock time does.
    rbv_par::set_threads(cli.threads.unwrap_or_else(rbv_par::available_parallelism));

    let Some(first) = cli.positionals.first() else {
        usage();
        return ExitCode::from(2);
    };

    match first.as_str() {
        "dump" => {
            let Some(app) = cli
                .positionals
                .get(1)
                .and_then(|a| rbv_bench::experiments::dump::parse_app(a))
            else {
                eprintln!("usage: repro dump <web|tpcc|tpch|rubis|webwork> [--syscalls] [--fast]");
                return ExitCode::from(2);
            };
            rbv_bench::experiments::dump::run(app, fast, cli.syscalls);
            ExitCode::SUCCESS
        }
        "trace" => {
            let Some(app) = cli
                .positionals
                .get(1)
                .and_then(|a| rbv_bench::experiments::dump::parse_app(a))
            else {
                eprintln!("usage: repro trace <web|tpcc|tpch|rubis|webwork> \\");
                eprintln!(
                    "             [--seed N] [--trace out.json] [--metrics out.json|out.csv]"
                );
                return ExitCode::from(2);
            };
            let seed = cli.seed.unwrap_or(1);
            match rbv_bench::tracecmd::run(
                app,
                fast,
                seed,
                cli.trace.as_deref(),
                cli.metrics.as_deref(),
            ) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => fail(&e),
            }
        }
        "chaos" => {
            let Some(app) = cli
                .positionals
                .get(1)
                .and_then(|a| rbv_bench::experiments::dump::parse_app(a))
            else {
                eprintln!("usage: repro chaos <web|tpcc|tpch|rubis|webwork> \\");
                eprintln!(
                    "             [--seed N] [--fast] [--min-recall X] [--json] [--governor]"
                );
                eprintln!("             [--retry-storm] [--thermal]");
                return ExitCode::from(2);
            };
            let seed = cli.seed.unwrap_or(42);
            match rbv_bench::chaoscmd::run(
                app,
                seed,
                fast,
                cli.min_recall,
                cli.json,
                cli.governor,
                cli.retry_storm,
                cli.thermal,
            ) {
                Ok((_, true)) => ExitCode::SUCCESS,
                Ok((_, false)) => ExitCode::FAILURE,
                Err(e) => fail(&e),
            }
        }
        "serve" => {
            let Some(app) = cli
                .positionals
                .get(1)
                .and_then(|a| rbv_bench::experiments::dump::parse_app(a))
            else {
                eprintln!("usage: repro serve <web|tpcc|tpch|rubis|webwork> \\");
                eprintln!("             [--requests N] [--overload X] [--seed N] [--mmpp]");
                eprintln!("             [--power] [--thermal] [--load-sweep]");
                eprintln!("             [--discipline none|dfcfs|cfcfs] [--admission on|off]");
                eprintln!("             [--shed on|off] [--retries on|off] [--guard]");
                eprintln!("             [--out SERVE.json] [--json] [--wallclock]");
                eprintln!("             [--trace-spans SPANS.json]");
                return ExitCode::from(2);
            };
            let mut spec = rbv_openloop::ServeSpec::new(
                app,
                cli.requests.unwrap_or(10_000),
                cli.seed.unwrap_or(42),
            );
            if let Some(x) = cli.overload {
                spec.overload = x;
            }
            if let Some(d) = cli.discipline {
                spec.discipline = d;
            }
            if let Some(on) = cli.admission {
                spec.admission = on;
            }
            if let Some(on) = cli.shed {
                spec.shed = on;
            }
            if let Some(on) = cli.retries {
                spec.retries = on;
            }
            spec.guard = cli.guard;
            spec.mmpp = cli.mmpp;
            spec.power = cli.power;
            spec.thermal = cli.thermal;
            spec.trace = cli.trace_spans.is_some();
            match rbv_bench::servecmd::run(
                &spec,
                cli.wallclock,
                cli.out.as_deref(),
                cli.json,
                cli.trace_spans.as_deref(),
                cli.load_sweep,
            ) {
                Ok(_) => ExitCode::SUCCESS,
                Err(e) => fail(&e),
            }
        }
        "cluster" => {
            let Some(app) = cli
                .positionals
                .get(1)
                .and_then(|a| rbv_bench::experiments::dump::parse_app(a))
            else {
                eprintln!("usage: repro cluster <web|tpcc|tpch|rubis|webwork> \\");
                eprintln!("             [--requests N] [--overload X] [--seed N] [--easing]");
                eprintln!("             [--single] [--out CLUSTER.json] [--json] [--wallclock]");
                eprintln!("             [--trace-spans SPANS.json]");
                return ExitCode::from(2);
            };
            let mut spec = rbv_cluster::ClusterSpec::three_tier(app);
            if let Some(n) = cli.requests {
                spec.requests = n;
            }
            if let Some(x) = cli.overload {
                spec.overload = x;
            }
            if let Some(seed) = cli.seed {
                spec.seed = seed;
            }
            spec.easing = cli.easing;
            if cli.single {
                spec.topology = rbv_cluster::ClusterTopology::Single;
            }
            spec.trace_spans = cli.trace_spans.is_some();
            match rbv_bench::clustercmd::run(
                &spec,
                cli.wallclock,
                cli.out.as_deref(),
                cli.json,
                cli.trace_spans.as_deref(),
            ) {
                Ok((_, true)) => ExitCode::SUCCESS,
                Ok((_, false)) => ExitCode::FAILURE,
                Err(e) => fail(&e),
            }
        }
        "explain" => {
            let Some(ledger) = cli.positionals.get(1) else {
                eprintln!("usage: repro explain <serve-ledger.json>");
                return ExitCode::from(2);
            };
            match rbv_bench::explaincmd::run(std::path::Path::new(ledger)) {
                Ok(_) => ExitCode::SUCCESS,
                Err(e) => fail(&e),
            }
        }
        "bench" => {
            let (apps, label): (Vec<_>, String) = if cli.all {
                (rbv_ledger::BENCH_APPS.to_vec(), "all".to_string())
            } else {
                match cli
                    .positionals
                    .get(1)
                    .and_then(|a| rbv_bench::experiments::dump::parse_app(a))
                {
                    Some(app) => (vec![app], rbv_ledger::short_label(app).to_string()),
                    None => {
                        eprintln!("usage: repro bench [<web|tpcc|tpch|rubis|webwork>|--all] \\");
                        eprintln!(
                            "             [--seed N] [--fast] [--out BENCH.json] [--wallclock]"
                        );
                        return ExitCode::from(2);
                    }
                }
            };
            let seed = cli.seed.unwrap_or(42);
            match rbv_bench::benchcmd::run(
                &apps,
                &label,
                seed,
                fast,
                cli.wallclock,
                cli.out.as_deref(),
            ) {
                Ok(_) => ExitCode::SUCCESS,
                Err(e) => fail(&e),
            }
        }
        "diff" => {
            let (Some(baseline), Some(candidate)) =
                (cli.positionals.get(1), cli.positionals.get(2))
            else {
                eprintln!("usage: repro diff <baseline.json> <candidate.json> [--tolerance pct]");
                return ExitCode::from(2);
            };
            match rbv_bench::diffcmd::run(
                std::path::Path::new(baseline),
                std::path::Path::new(candidate),
                cli.tolerance,
            ) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => fail(&e),
            }
        }
        "campaign" => {
            let load = cli.positionals.get(1).map(std::path::Path::new);
            if load.is_some() && !cli.report {
                eprintln!("a warehouse path is only meaningful with --report");
                eprintln!("usage: repro campaign --report <warehouse.json> [--json]");
                return ExitCode::from(2);
            }
            let seed = cli.seed.unwrap_or(42);
            match rbv_bench::campaigncmd::run(
                load,
                seed,
                fast,
                cli.drift,
                cli.epochs,
                cli.wallclock,
                cli.out.as_deref(),
                cli.report,
                cli.json,
            ) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => fail(&e),
            }
        }
        "list" => {
            for (id, desc) in REGISTRY {
                println!("{id:18} {desc}");
            }
            ExitCode::SUCCESS
        }
        "all" => {
            let start = std::time::Instant::now();
            // fig13 shares fig12's computation; skip the duplicate run.
            for (id, _) in REGISTRY.iter().filter(|(id, _)| *id != "fig13") {
                let t = std::time::Instant::now();
                dispatch(id, fast);
                eprintln!("[{id} done in {:.1?}]", t.elapsed());
            }
            eprintln!("[all experiments done in {:.1?}]", start.elapsed());
            ExitCode::SUCCESS
        }
        _ => {
            let mut ok = true;
            for id in &cli.positionals {
                if !dispatch(id, fast) {
                    eprintln!("unknown experiment `{id}`; run `repro list`");
                    ok = false;
                }
            }
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn overload_must_be_finite_and_positive() {
        for bad in ["-1", "0", "nan", "inf", "-inf", "nope"] {
            let err = parse(argv(&format!("serve web --overload {bad}")))
                .expect_err("bad overload must be a usage error");
            assert!(matches!(err, RbvError::Cli(_)), "{bad}: {err}");
            assert_eq!(err.exit_code(), 2, "{bad}");
        }
        let cli = parse(argv("serve web --overload 2.5")).expect("valid overload");
        assert_eq!(cli.overload, Some(2.5));
    }

    #[test]
    fn trace_spans_takes_a_path() {
        let cli = parse(argv("serve web --trace-spans spans.json")).expect("parses");
        assert_eq!(
            cli.trace_spans.as_deref(),
            Some(std::path::Path::new("spans.json"))
        );
        let err = parse(argv("serve web --trace-spans")).expect_err("missing path");
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn zero_requests_is_a_usage_error() {
        // `repro serve <app> --requests 0` must exit 2, not run an empty
        // campaign or divide by zero downstream.
        let err = parse(argv("serve web --requests 0")).expect_err("zero requests");
        assert!(matches!(err, RbvError::Cli(_)), "{err}");
        assert_eq!(err.exit_code(), 2);
        let cli = parse(argv("serve web --requests 80")).expect("valid count");
        assert_eq!(cli.requests, Some(80));
    }

    #[test]
    fn too_few_epochs_is_a_usage_error() {
        // `repro campaign --epochs 0` (and 1) must exit 2: the drift
        // scenario needs the day + night reference epochs at minimum.
        for bad in ["0", "1"] {
            let err = parse(argv(&format!("campaign --epochs {bad}"))).expect_err("too few epochs");
            assert!(matches!(err, RbvError::Cli(_)), "{bad}: {err}");
            assert_eq!(err.exit_code(), 2, "{bad}");
        }
        let cli = parse(argv("campaign --epochs 2")).expect("valid count");
        assert_eq!(cli.epochs, Some(2));
    }

    #[test]
    fn power_thermal_and_load_sweep_flags_parse() {
        let cli = parse(argv("serve web --power --thermal --load-sweep")).expect("parses");
        assert!(cli.power && cli.thermal && cli.load_sweep);
        let cli = parse(argv("chaos web --thermal")).expect("parses");
        assert!(cli.thermal && !cli.power);
    }

    #[test]
    fn unknown_flags_are_usage_errors() {
        let err = parse(argv("serve web --bogus")).expect_err("unknown flag");
        assert_eq!(err.exit_code(), 2);
    }
}
