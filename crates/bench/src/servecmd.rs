//! `repro serve <app>` — open-loop serving under overload through the
//! `rbv-openloop` harness: seeded Poisson/MMPP arrivals at a chosen
//! multiple of measured capacity, the overload defenses as ablation
//! flags, and a goodput/shed/retry/deadline-miss ledger streamed from
//! bounded memory.

use std::io::{self, Write};
use std::path::Path;

use rbv_openloop::{serve, ServeReport, ServeSpec};
use rbv_os::RbvError;

/// Runs the serve campaign and prints the report — the human table by
/// default, the machine-readable ledger JSON with `json` (the table
/// then goes to stderr so pipelines stay parseable). `wallclock`
/// opts into the wall-seconds / simulated-requests-per-wall-second
/// profile section, which is deliberately excluded otherwise so output
/// stays byte-identical across `--threads` settings. `spans_out`
/// (requires a spec with `trace` set) writes the retained
/// per-request spans as a Perfetto trace with retry flow arrows.
/// `load_sweep` re-serves the spec across a ladder of load multiples
/// and prints a goodput/latency-vs-load table to stderr (with a joules
/// column when the power model is on).
///
/// # Errors
///
/// Returns [`RbvError`] from validation, the run, or report output.
pub fn run(
    spec: &ServeSpec,
    wallclock: bool,
    out: Option<&Path>,
    json: bool,
    spans_out: Option<&Path>,
    load_sweep: bool,
) -> Result<ServeReport, RbvError> {
    let pool = rbv_par::Pool::global();
    let start = std::time::Instant::now();
    let mut report = serve(spec, &pool)?;
    if wallclock {
        report.wall_seconds = Some(start.elapsed().as_secs_f64());
    }
    let text = report.to_json().to_string_compact();
    if json {
        summarize(&report, &mut io::stderr().lock())?;
        println!("{text}");
    } else {
        summarize(&report, &mut io::stdout().lock())?;
    }
    if let Some(path) = out {
        rbv_guard::write_atomic(path, format!("{text}\n").as_bytes())?;
        eprintln!("[serve ledger written to {}]", path.display());
    }
    if let Some(path) = spans_out {
        let spans: usize = report.spans.iter().map(|(_, s)| s.len()).sum();
        let trace = rbv_trace::spans_to_perfetto(&report.spans);
        rbv_guard::write_atomic(path, trace.to_json_string().as_bytes())?;
        eprintln!("[{spans} request spans written to {}]", path.display());
    }
    if load_sweep {
        sweep_loads(spec, &pool, &mut io::stderr().lock())?;
    }
    Ok(report)
}

/// The load multiples `--load-sweep` walks, as fractions of measured
/// capacity.
pub const SWEEP_LOADS: [f64; 5] = [0.25, 0.5, 1.0, 2.0, 4.0];

/// Re-serves `spec` at each sweep load and writes the
/// goodput/latency-vs-load table. Each point is an independent
/// deterministic serve of the same spec with only the overload factor
/// replaced, so the table composes with every ablation flag; the joules
/// column appears when the power model is on.
///
/// # Errors
///
/// Returns [`RbvError`] from validation, a sweep run, or output.
pub fn sweep_loads<W: Write>(
    spec: &ServeSpec,
    pool: &rbv_par::Pool,
    out: &mut W,
) -> Result<(), RbvError> {
    writeln!(out)?;
    if spec.power {
        writeln!(out, "load sweep:  load   goodput   p99 (us)    joules")?;
    } else {
        writeln!(out, "load sweep:  load   goodput   p99 (us)")?;
    }
    for load in SWEEP_LOADS {
        let mut point = *spec;
        point.overload = load;
        let r = serve(&point, pool)?;
        let p99 = r.latency_us.p99().unwrap_or(f64::NAN);
        if let Some(energy) = &r.energy {
            writeln!(
                out,
                "            {load:5.2}x    {:.3}   {p99:8.1}   {:7.2}",
                r.goodput_frac(),
                energy.total_joules()
            )?;
        } else {
            writeln!(
                out,
                "            {load:5.2}x    {:.3}   {p99:8.1}",
                r.goodput_frac()
            )?;
        }
    }
    Ok(())
}

/// Writes the human-readable serve report.
pub fn summarize<W: Write>(report: &ServeReport, out: &mut W) -> io::Result<()> {
    let spec = &report.spec;
    writeln!(out)?;
    writeln!(
        out,
        "==== serve {} (seed {}, {} requests, {:.2}x overload, {} arrivals) ====",
        spec.app,
        spec.seed,
        spec.requests,
        spec.overload,
        if spec.mmpp { "mmpp" } else { "poisson" }
    )?;
    writeln!(
        out,
        "defenses: admission {} / shed {} / retries {} / guard {} / discipline {}",
        on_off(spec.admission),
        on_off(spec.shed),
        on_off(spec.retries),
        on_off(spec.guard),
        spec.discipline
            .map_or("none", rbv_os::QueueDiscipline::label)
    )?;
    writeln!(out)?;
    writeln!(
        out,
        "  shards                   {} (mean service {:.0} cycles)",
        report.shards, report.mean_service_cycles
    )?;
    writeln!(
        out,
        "  offered / completed      {} / {} (goodput {:.3})",
        report.offered(),
        report.completed,
        report.goodput_frac()
    )?;
    writeln!(
        out,
        "  failed by reason         shed {} / deadline {} / timeout {} / codel {} / brownout {}",
        report.failed_by_reason[0],
        report.failed_by_reason[1],
        report.failed_by_reason[2],
        report.failed_by_reason[3],
        report.failed_by_reason[4]
    )?;
    writeln!(
        out,
        "  client timeouts/retries  {} / {}",
        report.client_timeouts, report.client_retries
    )?;
    writeln!(
        out,
        "  admission rej/retries    {} / {}",
        report.admission_rejections, report.admission_retries
    )?;
    writeln!(
        out,
        "  wasted cycles            {:.3e}",
        report.wasted_cycles
    )?;
    writeln!(
        out,
        "  ladder transitions       {} (final rung {}, recovered {})",
        report.health_transitions,
        report.final_rung.label(),
        if report.recovered() { "yes" } else { "NO" }
    )?;
    if let Some(p50) = report.latency_us.p50() {
        writeln!(
            out,
            "  latency p50/p99 (us)     {:.1} / {:.1}",
            p50,
            report.latency_us.p99().unwrap_or(f64::NAN)
        )?;
    }
    if let Some(trace) = &report.trace {
        writeln!(
            out,
            "  visible p50/p99 (us)     {:.1} / {:.1} (spans: {} checks, {} violations)",
            trace.client_visible_us.p50().unwrap_or(0.0),
            trace.client_visible_us.p99().unwrap_or(0.0),
            trace.invariant_checks,
            trace.violations_total()
        )?;
        let stages = [
            ("queue", trace.queue_us.p99().unwrap_or(0.0)),
            ("service", trace.service_us.p99().unwrap_or(0.0)),
            ("backoff", trace.backoff_us.p99().unwrap_or(0.0)),
            ("other", trace.other_us.p99().unwrap_or(0.0)),
        ];
        let total: f64 = stages.iter().map(|(_, v)| v).sum();
        if total > 0.0 {
            let shares: Vec<String> = stages
                .iter()
                .map(|(name, v)| format!("{name} {:.0}%", 100.0 * v / total))
                .collect();
            writeln!(out, "  p99 stage shares         {}", shares.join(" / "))?;
        }
    }
    if let Some(energy) = &report.energy {
        let per_core: Vec<String> = energy
            .core_uw_cycles
            .iter()
            .map(|&c| format!("{:.2}", rbv_os::joules(c)))
            .collect();
        writeln!(
            out,
            "  energy                   {:.2} J (per core {})",
            energy.total_joules(),
            per_core.join(" / ")
        )?;
        writeln!(
            out,
            "  throttle latches/rel     {} / {} (still throttled {})",
            energy.throttle_engages, energy.throttle_releases, energy.throttled_final
        )?;
        writeln!(
            out,
            "  dvfs transitions         {} (max temp {:.1} C)",
            energy.dvfs_transitions,
            energy.max_temp_milli_c as f64 / 1000.0
        )?;
        writeln!(
            out,
            "  power rung transitions   {} (final rung {})",
            energy.power_rung_transitions,
            energy.power_rung_label()
        )?;
        writeln!(
            out,
            "  energy conservation      {} violations",
            energy.conservation_violations
        )?;
    }
    if let (Some(wall), Some(rate)) = (report.wall_seconds, report.sim_requests_per_wall_second()) {
        writeln!(
            out,
            "  wall-clock               {wall:.2}s ({rate:.0} simulated requests/s)"
        )?;
        let solver = &report.solver;
        writeln!(
            out,
            "  contention solves        {} ({} iterations, {} root steps, {} restarts, {} unconverged)",
            solver.calls, solver.iterations, solver.root_steps, solver.restarts, solver.unconverged
        )?;
        let pops = &report.pops;
        writeln!(
            out,
            "  engine events            {} ({} stale; {} syscall crossings)",
            pops.total(),
            pops.stale_total(),
            report.crossings
        )?;
    }
    Ok(())
}

fn on_off(b: bool) -> &'static str {
    if b {
        "on"
    } else {
        "off"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbv_workloads::AppId;

    #[test]
    fn serve_cmd_runs_writes_and_reports() {
        let dir = std::env::temp_dir().join("rbv-servecmd-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("serve.json");
        let mut spec = ServeSpec::new(AppId::WebServer, 80, 9);
        spec.overload = 2.0;
        let report = run(&spec, true, Some(&path), false, None, false).expect("serve cmd");
        assert_eq!(report.completed + report.failed(), 80);
        assert!(report.wall_seconds.is_some());
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed = rbv_telemetry::Json::parse(text.trim()).expect("ledger parses");
        assert_eq!(
            parsed.get("schema").and_then(rbv_telemetry::Json::as_str),
            Some(rbv_openloop::SCHEMA)
        );
        // The written ledger includes the opt-in profile section here
        // (wallclock was requested) — and the table renders.
        assert!(parsed.get("profile").is_some());
        let mut buf = Vec::new();
        summarize(&report, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("goodput"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn powered_serve_cmd_reports_energy_and_sweeps_loads() {
        let mut spec = ServeSpec::new(AppId::WebServer, 60, 7);
        spec.overload = 0.8;
        spec.power = true;
        spec.guard = true;
        let report = run(&spec, false, None, false, None, false).expect("powered serve");
        let energy = report.energy.as_ref().expect("powered run reports energy");
        assert_eq!(energy.conservation_violations, 0);
        let mut buf = Vec::new();
        summarize(&report, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("energy"), "{s}");
        assert!(s.contains("0 violations"), "{s}");
        // The sweep table renders one row per load, with the joules
        // column present for a powered spec.
        let mut table = Vec::new();
        sweep_loads(&spec, &rbv_par::Pool::serial(), &mut table).expect("sweep");
        let t = String::from_utf8(table).unwrap();
        assert!(t.contains("joules"), "{t}");
        assert_eq!(
            t.lines().filter(|l| l.contains("x ")).count(),
            SWEEP_LOADS.len(),
            "{t}"
        );
    }

    #[test]
    fn traced_serve_cmd_writes_spans_and_reports_attribution() {
        let dir = std::env::temp_dir().join("rbv-servecmd-trace-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let ledger = dir.join("serve.json");
        let spans = dir.join("spans.json");
        // Truncated documents, as a crash mid-write would leave them; the
        // run must replace both whole, through a staging file.
        std::fs::write(&ledger, "{\"schema\":\"rbv-se").unwrap();
        std::fs::write(&spans, "[{\"ph\":").unwrap();
        let mut spec = ServeSpec::new(AppId::WebServer, 60, 5);
        spec.overload = 2.0;
        spec.trace = true;
        let report =
            run(&spec, false, Some(&ledger), false, Some(&spans), false).expect("traced serve");
        let parsed = rbv_guard::read_document(&ledger).expect("ledger parses back");
        assert!(parsed.get("trace").is_some(), "extended ledger has trace");
        let doc = rbv_guard::read_document(&spans).expect("spans parse back");
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            2,
            "no staging file left beside the outputs"
        );
        assert!(!doc
            .get("traceEvents")
            .and_then(rbv_telemetry::Json::as_array)
            .unwrap()
            .is_empty());
        let mut buf = Vec::new();
        summarize(&report, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("visible p50/p99"), "{s}");
        assert!(s.contains("p99 stage shares"), "{s}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
