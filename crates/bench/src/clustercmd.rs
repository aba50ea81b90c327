//! `repro cluster <app>` — multi-tier cluster simulation through the
//! `rbv-cluster` harness: frontend/app/DB machines stepped under one
//! deterministic cross-machine event loop, a seeded latency/bandwidth
//! network, and per-tier latency/CPI attribution whose stages exactly
//! partition each request's client-visible latency.

use std::io::{self, Write};
use std::path::Path;

use rbv_cluster::{run_cluster, ClusterReport, ClusterSpec};
use rbv_os::RbvError;

/// Runs the cluster campaign and prints the report — the human table by
/// default, the machine-readable `rbv-cluster/v1` ledger JSON with
/// `json` (the table then goes to stderr so pipelines stay parseable).
/// `wallclock` times the run into the ledger's non-diffed `"profile"`
/// member, which is left out otherwise so the ledger stays
/// byte-identical across `--threads` settings. `out` writes the ledger
/// atomically; `spans_out` (requires a spec
/// with `trace_spans` set) writes the retained per-request spans as a
/// Perfetto trace with one track-group per machine and cross-tier flow
/// arrows.
///
/// Returns the report together with its invariant verdict: a run whose
/// cross-tier partition checks recorded any violation exits nonzero —
/// the attribution is only worth shipping when it is exact.
///
/// # Errors
///
/// Returns [`RbvError`] from validation, the run, or report output.
pub fn run(
    spec: &ClusterSpec,
    wallclock: bool,
    out: Option<&Path>,
    json: bool,
    spans_out: Option<&Path>,
) -> Result<(ClusterReport, bool), RbvError> {
    let pool = rbv_par::Pool::global();
    let start = std::time::Instant::now();
    let mut report = run_cluster(spec, &pool)?;
    if wallclock {
        report.wall_seconds = Some(start.elapsed().as_secs_f64());
    }
    let text = report.to_json().to_string_compact();
    if json {
        let mut err = io::stderr().lock();
        err.write_all(report.render().as_bytes())?;
        println!("{text}");
    } else {
        let mut outw = io::stdout().lock();
        outw.write_all(report.render().as_bytes())?;
    }
    if let Some(wall) = report.wall_seconds {
        // The non-diffed profile: wall time and how much of each pass
        // stepped its machines side by side in lookahead windows.
        eprintln!("[cluster wall-clock {wall:.3}s]");
        for pass in &report.passes {
            eprintln!(
                "[{} pass: {} windows, {} window events, {} serial-tail events]",
                pass.pass, pass.windows, pass.window_events, pass.serial_tail_events
            );
        }
        let solver = &report.solver;
        eprintln!(
            "[contention solves: {} calls, {} iterations, {} root steps, {} restarts, {} unconverged]",
            solver.calls, solver.iterations, solver.root_steps, solver.restarts, solver.unconverged
        );
        eprintln!(
            "[engine events: {} ({} stale); syscall crossings: {}]",
            report.pops.total(),
            report.pops.stale_total(),
            report.crossings
        );
    }
    if let Some(path) = out {
        rbv_guard::write_atomic(path, format!("{text}\n").as_bytes())?;
        eprintln!("[cluster ledger written to {}]", path.display());
    }
    if let Some(path) = spans_out {
        let trace = rbv_trace::cluster_to_perfetto(&report.spans, &report.machine_labels());
        rbv_guard::write_atomic(path, trace.to_json_string().as_bytes())?;
        eprintln!(
            "[{} request spans written to {}]",
            report.spans.len(),
            path.display()
        );
    }
    let clean = report.clean();
    if !clean {
        eprintln!(
            "cluster invariants violated: {}",
            report
                .summary
                .invariants
                .first_violation()
                .unwrap_or("unknown")
        );
    }
    Ok((report, clean))
}
