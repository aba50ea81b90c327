//! Shared experiment plumbing: standard run configurations, per-app
//! scales, and plain-text table/series rendering.

// Same exemption as `experiments`: the standard-run configs are valid by
// construction and the stdout convenience printers abort on a broken
// pipe, which is the conventional CLI behavior.
#![allow(clippy::expect_used)]

use std::io::{self, Write};

use rbv_core::series::Metric;
use rbv_os::{run_simulation, RunResult, SimConfig};
use rbv_workloads::{factory_for, AppId, RequestFactory};

/// Standard request count per application for distribution experiments,
/// shrunk in `fast` mode (used by integration tests).
pub fn requests_of(app: AppId, fast: bool) -> usize {
    let full = match app {
        AppId::WebServer => 500,
        AppId::Tpcc => 400,
        AppId::Rubis => 300,
        AppId::Tpch => 150,
        AppId::Webwork => 80,
        AppId::MbenchSpin | AppId::MbenchData => 50,
    };
    if fast {
        (full / 5).max(20)
    } else {
        full
    }
}

/// Builds the standard factory for `app` at the harness scale.
pub fn standard_factory(app: AppId, seed: u64) -> Box<dyn RequestFactory + Send> {
    factory_for(app, seed, app.harness_scale())
}

/// Runs `app` with the paper's per-application interrupt sampling period
/// (§3.1), either serial (1 request in flight) or 4-core concurrent.
pub fn standard_run(app: AppId, seed: u64, n: usize, serial: bool) -> RunResult {
    let mut cfg = SimConfig::paper_default().with_interrupt_sampling(app.sampling_period_micros());
    cfg.seed = seed;
    if serial {
        cfg = cfg.serial();
    }
    let mut factory = standard_factory(app, seed);
    run_simulation(cfg, factory.as_mut(), n).expect("standard config is valid")
}

/// The signature / series bucket size (instructions) per application,
/// sized so a typical request spans some tens of buckets.
pub fn bucket_ins(app: AppId) -> f64 {
    match app {
        AppId::WebServer => 10e3,
        AppId::Tpcc => 60e3,
        AppId::Tpch => 1.2e6 * AppId::Tpch.harness_scale().max(0.01) / 0.5,
        AppId::Rubis => 120e3,
        AppId::Webwork => 1.5e6,
        AppId::MbenchSpin | AppId::MbenchData => 100e3,
    }
}

/// All metrics the paper reports per sample period.
pub const REPORT_METRICS: [Metric; 3] = [Metric::Cpi, Metric::L2RefsPerIns, Metric::L2MissesPerRef];

// ---------------------------------------------------------------------------
// Plain-text rendering
// ---------------------------------------------------------------------------

/// Writes a section header to `out`.
pub fn section_to<W: Write>(out: &mut W, title: &str) -> io::Result<()> {
    writeln!(out)?;
    writeln!(out, "==== {title} ====")
}

/// Prints a section header to stdout.
pub fn section(title: &str) {
    section_to(&mut io::stdout().lock(), title).expect("stdout write");
}

/// Renders a horizontal bar of `value` relative to `max` (width 40).
pub fn bar(value: f64, max: f64) -> String {
    if max <= 0.0 || value <= 0.0 || !max.is_finite() || !value.is_finite() {
        return String::new();
    }
    let width = ((value / max) * 40.0).round().clamp(0.0, 40.0) as usize;
    "#".repeat(width)
}

/// Writes a table — header row plus aligned data rows — to `out`.
pub fn print_table_to<W: Write>(
    out: &mut W,
    headers: &[&str],
    rows: &[Vec<String>],
) -> io::Result<()> {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let render = |cells: Vec<String>| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths[i.min(cols - 1)]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    writeln!(
        out,
        "{}",
        render(headers.iter().map(|s| s.to_string()).collect())
    )?;
    writeln!(
        out,
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1))
    )?;
    for row in rows {
        writeln!(out, "{}", render(row.clone()))?;
    }
    Ok(())
}

/// Prints a table to stdout.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    print_table_to(&mut io::stdout().lock(), headers, rows).expect("stdout write");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_and_counts_are_positive() {
        for app in AppId::SERVER_APPS {
            assert!(app.harness_scale() > 0.0);
            assert!(requests_of(app, true) >= 20);
            assert!(requests_of(app, false) > requests_of(app, true));
            assert!(bucket_ins(app) > 0.0);
        }
    }

    #[test]
    fn bar_is_bounded() {
        assert_eq!(bar(0.0, 1.0), "");
        assert_eq!(bar(1.0, 1.0).len(), 40);
        assert_eq!(bar(2.0, 1.0).len(), 40);
        assert_eq!(bar(0.5, 1.0).len(), 20);
        assert_eq!(bar(1.0, 0.0), "");
    }

    #[test]
    fn table_renders_to_any_writer() {
        let mut buf = Vec::new();
        section_to(&mut buf, "title").unwrap();
        print_table_to(&mut buf, &["a", "bb"], &[vec!["1".into(), "22".into()]]).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("==== title ===="));
        assert!(s.contains("a  bb"));
        assert!(s.contains("1  22"));
    }

    #[test]
    fn standard_run_produces_requests() {
        let r = standard_run(AppId::Tpcc, 1, 5, true);
        assert_eq!(r.completed.len(), 5);
    }
}
