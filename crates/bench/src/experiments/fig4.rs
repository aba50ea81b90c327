//! Figure 4: cumulative probability of the next-system-call distance, in
//! time and in instruction count, from an arbitrary instant of request
//! execution.

use rbv_os::result::next_syscall_cumulative;
use rbv_workloads::AppId;

use crate::harness::{print_table, requests_of, section, standard_run};

/// Cumulative next-syscall-distance curves for one application.
#[derive(Debug, Clone)]
pub struct SyscallDistance {
    /// Application.
    pub app: AppId,
    /// `(distance_us, P(next syscall within distance))` points.
    pub time_curve: Vec<(f64, f64)>,
    /// `(distance_instructions, P)` points.
    pub ins_curve: Vec<(f64, f64)>,
}

impl SyscallDistance {
    /// P(next syscall within `us` microseconds).
    pub fn p_within_us(&self, us: f64) -> f64 {
        self.time_curve
            .iter()
            .find(|&&(d, _)| (d - us).abs() < 1e-9)
            .map_or(0.0, |&(_, p)| p)
    }
}

/// Log-spaced distances matching the paper's x-axes.
const US_POINTS: [f64; 8] = [4.0, 16.0, 64.0, 256.0, 1_000.0, 4_000.0, 16_000.0, 64_000.0];
const INS_POINTS: [f64; 8] = [4e3, 16e3, 64e3, 256e3, 1e6, 4e6, 16e6, 64e6];

/// Runs the Figure 4 experiment.
pub fn compute(fast: bool) -> Vec<SyscallDistance> {
    let mut out = Vec::new();
    for app in AppId::SERVER_APPS {
        let result = standard_run(app, 0xF4, requests_of(app, fast), false);
        let gaps = result.syscall_gaps();
        let cycle_gaps: Vec<f64> = gaps.iter().map(|g| g.cycles).collect();
        let ins_gaps: Vec<f64> = gaps.iter().map(|g| g.instructions).collect();
        // Distances are reported in paper-scale units: the harness runs
        // long-request applications scaled down by
        // `AppId::harness_scale`, which shrinks syscall gaps
        // proportionally, so a paper distance `d` corresponds to a
        // simulated distance `d * scale`.
        let s = app.harness_scale();
        let time_curve = US_POINTS
            .iter()
            .map(|&us| (us, next_syscall_cumulative(&cycle_gaps, us * 3_000.0 * s)))
            .collect();
        let ins_curve = INS_POINTS
            .iter()
            .map(|&i| (i, next_syscall_cumulative(&ins_gaps, i * s)))
            .collect();
        out.push(SyscallDistance {
            app,
            time_curve,
            ins_curve,
        });
    }
    out
}

/// Runs and prints Figure 4.
pub fn run(fast: bool) -> Vec<SyscallDistance> {
    section("Figure 4: next system call distance distributions");
    let curves = compute(fast);

    println!();
    println!("(A) distances in time — cumulative probability:");
    let mut rows = Vec::new();
    for c in &curves {
        let mut row = vec![c.app.to_string()];
        row.extend(
            c.time_curve
                .iter()
                .map(|&(_, p)| format!("{:.0}%", p * 100.0)),
        );
        rows.push(row);
    }
    print_table(
        &[
            "application",
            "4us",
            "16us",
            "64us",
            "256us",
            "1ms",
            "4ms",
            "16ms",
            "64ms",
        ],
        &rows,
    );

    println!();
    println!("(B) distances in instruction count — cumulative probability:");
    let mut rows = Vec::new();
    for c in &curves {
        let mut row = vec![c.app.to_string()];
        row.extend(
            c.ins_curve
                .iter()
                .map(|&(_, p)| format!("{:.0}%", p * 100.0)),
        );
        rows.push(row);
    }
    print_table(
        &[
            "application",
            "4K",
            "16K",
            "64K",
            "256K",
            "1M",
            "4M",
            "16M",
            "64M",
        ],
        &rows,
    );
    println!(
        "(paper anchors: web 97% / TPCH 83% / RUBiS 72% within 16us; TPCC 82% / WeBWorK 81% within 1ms)"
    );
    curves
}
