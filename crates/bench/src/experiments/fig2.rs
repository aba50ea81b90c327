//! Figure 2: intra-request behavior variations — CPI, L2 references per
//! instruction, and L2 miss ratio over the course of one representative
//! request per application.

use rbv_core::series::Metric;
use rbv_os::CompletedRequest;
use rbv_workloads::{AppId, RequestClass, RubisInteraction, TpccTxn};

use crate::harness::{bucket_ins, requests_of, section, standard_run};

/// One application's representative request trace.
#[derive(Debug, Clone)]
pub struct RequestTrace {
    /// Application.
    pub app: AppId,
    /// Class of the representative request (the paper names one per app).
    pub class: String,
    /// Progress bucket size in instructions.
    pub bucket_ins: f64,
    /// CPI per bucket.
    pub cpi: Vec<f64>,
    /// L2 references per instruction per bucket.
    pub refs_per_ins: Vec<f64>,
    /// L2 misses per reference per bucket.
    pub miss_ratio: Vec<f64>,
}

impl RequestTrace {
    /// Duration-weighted coefficient of variation of the CPI trace — the
    /// headline "significant metric variations" of §2.3.
    pub fn cpi_cov(&self) -> f64 {
        let lens = vec![1.0; self.cpi.len()];
        rbv_core::stats::coefficient_of_variation(&lens, &self.cpi).unwrap_or(0.0)
    }
}

/// Picks the paper's representative class per application.
fn wanted(app: AppId, class: &RequestClass) -> bool {
    match (app, class) {
        (AppId::WebServer, RequestClass::WebFile(c)) => *c == 2,
        (AppId::Tpcc, RequestClass::TpccTxn(t)) => *t == TpccTxn::NewOrder,
        (AppId::Tpch, RequestClass::TpchQuery(q)) => *q == 20,
        (AppId::Rubis, RequestClass::Rubis(i)) => *i == RubisInteraction::SearchItemsByCategory,
        (AppId::Webwork, RequestClass::WebworkProblem(_)) => true,
        _ => false,
    }
}

fn trace_of(app: AppId, request: &CompletedRequest) -> RequestTrace {
    let b = bucket_ins(app);
    RequestTrace {
        app,
        class: request.class.to_string(),
        bucket_ins: b,
        cpi: request.series(Metric::Cpi, b).values().to_vec(),
        refs_per_ins: request.series(Metric::L2RefsPerIns, b).values().to_vec(),
        miss_ratio: request.series(Metric::L2MissesPerRef, b).values().to_vec(),
    }
}

/// Runs the Figure 2 experiment: one representative trace per application.
pub fn compute(fast: bool) -> Vec<RequestTrace> {
    let mut out = Vec::new();
    for app in AppId::SERVER_APPS {
        let n = requests_of(app, fast).min(120);
        let result = standard_run(app, 0xF2, n, false);
        // Median-length request among the wanted class.
        let mut candidates: Vec<&CompletedRequest> = result
            .completed
            .iter()
            .filter(|r| wanted(app, &r.class))
            .collect();
        if candidates.is_empty() {
            candidates = result.completed.iter().collect();
        }
        candidates.sort_by(|a, b| {
            a.timeline
                .total_instructions()
                .partial_cmp(&b.timeline.total_instructions())
                .expect("finite")
        });
        let representative = candidates[candidates.len() / 2];
        out.push(trace_of(app, representative));
    }
    out
}

/// Runs and prints Figure 2.
pub fn run(fast: bool) -> Vec<RequestTrace> {
    section("Figure 2: behavior variations within a single request");
    let traces = compute(fast);
    for t in &traces {
        let total_m = t.cpi.len() as f64 * t.bucket_ins / 1e6;
        println!();
        println!(
            "{} — {} ({} buckets of {:.2} M ins; {:.1} M ins total at scale {}; CPI CoV {:.2})",
            t.app,
            t.class,
            t.cpi.len(),
            t.bucket_ins / 1e6,
            total_m,
            t.app.harness_scale(),
            t.cpi_cov()
        );
        println!("  progress(Mins)    CPI   L2refs/ins  L2miss/ref");
        let step = (t.cpi.len() / 24).max(1);
        for i in (0..t.cpi.len()).step_by(step) {
            println!(
                "  {:>12.3}  {:>6.2}   {:>9.5}   {:>9.3}",
                (i as f64 + 0.5) * t.bucket_ins / 1e6,
                t.cpi[i],
                t.refs_per_ins[i],
                t.miss_ratio[i],
            );
        }
    }
    traces
}
