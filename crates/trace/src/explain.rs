//! Critical-path report: renders a [`SpanSummary`] as the `repro
//! explain` text — where client-visible latency comes from, at the
//! median and at the tail, plus the top-k slowest requests broken down
//! by stage.

use rbv_sim::Cycles;

use crate::span::SpanSummary;

/// Percentage share of `part` in `whole`, 0 when `whole` is 0.
fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

/// Renders the critical-path report for a reconstructed run: request
/// counts, the per-stage p50/p99 decomposition with each stage's share
/// of the summed stage quantile (how the tail's composition differs
/// from the median's), and the `k` slowest requests by stage breakdown.
pub fn render_explain(summary: &SpanSummary, k: usize) -> String {
    let mut out = String::new();
    out.push_str("request tracing — client-visible latency attribution\n");
    out.push_str(&format!(
        "  requests: {} arrived, {} completed, {} failed, {} unfinished\n",
        summary.arrived, summary.completed, summary.failed, summary.unfinished
    ));
    out.push_str(&format!(
        "  retries: {} client, {} admission backoffs, {} admission rejections\n",
        summary.client_retries, summary.admission_retries, summary.admission_rejections
    ));
    out.push_str(&format!(
        "  activity: {} queue entries, {} slices, {} migrations\n",
        summary.queue_enters, summary.slices, summary.migrations
    ));
    out.push_str(&format!(
        "  invariants: {} checks, {} violations\n",
        summary.invariant_checks,
        summary.violations_total()
    ));
    if let Some(detail) = &summary.first_violation {
        out.push_str(&format!("  first violation: {detail}\n"));
    }

    let stages = [
        ("queue", &summary.queue_us),
        ("service", &summary.service_us),
        ("backoff", &summary.backoff_us),
        ("other", &summary.other_us),
    ];
    let p50s: Vec<f64> = stages.iter().map(|(_, s)| s.p50().unwrap_or(0.0)).collect();
    let p99s: Vec<f64> = stages.iter().map(|(_, s)| s.p99().unwrap_or(0.0)).collect();
    let p50_sum: f64 = p50s.iter().sum();
    let p99_sum: f64 = p99s.iter().sum();

    out.push_str("\nstage decomposition (per-request totals, us)\n");
    out.push_str(&format!(
        "  {:<10} {:>12} {:>9} {:>12} {:>9}\n",
        "stage", "p50_us", "p50 %", "p99_us", "p99 %"
    ));
    for (i, (name, _)) in stages.iter().enumerate() {
        out.push_str(&format!(
            "  {:<10} {:>12.1} {:>8.1}% {:>12.1} {:>8.1}%\n",
            name,
            p50s[i],
            share(p50s[i], p50_sum),
            p99s[i],
            share(p99s[i], p99_sum),
        ));
    }
    out.push_str(&format!(
        "  {:<10} {:>12.1} {:>9} {:>12.1} {:>9}\n",
        "visible",
        summary.client_visible_us.p50().unwrap_or(0.0),
        "",
        summary.client_visible_us.p99().unwrap_or(0.0),
        "",
    ));

    let shown = summary.top.len().min(k);
    out.push_str(&format!("\ntop {shown} slowest completed requests\n"));
    for t in summary.top.iter().take(k) {
        out.push_str(&format!(
            "  shard {} req {:>6}: {:>10.1}us = queue {:.1} + service {:.1} \
             + backoff {:.1} + other {:.1}  ({} attempt{})\n",
            t.shard,
            t.rid,
            Cycles::new(t.total).as_micros_f64(),
            Cycles::new(t.queue).as_micros_f64(),
            Cycles::new(t.service).as_micros_f64(),
            Cycles::new(t.backoff).as_micros_f64(),
            Cycles::new(t.other).as_micros_f64(),
            t.attempts,
            if t.attempts == 1 { "" } else { "s" },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanCollector;
    use rbv_telemetry::TraceEvent;

    fn summary() -> SpanSummary {
        let t = Cycles::new;
        let events = vec![
            TraceEvent::RequestBegin {
                ts: t(0),
                rid: 1,
                app: "web".into(),
                class: "static".into(),
            },
            TraceEvent::QueueEnter {
                ts: t(0),
                rid: 1,
                queue: 0,
                attempt: 0,
            },
            TraceEvent::SliceBegin {
                ts: t(3000),
                core: 0,
                rid: 1,
                stage: 0,
                component: "standalone".into(),
            },
            TraceEvent::SliceEnd {
                ts: t(9000),
                core: 0,
                rid: 1,
            },
            TraceEvent::RequestEnd {
                ts: t(9000),
                rid: 1,
            },
        ];
        SpanCollector::collect(&events).into_summary()
    }

    #[test]
    fn report_names_every_stage_and_top_entry() {
        let text = render_explain(&summary(), 5);
        for needle in [
            "client-visible latency attribution",
            "queue",
            "service",
            "backoff",
            "other",
            "visible",
            "top 1 slowest",
            "shard 0 req",
            "1 attempt",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn empty_summary_renders_without_panicking() {
        let text = render_explain(&SpanSummary::default(), 3);
        assert!(text.contains("0 arrived"));
        assert!(text.contains("top 0 slowest"));
    }
}
