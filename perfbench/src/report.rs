//! Metric catalogue, per-repetition outcomes and the result line.

/// End-to-end metrics, printed with `--trace 0`: (name, unit).
pub const END_TO_END: [(&str, &str); 3] = [
    ("req_per_s", "req/s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed with `--trace 1`: (name, unit). A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("openloop.probe_s", "s"),
    ("openloop.shards", "count"),
    ("os.engine_events", "count"),
    ("os.engine_self_s", "s"),
    ("os.ns_per_event", "ns"),
    ("os.context_switches", "count"),
    ("os.admission_rejections", "count"),
    ("os.retries", "count"),
    ("os.wasted_cycles_frac", "frac"),
    ("workloads.next_request_s", "s"),
    ("workloads.requests_drawn", "count"),
    ("trace.record_s", "s"),
    ("trace.events", "count"),
    ("trace.overhead_frac", "frac"),
    ("power.dvfs_transitions", "count"),
    ("power.joules", "J"),
    ("cluster.run_s", "s"),
    ("cluster.ns_per_event", "ns"),
    ("cluster.engine_events.frontend", "count"),
    ("cluster.engine_events.app", "count"),
    ("cluster.engine_events.db", "count"),
    ("cluster.hops", "count"),
    ("cluster.hop_bytes", "B"),
    ("cluster.invariant_checks", "count"),
    ("core.simulate_s", "s"),
    ("core.series_s", "s"),
    ("core.distance_s", "s"),
    ("core.dtw_cells", "count"),
    ("core.ns_per_dtw_cell", "ns"),
    ("core.kmedoids_s", "s"),
    ("core.identify_s", "s"),
    ("core.identify_candidates", "count"),
    ("core.pruned_frac", "frac"),
    ("core.full_dp", "count"),
    ("telemetry.to_json_s", "s"),
    ("telemetry.ledger_bytes", "B"),
    ("guard.write_atomic_s", "s"),
    ("sim.goodput_frac", "frac"),
    ("sim.latency_p50_us", "us"),
    ("sim.latency_p99_us", "us"),
    ("sim.client_p99_us", "us"),
    ("sim.wait_share_p99", "frac"),
    ("sim.divergence_cpu_pct", "%"),
];

/// What one run of a workload produced, judged.
#[derive(Debug, Clone, PartialEq)]
pub struct Rep {
    /// Simulated requests resolved (for classify: simulated and
    /// classified).
    pub requests: u64,
    /// Hash of the deterministic result bytes (no wall-clock member).
    pub digest: u64,
    /// Failed correctness checks; empty when the run is correct.
    pub problems: Vec<String>,
}

impl Rep {
    /// Adds a problem when the run's digest differs from the workload's
    /// reference digest (the first run of the same seed, made at one
    /// thread): the simulator must repeat exactly at any thread count.
    pub fn check_digest(&mut self, reference: u64) {
        if self.digest != reference {
            self.problems.push(format!(
                "sim_digest {:016x} differs from this seed's reference {reference:016x}",
                self.digest
            ));
        }
    }
}

/// Counts attempted and failed runs.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Runs {
    /// Runs made.
    pub attempted: u64,
    /// Runs with at least one failed check.
    pub failed: u64,
}

impl Runs {
    /// Records one run, printing its problems to stderr.
    pub fn record(&mut self, label: &str, rep: &Rep) {
        self.attempted += 1;
        if !rep.problems.is_empty() {
            self.failed += 1;
            for problem in &rep.problems {
                eprintln!("FAILED {label}: {problem}");
            }
        }
    }
}

/// FNV-1a over `bytes`: the digest of a run's deterministic output.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN value.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// The result line: the last line the benchmark prints.
pub fn result_line(runs: Runs, metrics: &[(&str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            let unit = unit_of(name).expect("every printed metric is catalogued");
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        runs.failed == 0,
        runs.attempted,
        runs.failed,
        body.join(", ")
    )
}

/// A finite JSON number with every digit `{}` gives; non-finite values
/// (never expected) print as 0 so the line stays parseable.
fn json_num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_json_with_units() {
        let line = result_line(
            Runs {
                attempted: 3,
                failed: 1,
            },
            &[("req_per_s", 1234.5), ("setup_s", 0.25)],
        );
        let parsed = rbv_telemetry::Json::parse(&line).expect("result line parses");
        assert_eq!(
            parsed.get("correct"),
            Some(&rbv_telemetry::Json::Bool(false))
        );
        let metrics = parsed.get("metrics").expect("metrics");
        let rate = metrics.get("req_per_s").expect("rate");
        assert_eq!(
            rate.get("value").and_then(rbv_telemetry::Json::as_f64),
            Some(1234.5)
        );
        assert_eq!(
            rate.get("unit").and_then(rbv_telemetry::Json::as_str),
            Some("req/s")
        );
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
