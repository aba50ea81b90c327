//! Cross-run regression diffing with per-metric tolerance bands.
//!
//! The differ flattens both ledger documents into named scalar metrics
//! (sketches contribute their count and p50/p99/p99.9, recomputed from
//! the stored buckets), pairs them by name, and checks each pair against
//! a tolerance band chosen by metric kind. Any out-of-band deviation —
//! better *or* worse — is a violation: an improvement that silently moves
//! the baseline is still a change CI should force the author to record.
//!
//! The wall-clock `profile` section is never compared (it is
//! non-deterministic by nature); identity fields (`seed`, `fast`) must
//! match exactly, since comparing runs of different shapes is meaningless.

use rbv_telemetry::{Json, QuantileSketch};

use crate::document::SCHEMA;

/// Default relative band for sketch quantiles and other continuous
/// metrics (one sketch bucket width, rounded up).
pub const TOL_QUANTILE: f64 = 0.022;

/// Default relative band for event counts (requests, samples, switches).
pub const TOL_COUNT: f64 = 0.01;

/// Default *absolute* band for precision/recall scores in `[0, 1]`.
pub const TOL_SCORE: f64 = 0.05;

/// One out-of-band metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Dotted metric path, e.g. `web.cpi.p99`.
    pub metric: String,
    /// Baseline value (`NaN` when the metric is new).
    pub baseline: f64,
    /// Candidate value (`NaN` when the metric disappeared).
    pub candidate: f64,
    /// Measured deviation, in the same units the band is expressed in.
    pub deviation: f64,
    /// The tolerance band the deviation exceeded.
    pub tolerance: f64,
}

impl Violation {
    /// Whether the candidate moved up (regression for cost-like metrics,
    /// improvement for score-like ones — the reader decides).
    pub fn increased(&self) -> bool {
        self.candidate > self.baseline
    }
}

/// Outcome of diffing two ledger documents.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Metrics compared.
    pub compared: usize,
    /// Metrics outside their band, in document order.
    pub violations: Vec<Violation>,
}

impl DiffReport {
    /// Whether the candidate is within every band.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// How a metric's tolerance band is interpreted.
///
/// Public so downstream consumers — the campaign warehouse's regression
/// miner foremost — apply the *same* per-metric bands the `repro diff`
/// gate enforces, instead of inventing a second tolerance vocabulary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Band {
    /// `|c - b| / max(|b|, eps) <= tol`.
    Relative(f64),
    /// `|c - b| <= tol` (scores already live in `[0, 1]`).
    Absolute(f64),
    /// Values must be equal (run identity: seed, fast).
    Exact,
}

impl Band {
    /// The measured `(deviation, tolerance)` pair for a baseline/candidate
    /// value pair, in the units the band is expressed in.
    pub fn deviation(&self, baseline: f64, candidate: f64) -> (f64, f64) {
        match *self {
            Band::Exact => ((candidate - baseline).abs(), 0.0),
            Band::Absolute(tol) => ((candidate - baseline).abs(), tol),
            Band::Relative(tol) => ((candidate - baseline).abs() / baseline.abs().max(1e-9), tol),
        }
    }

    /// Whether `candidate` falls outside the band around `baseline`. A
    /// sub-epsilon absolute difference never breaches a band: near-zero
    /// baselines would otherwise amplify float dust.
    pub fn breached(&self, baseline: f64, candidate: f64) -> bool {
        let (deviation, tolerance) = self.deviation(baseline, candidate);
        deviation > tolerance && (candidate - baseline).abs() > 1e-12
    }
}

/// The tolerance band the regression gate applies to `metric`, selected
/// by metric kind from the leaf name (the band vocabulary shared by
/// `repro diff` and the campaign warehouse's regression miner).
pub fn tolerance_band(metric: &str) -> Band {
    band_for(metric, None)
}

/// The tolerance band for `metric`, honoring a global `--tolerance`
/// override (which widens/narrows every non-exact band uniformly).
fn band_for(metric: &str, override_tol: Option<f64>) -> Band {
    if metric == "seed" || metric == "fast" {
        return Band::Exact;
    }
    if let Some(tol) = override_tol {
        return Band::Relative(tol);
    }
    let leaf = metric.rsplit('.').next().unwrap_or(metric);
    if leaf == "precision" || leaf == "recall" {
        return Band::Absolute(TOL_SCORE);
    }
    let county = [
        "count",
        "requests",
        "samples",
        "offered",
        "completed",
        "failed",
        "flagged",
        "injected",
        "gate_fallbacks",
        // Guard counters: governor windows/decisions, ladder moves, and
        // invariant verdicts are discrete events.
        "windows",
        "backoffs",
        "recoveries",
        "budget_breaches",
        "max_breach_streak",
        "health_transitions",
        "invariant_checks",
        "invariant_violations",
    ];
    if county.contains(&leaf) || metric.contains(".samples.") {
        return Band::Relative(TOL_COUNT);
    }
    Band::Relative(TOL_QUANTILE)
}

/// Pushes `(path, value)` for every metric a sketch contributes.
fn sketch_metrics(prefix: &str, json: &Json, out: &mut Vec<(String, f64)>) -> Result<(), String> {
    let sketch = QuantileSketch::from_json(json).map_err(|e| format!("{prefix}: {e}"))?;
    out.push((format!("{prefix}.count"), sketch.count() as f64));
    for (name, q) in [("p50", 0.50), ("p99", 0.99), ("p999", 0.999)] {
        out.push((
            format!("{prefix}.{name}"),
            sketch.quantile(q).unwrap_or(0.0),
        ));
    }
    Ok(())
}

/// Pushes every numeric leaf of an arbitrary JSON subtree, dotted-path
/// named (used for observer and chaos sections).
fn tree_metrics(prefix: &str, json: &Json, out: &mut Vec<(String, f64)>) {
    match json {
        Json::Num(v) => out.push((prefix.to_string(), *v)),
        Json::Bool(b) => out.push((prefix.to_string(), f64::from(u8::from(*b)))),
        Json::Obj(members) => {
            for (key, value) in members {
                tree_metrics(&format!("{prefix}.{key}"), value, out);
            }
        }
        // Strings (labels) and arrays (sketch buckets don't appear here)
        // carry no comparable scalars.
        _ => {}
    }
}

/// Flattens a ledger document into named scalars, in document order.
///
/// # Errors
///
/// Returns a message when the document is not a valid ledger.
pub fn metrics_of(doc: &Json) -> Result<Vec<(String, f64)>, String> {
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("ledger: missing schema")?;
    if schema != SCHEMA {
        return Err(format!("ledger: schema {schema:?} != {SCHEMA:?}"));
    }
    let mut out = Vec::new();
    out.push((
        "seed".to_string(),
        doc.get("seed")
            .and_then(Json::as_f64)
            .ok_or("ledger: missing seed")?,
    ));
    out.push((
        "fast".to_string(),
        match doc.get("fast") {
            Some(Json::Bool(b)) => f64::from(u8::from(*b)),
            _ => return Err("ledger: missing fast".into()),
        },
    ));
    for app in doc
        .get("apps")
        .and_then(Json::as_array)
        .ok_or("ledger: missing apps")?
    {
        let name = app
            .get("app")
            .and_then(Json::as_str)
            .ok_or("ledger: app without a name")?;
        out.push((
            format!("{name}.requests"),
            app.get("requests")
                .and_then(Json::as_f64)
                .ok_or("ledger: app without requests")?,
        ));
        for key in ["latency_us", "cpi", "l2_mpki"] {
            let sub = app
                .get(key)
                .ok_or_else(|| format!("ledger: {name} missing {key}"))?;
            sketch_metrics(&format!("{name}.{key}"), sub, &mut out)?;
        }
        for key in ["observer", "syscall_observer", "easing", "chaos", "guard"] {
            let sub = app
                .get(key)
                .ok_or_else(|| format!("ledger: {name} missing {key}"))?;
            tree_metrics(&format!("{name}.{key}"), sub, &mut out);
        }
    }
    Ok(out)
}

/// Diffs `candidate` against `baseline` with per-metric tolerance bands
/// (or a uniform `override_tol`, from `--tolerance`). A metric present in
/// only one document is always a violation.
///
/// # Errors
///
/// Returns a message when either document is not a valid ledger, or their
/// schemas differ.
pub fn diff_documents(
    baseline: &Json,
    candidate: &Json,
    override_tol: Option<f64>,
) -> Result<DiffReport, String> {
    let base = metrics_of(baseline)?;
    let cand = metrics_of(candidate)?;
    let cand_map: std::collections::BTreeMap<&str, f64> =
        cand.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let base_names: std::collections::BTreeSet<&str> =
        base.iter().map(|(k, _)| k.as_str()).collect();

    let mut violations = Vec::new();
    let mut compared = 0usize;
    for (name, b) in &base {
        let Some(&c) = cand_map.get(name.as_str()) else {
            violations.push(Violation {
                metric: name.clone(),
                baseline: *b,
                candidate: f64::NAN,
                deviation: f64::INFINITY,
                tolerance: 0.0,
            });
            continue;
        };
        compared += 1;
        let band = band_for(name, override_tol);
        let (deviation, tolerance) = band.deviation(*b, c);
        if band.breached(*b, c) {
            violations.push(Violation {
                metric: name.clone(),
                baseline: *b,
                candidate: c,
                deviation,
                tolerance,
            });
        }
    }
    for (name, c) in &cand {
        if !base_names.contains(name.as_str()) {
            violations.push(Violation {
                metric: name.clone(),
                baseline: f64::NAN,
                candidate: *c,
                deviation: f64::INFINITY,
                tolerance: 0.0,
            });
        }
    }
    Ok(DiffReport {
        compared,
        violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::tests::{sample_chaos, sample_ledger};

    #[test]
    fn identical_documents_diff_clean() {
        let doc = sample_ledger().to_json();
        let report = diff_documents(&doc, &doc, None).unwrap();
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert!(report.compared > 20, "compared {}", report.compared);
    }

    #[test]
    fn perturbed_tail_quantile_is_flagged_by_name() {
        let base = sample_ledger();
        let mut cand = base.clone();
        // +5% on every CPI sample moves p99 by ~5%, past the 2.2% band.
        let scaled: Vec<f64> = (1..=40)
            .map(|i| (0.8 + (i % 7) as f64 * 0.3) * 1.05)
            .collect();
        cand.apps[0].cpi = QuantileSketch::of(scaled);
        let report = diff_documents(&base.to_json(), &cand.to_json(), None).unwrap();
        assert!(!report.passed());
        assert!(
            report.violations.iter().any(|v| v.metric == "web.cpi.p99"),
            "expected web.cpi.p99 in {:?}",
            report.violations
        );
        // Untouched apps stay clean.
        assert!(report
            .violations
            .iter()
            .all(|v| !v.metric.starts_with("tpcc.")));
    }

    #[test]
    fn scalar_regression_is_flagged_with_both_values() {
        let base = sample_ledger();
        let mut cand = base.clone();
        cand.apps[1].easing.stock_p99_cpi *= 1.10;
        let report = diff_documents(&base.to_json(), &cand.to_json(), None).unwrap();
        let v = report
            .violations
            .iter()
            .find(|v| v.metric == "tpcc.easing.stock_p99_cpi")
            .expect("violation named after the metric");
        assert!(v.increased());
        assert!((v.deviation - 0.10).abs() < 1e-9);
        // tail_delta_frac moves too; both explanations carry values.
        assert!(v.baseline.is_finite() && v.candidate.is_finite());
    }

    #[test]
    fn tolerance_override_widens_every_band() {
        let base = sample_ledger();
        let mut cand = base.clone();
        cand.apps[1].easing.stock_p99_cpi *= 1.10;
        cand.apps[1].easing.eased_p99_cpi *= 1.10;
        let strict = diff_documents(&base.to_json(), &cand.to_json(), None).unwrap();
        assert!(!strict.passed());
        let loose = diff_documents(&base.to_json(), &cand.to_json(), Some(0.25)).unwrap();
        assert!(loose.passed(), "violations: {:?}", loose.violations);
    }

    #[test]
    fn score_bands_are_absolute() {
        // recall 0.85 -> 0.88 is a 3.5% relative change but only 0.03
        // absolute: inside the 0.05 score band.
        let base = sample_ledger();
        let mut cand = base.clone();
        cand.apps[0].chaos = sample_chaos(0.88);
        let report = diff_documents(&base.to_json(), &cand.to_json(), None).unwrap();
        assert!(report.passed(), "violations: {:?}", report.violations);
    }

    #[test]
    fn missing_and_extra_metrics_are_violations() {
        let base = sample_ledger();
        let mut cand = base.clone();
        cand.apps.pop();
        let report = diff_documents(&base.to_json(), &cand.to_json(), None).unwrap();
        assert!(report.violations.iter().any(|v| v.candidate.is_nan()));

        let report = diff_documents(&cand.to_json(), &base.to_json(), None).unwrap();
        assert!(report.violations.iter().any(|v| v.baseline.is_nan()));
    }

    #[test]
    fn identity_fields_must_match_exactly() {
        let base = sample_ledger();
        let mut cand = base.clone();
        cand.seed = 43;
        let report = diff_documents(&base.to_json(), &cand.to_json(), None).unwrap();
        assert!(report.violations.iter().any(|v| v.metric == "seed"));
    }

    #[test]
    fn profile_section_is_ignored() {
        let base = sample_ledger();
        let mut cand = base.clone();
        cand.profile = Some(rbv_telemetry::Json::Obj(vec![(
            "wall_s.collect".into(),
            rbv_telemetry::Json::Num(3.5),
        )]));
        let report = diff_documents(&base.to_json(), &cand.to_json(), None).unwrap();
        assert!(report.passed(), "violations: {:?}", report.violations);
    }

    #[test]
    fn public_band_api_matches_gate_behavior() {
        // Quantiles: relative 2.2% band.
        assert_eq!(tolerance_band("web.cpi.p99"), Band::Relative(TOL_QUANTILE));
        assert!(tolerance_band("web.cpi.p99").breached(2.0, 2.1));
        assert!(!tolerance_band("web.cpi.p99").breached(2.0, 2.02));
        // Counts: relative 1% band.
        assert_eq!(
            tolerance_band("tpcc.latency_us.count"),
            Band::Relative(TOL_COUNT)
        );
        // Scores: absolute 0.05 band.
        assert_eq!(
            tolerance_band("web.chaos.anomaly.recall"),
            Band::Absolute(TOL_SCORE)
        );
        assert!(!tolerance_band("web.chaos.anomaly.recall").breached(0.85, 0.88));
        // Identity fields must match exactly.
        assert_eq!(tolerance_band("seed"), Band::Exact);
        assert!(tolerance_band("seed").breached(42.0, 43.0));
        // Float dust near zero never breaches.
        assert!(!tolerance_band("x.p99").breached(0.0, 1e-13));
    }

    #[test]
    fn schema_mismatch_errors_instead_of_diffing() {
        let doc = sample_ledger().to_json();
        let mut other = doc.clone();
        if let rbv_telemetry::Json::Obj(members) = &mut other {
            members[0].1 = rbv_telemetry::Json::str("rbv-ledger/v9");
        }
        assert!(diff_documents(&doc, &other, None).is_err());
    }
}
