//! The ledger document: a self-describing JSON record of one benchmark
//! run, built from mergeable sketches and the observer-effect accounting.
//!
//! Key order and number formatting are fixed, so the same binary run
//! twice at the same seed serializes byte-identically — the property the
//! regression gate relies on (two equal documents diff clean by
//! construction). Wall-clock self-profiling is *excluded* by default for
//! exactly this reason; [`RunLedger::profile`] is opt-in and ignored by
//! the differ.

use rbv_telemetry::{Json, QuantileSketch};

/// Schema tag embedded in every document; the differ refuses to compare
/// documents with different tags. v2 added the per-app `guard` member
/// (governed-storm outcome); v3 added the per-app `kernel` member
/// (DTW prune-cascade observability); v4 added the per-app `energy`
/// member (powered-run joules and the p99-CPI-vs-joules tradeoff across
/// stock / easing / power-easing).
pub const SCHEMA: &str = "rbv-ledger/v4";

/// Stock-vs-easing tail comparison for one application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EasingDelta {
    /// p99 request CPI under the stock scheduler.
    pub stock_p99_cpi: f64,
    /// p99 request CPI under gated contention easing, same workload.
    pub eased_p99_cpi: f64,
}

impl EasingDelta {
    /// Relative tail change: negative when easing improved the p99 CPI.
    pub fn tail_delta_frac(&self) -> f64 {
        if self.stock_p99_cpi > 0.0 {
            (self.eased_p99_cpi - self.stock_p99_cpi) / self.stock_p99_cpi
        } else {
            0.0
        }
    }

    /// Serializes the comparison.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("stock_p99_cpi".into(), Json::Num(self.stock_p99_cpi)),
            ("eased_p99_cpi".into(), Json::Num(self.eased_p99_cpi)),
            ("tail_delta_frac".into(), Json::Num(self.tail_delta_frac())),
        ])
    }

    /// Parses a comparison serialized by [`EasingDelta::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing member, or the one that is
    /// not a finite non-negative number.
    pub fn from_json(json: &Json) -> Result<EasingDelta, String> {
        let num = |key: &str| {
            json.get(key)
                .and_then(Json::as_f64)
                .filter(|v| v.is_finite() && *v >= 0.0)
                .ok_or_else(|| format!("easing: missing non-negative number {key:?}"))
        };
        Ok(EasingDelta {
            stock_p99_cpi: num("stock_p99_cpi")?,
            eased_p99_cpi: num("eased_p99_cpi")?,
        })
    }
}

/// The JSON shape a member's writer emits: the reader rejects a member
/// whose node types differ from it, or a number outside its leaf's
/// range, so a tampered or truncated ledger cannot reach the differ.
enum Shape {
    /// Any finite number (a signed slack).
    Num,
    /// A counter: a non-negative integer that `f64` holds exactly.
    Count,
    /// A finite non-negative number: cycles, joules, CPIs, fractions.
    NonNeg,
    Str,
    Bool,
    /// An array whose every element has the given shape.
    Arr(&'static Shape),
    /// An object with (at least) these members.
    Obj(&'static [(&'static str, Shape)]),
}

impl Shape {
    /// Checks `json` against the shape; `path` names it in the error.
    fn check(&self, json: &Json, path: &str) -> Result<(), String> {
        match (self, json) {
            (Shape::Num, Json::Num(v)) if v.is_finite() => Ok(()),
            (Shape::Count, count) if count.as_count().is_some() => Ok(()),
            (Shape::NonNeg, Json::Num(v)) if v.is_finite() && *v >= 0.0 => Ok(()),
            (Shape::Str, Json::Str(_)) | (Shape::Bool, Json::Bool(_)) => Ok(()),
            (Shape::Arr(item), Json::Arr(items)) => items
                .iter()
                .enumerate()
                .try_for_each(|(i, v)| item.check(v, &format!("{path}[{i}]"))),
            (Shape::Obj(members), Json::Obj(_)) => members.iter().try_for_each(|(key, shape)| {
                let path = format!("{path}.{key}");
                let value = json
                    .get(key)
                    .ok_or_else(|| format!("app ledger: missing {path}"))?;
                shape.check(value, &path)
            }),
            (shape, _) => Err(format!("app ledger: {path} is not {}", shape.name())),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            Shape::Num => "a finite number",
            Shape::Count => "a non-negative integer",
            Shape::NonNeg => "a non-negative number",
            Shape::Str => "a string",
            Shape::Bool => "a boolean",
            Shape::Arr(_) => "an array",
            Shape::Obj(_) => "an object",
        }
    }
}

/// One sampling mode of `rbv_os::ObserverReport::to_json`.
const MODE_SHAPE: Shape = Shape::Obj(&[
    ("samples", Shape::Count),
    ("cycles_per_sample", Shape::NonNeg),
    ("cycles", Shape::NonNeg),
    ("instructions", Shape::NonNeg),
]);

/// `rbv_os::ObserverReport::to_json` (`observer`, `syscall_observer`).
const OBSERVER_SHAPE: Shape = Shape::Obj(&[
    (
        "per_mode",
        Shape::Obj(&[
            ("context_switch", MODE_SHAPE),
            ("syscall_entry", MODE_SHAPE),
            ("apic", MODE_SHAPE),
            ("backup_timer", MODE_SHAPE),
        ]),
    ),
    ("total_cycles", Shape::NonNeg),
    ("busy_cycles", Shape::NonNeg),
    ("overhead_frac", Shape::NonNeg),
    ("budget_frac", Shape::NonNeg),
    // The budget minus the overhead: negative over budget.
    ("slack_frac", Shape::Num),
    ("within_budget", Shape::Bool),
]);

/// The kernel stage of `crate::collect` (`kernel`).
const KERNEL_SHAPE: Shape = Shape::Obj(&[
    ("signatures", Shape::Count),
    ("penalty", Shape::NonNeg),
    (
        "prune",
        Shape::Obj(&[
            ("candidates", Shape::Count),
            ("lb_kim", Shape::Count),
            ("length_penalty", Shape::Count),
            ("lb_keogh", Shape::Count),
            ("early_abandon", Shape::Count),
            ("full_dp", Shape::Count),
            ("pruned_frac", Shape::NonNeg),
        ]),
    ),
]);

/// `rbv_faults::ChaosReport::to_json` (`chaos`).
const CHAOS_SHAPE: Shape = Shape::Obj(&[
    ("app", Shape::Str),
    ("seed", Shape::Count),
    (
        "anomaly",
        Shape::Obj(&[
            ("injected", Shape::Count),
            (
                "injected_by_kind",
                Shape::Obj(&[
                    ("inflated-working-set", Shape::Count),
                    ("runaway-segment-loop", Shape::Count),
                    ("stuck-syscall", Shape::Count),
                ]),
            ),
            ("flagged", Shape::Count),
            ("precision", Shape::NonNeg),
            ("recall", Shape::NonNeg),
        ]),
    ),
    (
        "degradation",
        Shape::Obj(&[
            ("completed", Shape::Count),
            ("samples_inkernel", Shape::Count),
            ("samples_interrupt", Shape::Count),
            ("samples_lost", Shape::Count),
            ("low_confidence", Shape::Count),
            ("counter_overflows", Shape::Count),
            ("starvation_windows", Shape::Count),
        ]),
    ),
    (
        "overload",
        Shape::Obj(&[
            ("offered", Shape::Count),
            ("completed", Shape::Count),
            ("failed", Shape::Count),
            ("admission_rejections", Shape::Count),
            ("admission_retries", Shape::Count),
            ("load_shed", Shape::Count),
            ("deadline_aborts", Shape::Count),
            ("p99_latency_micros", Shape::NonNeg),
        ]),
    ),
    (
        "easing",
        Shape::Obj(&[
            ("stock_p99_cpi", Shape::NonNeg),
            ("eased_p99_cpi", Shape::NonNeg),
            ("gate_fallbacks", Shape::Count),
        ]),
    ),
]);

/// `rbv_faults::GovernorOutcome::to_json` (`guard`).
const GUARD_SHAPE: Shape = Shape::Obj(&[
    ("completed", Shape::Count),
    ("windows", Shape::Count),
    ("backoffs", Shape::Count),
    ("recoveries", Shape::Count),
    ("budget_breaches", Shape::Count),
    ("max_breach_streak", Shape::Count),
    ("final_scale", Shape::NonNeg),
    ("overhead_frac", Shape::NonNeg),
    ("slack_frac", Shape::NonNeg),
    ("budget_frac", Shape::NonNeg),
    ("health_transitions", Shape::Count),
    ("final_rung", Shape::Str),
    ("invariant_checks", Shape::Count),
    ("invariant_violations", Shape::Count),
    ("stock_p99_cpi", Shape::NonNeg),
    ("governed_p99_cpi", Shape::NonNeg),
]);

/// One variant of the energy stage of `crate::collect`.
const ENERGY_VARIANT_SHAPE: Shape = Shape::Obj(&[
    ("joules", Shape::NonNeg),
    ("core_joules", Shape::Arr(&Shape::NonNeg)),
    ("throttle_engages", Shape::Count),
    ("dvfs_transitions", Shape::Count),
    ("power_rung_transitions", Shape::Count),
    ("p99_cpi", Shape::NonNeg),
]);

/// The energy stage of `crate::collect` (`energy`).
const ENERGY_SHAPE: Shape = Shape::Obj(&[
    ("stock", ENERGY_VARIANT_SHAPE),
    ("easing", ENERGY_VARIANT_SHAPE),
    ("power_easing", ENERGY_VARIANT_SHAPE),
]);

/// Everything the ledger records about one application's runs.
#[derive(Debug, Clone, PartialEq)]
pub struct AppLedger {
    /// Application short label (`web`, `tpcc`, ...).
    pub app: String,
    /// Requests completed by the standard interrupt-sampled run.
    pub requests: u64,
    /// End-to-end request latency digest, microseconds.
    pub latency_us: QuantileSketch,
    /// Whole-request CPI digest.
    pub cpi: QuantileSketch,
    /// Per-request L2 misses per kilo-instruction digest.
    pub l2_mpki: QuantileSketch,
    /// Observer-effect accounting of the standard (interrupt-sampled)
    /// run, as serialized by `rbv_os::ObserverReport::to_json`.
    pub observer: Json,
    /// Observer-effect accounting of the syscall-sampled run (exercises
    /// the syscall-entry and backup-timer modes).
    pub syscall_observer: Json,
    /// Stock-vs-easing p99 CPI comparison.
    pub easing: EasingDelta,
    /// Kernel observability: per-stage prune counters of the DTW
    /// cascade (`prune.lb_kim` → `prune.length_penalty` →
    /// `prune.lb_keogh` → `prune.early_abandon`) from the online
    /// signature nearest-neighbor scan over the standard run.
    pub kernel: Json,
    /// The chaos matrix outcome, as serialized by
    /// `rbv_faults::ChaosReport::to_json`.
    pub chaos: Json,
    /// The governed-storm outcome (sampling governor, health ladder, and
    /// invariant monitor under the measurement storm), as serialized by
    /// `rbv_faults::GovernorOutcome::to_json`.
    pub guard: Json,
    /// The energy study: the same workload run with the power model on
    /// under stock scheduling, contention easing, and easing with the
    /// guard's power-capping rungs — joules (total and per core),
    /// throttle/DVFS counts, and p99 request CPI per variant.
    pub energy: Json,
}

impl AppLedger {
    /// Serializes the per-app record.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("app".into(), Json::str(self.app.clone())),
            ("requests".into(), Json::Num(self.requests as f64)),
            ("latency_us".into(), self.latency_us.to_json()),
            ("cpi".into(), self.cpi.to_json()),
            ("l2_mpki".into(), self.l2_mpki.to_json()),
            ("observer".into(), self.observer.clone()),
            ("syscall_observer".into(), self.syscall_observer.clone()),
            ("easing".into(), self.easing.to_json()),
            ("kernel".into(), self.kernel.clone()),
            ("chaos".into(), self.chaos.clone()),
            ("guard".into(), self.guard.clone()),
            ("energy".into(), self.energy.clone()),
        ])
    }

    /// Parses a record serialized by [`AppLedger::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed member, or the
    /// first node whose JSON type differs from what the member's writer
    /// emits.
    pub fn from_json(json: &Json) -> Result<AppLedger, String> {
        let member = |key: &str| {
            json.get(key)
                .ok_or_else(|| format!("app ledger: missing {key:?}"))
        };
        let sketch = |key: &str| QuantileSketch::from_json(member(key)?);
        let shaped = |key: &str, shape: &Shape| {
            let value = member(key)?;
            shape.check(value, key)?;
            Ok::<Json, String>(value.clone())
        };
        Ok(AppLedger {
            app: member("app")?
                .as_str()
                .ok_or("app ledger: app is not a string")?
                .to_string(),
            requests: member("requests")?
                .as_count()
                .ok_or("app ledger: requests is not a non-negative integer")?,
            latency_us: sketch("latency_us")?,
            cpi: sketch("cpi")?,
            l2_mpki: sketch("l2_mpki")?,
            observer: shaped("observer", &OBSERVER_SHAPE)?,
            syscall_observer: shaped("syscall_observer", &OBSERVER_SHAPE)?,
            easing: EasingDelta::from_json(member("easing")?)?,
            kernel: shaped("kernel", &KERNEL_SHAPE)?,
            chaos: shaped("chaos", &CHAOS_SHAPE)?,
            guard: shaped("guard", &GUARD_SHAPE)?,
            energy: shaped("energy", &ENERGY_SHAPE)?,
        })
    }
}

/// One benchmark run, ready to serialize or diff.
#[derive(Debug, Clone, PartialEq)]
pub struct RunLedger {
    /// Free-form run label (the bench target, e.g. `all` or `web`).
    pub label: String,
    /// Seed every simulation in the run derived from.
    pub seed: u64,
    /// Whether the run used the reduced `--fast` request counts.
    pub fast: bool,
    /// Per-application records, in collection order.
    pub apps: Vec<AppLedger>,
    /// Optional wall-clock self-profile (`SelfProfiler` stage seconds).
    /// Non-deterministic by nature: excluded unless explicitly requested,
    /// and never compared by the differ.
    pub profile: Option<Json>,
}

impl RunLedger {
    /// Serializes the whole run. With `profile == None` the output is a
    /// pure function of (code, label, seed, fast) — byte-identical across
    /// repeat runs.
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("schema".into(), Json::str(SCHEMA)),
            ("label".into(), Json::str(self.label.clone())),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("fast".into(), Json::Bool(self.fast)),
            (
                "apps".into(),
                Json::Arr(self.apps.iter().map(AppLedger::to_json).collect()),
            ),
        ];
        if let Some(profile) = &self.profile {
            members.push(("profile".into(), profile.clone()));
        }
        Json::Obj(members)
    }

    /// The serialized document text (compact, stable member order).
    pub fn to_string_compact(&self) -> String {
        self.to_json().to_string_compact()
    }

    /// Parses a run serialized by [`RunLedger::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed member, or a
    /// schema mismatch.
    pub fn from_json(json: &Json) -> Result<RunLedger, String> {
        let schema = json
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("ledger: missing schema")?;
        if schema != SCHEMA {
            return Err(format!("ledger: schema {schema:?} != {SCHEMA:?}"));
        }
        Ok(RunLedger {
            label: json
                .get("label")
                .and_then(Json::as_str)
                .ok_or("ledger: missing label")?
                .to_string(),
            seed: json
                .get("seed")
                .and_then(Json::as_count)
                .ok_or("ledger: missing seed, or not a non-negative integer")?,
            fast: match json.get("fast") {
                Some(Json::Bool(b)) => *b,
                _ => return Err("ledger: missing fast".into()),
            },
            apps: json
                .get("apps")
                .and_then(Json::as_array)
                .ok_or("ledger: missing apps")?
                .iter()
                .map(AppLedger::from_json)
                .collect::<Result<_, _>>()?,
            profile: json.get("profile").cloned(),
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// `shape` with every number 0, string empty, boolean false and array
    /// empty, then each dotted path of `values` set to its number.
    fn filled(shape: &Shape, values: &[(&str, f64)]) -> Json {
        fn zeros(shape: &Shape) -> Json {
            match shape {
                Shape::Num | Shape::Count | Shape::NonNeg => Json::Num(0.0),
                Shape::Str => Json::str(""),
                Shape::Bool => Json::Bool(false),
                Shape::Arr(_) => Json::Arr(vec![]),
                Shape::Obj(members) => Json::Obj(
                    members
                        .iter()
                        .map(|(key, shape)| ((*key).to_string(), zeros(shape)))
                        .collect(),
                ),
            }
        }
        let mut json = zeros(shape);
        for &(path, value) in values {
            set_path(&mut json, path, Json::Num(value));
        }
        json
    }

    /// Sets the member at dotted `path` of the object tree `json`.
    fn set_path(json: &mut Json, path: &str, value: Json) {
        let mut node = json;
        for key in path.split('.') {
            let Json::Obj(members) = node else {
                panic!("{path} leaves the shape");
            };
            node = &mut members
                .iter_mut()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("{path} is not in the shape"))
                .1;
        }
        *node = value;
    }

    /// A chaos member whose anomaly detection scored precision 0.9 and
    /// the given recall.
    pub(crate) fn sample_chaos(recall: f64) -> Json {
        filled(
            &CHAOS_SHAPE,
            &[("anomaly.precision", 0.9), ("anomaly.recall", recall)],
        )
    }

    pub(crate) fn sample_app(app: &str, scale: f64) -> AppLedger {
        AppLedger {
            app: app.to_string(),
            requests: 40,
            latency_us: QuantileSketch::of((1..=40).map(|i| i as f64 * 12.5 * scale)),
            cpi: QuantileSketch::of((1..=40).map(|i| 0.8 + (i % 7) as f64 * 0.3 * scale)),
            l2_mpki: QuantileSketch::of((1..=40).map(|i| (i % 5) as f64 * 0.7 * scale)),
            observer: filled(&OBSERVER_SHAPE, &[("overhead_frac", 0.004 * scale)]),
            syscall_observer: filled(&OBSERVER_SHAPE, &[("overhead_frac", 0.006 * scale)]),
            easing: EasingDelta {
                stock_p99_cpi: 2.5 * scale,
                eased_p99_cpi: 2.3 * scale,
            },
            kernel: Json::Obj(vec![
                ("signatures".into(), Json::Num(40.0)),
                ("penalty".into(), Json::Num(1.5 * scale)),
                (
                    "prune".into(),
                    Json::Obj(vec![
                        ("candidates".into(), Json::Num(780.0)),
                        ("lb_kim".into(), Json::Num(200.0)),
                        ("length_penalty".into(), Json::Num(80.0)),
                        ("lb_keogh".into(), Json::Num(150.0)),
                        ("early_abandon".into(), Json::Num(100.0)),
                        ("full_dp".into(), Json::Num(250.0)),
                        ("pruned_frac".into(), Json::Num(530.0 / 780.0)),
                    ]),
                ),
            ]),
            chaos: sample_chaos(0.85),
            guard: filled(
                &GUARD_SHAPE,
                &[
                    ("windows", (24.0 * scale).round()),
                    ("budget_breaches", 1.0),
                    ("max_breach_streak", 1.0),
                    ("overhead_frac", 0.004 * scale),
                    ("invariant_violations", 0.0),
                ],
            ),
            energy: filled(
                &ENERGY_SHAPE,
                &[
                    ("stock.joules", 2.4 * scale),
                    ("stock.p99_cpi", 2.5 * scale),
                    ("power_easing.joules", 1.9 * scale),
                    ("power_easing.p99_cpi", 2.7 * scale),
                ],
            ),
        }
    }

    pub(crate) fn sample_ledger() -> RunLedger {
        RunLedger {
            label: "test".into(),
            seed: 42,
            fast: true,
            apps: vec![sample_app("web", 1.0), sample_app("tpcc", 1.4)],
            profile: None,
        }
    }

    #[test]
    fn round_trips_byte_for_byte() {
        let ledger = sample_ledger();
        let text = ledger.to_string_compact();
        let back = RunLedger::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, ledger);
        assert_eq!(back.to_string_compact(), text);
    }

    #[test]
    fn profile_is_optional_and_preserved() {
        let mut ledger = sample_ledger();
        assert!(!ledger.to_string_compact().contains("profile"));
        ledger.profile = Some(Json::Obj(vec![("wall_s.collect".into(), Json::Num(1.25))]));
        let text = ledger.to_string_compact();
        assert!(text.contains("profile"));
        let back = RunLedger::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, ledger);
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let mut json = sample_ledger().to_json();
        if let Json::Obj(members) = &mut json {
            members[0].1 = Json::str("rbv-ledger/v0");
        }
        assert!(RunLedger::from_json(&json).is_err());
    }

    #[test]
    fn numbers_outside_their_leaf_range_are_rejected() {
        let app = sample_app("web", 1.0).to_json();
        let read = |path: &str, value: Json| {
            let mut doc = app.clone();
            set_path(&mut doc, path, value);
            AppLedger::from_json(&doc).is_ok()
        };
        let out_of_range = [
            ("requests", 0.5),
            ("requests", -1.0),
            ("guard.completed", -1.0),
            ("guard.windows", 0.5),
            ("kernel.prune.candidates", -1.0),
            ("chaos.seed", 1e300),
            ("observer.per_mode.apic.samples", 2.5),
            ("observer.busy_cycles", -1.0),
            ("chaos.anomaly.recall", -0.5),
            ("energy.stock.joules", -1.0),
            ("energy.stock.dvfs_transitions", 0.5),
            ("guard.overhead_frac", f64::INFINITY),
            ("easing.stock_p99_cpi", -1.0),
        ];
        for (path, value) in out_of_range {
            assert!(!read(path, Json::Num(value)), "{path} = {value} was read");
        }
        let negative_joules = Json::Arr(vec![Json::Num(1.0), Json::Num(-1.0)]);
        assert!(!read("energy.stock.core_joules", negative_joules));
        // In range: a fraction, a counter, and the observer's slack, which
        // is negative over budget.
        for (path, value) in [
            ("guard.overhead_frac", 0.5),
            ("energy.stock.dvfs_transitions", 3.0),
            ("observer.slack_frac", -0.25),
        ] {
            assert!(
                read(path, Json::Num(value)),
                "{path} = {value} was rejected"
            );
        }
    }

    #[test]
    fn tail_delta_is_relative_to_stock() {
        let d = EasingDelta {
            stock_p99_cpi: 2.0,
            eased_p99_cpi: 1.9,
        };
        assert!((d.tail_delta_frac() + 0.05).abs() < 1e-12);
        let zero = EasingDelta {
            stock_p99_cpi: 0.0,
            eased_p99_cpi: 1.0,
        };
        assert_eq!(zero.tail_delta_frac(), 0.0);
    }
}
