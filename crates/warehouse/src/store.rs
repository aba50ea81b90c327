//! The warehouse document: shard digests folded into one mergeable,
//! byte-stable `rbv-warehouse/v1` JSON artifact.
//!
//! The fold is where the determinism contract is enforced. Sketch merge
//! is associative and commutative in every integer field, but the running
//! `sum` is an f64 — so the warehouse *always* folds shards in canonical
//! grid order (the order [`CampaignSpec::shards`] enumerates), no matter
//! which worker finished first or what order digests arrived in. Given
//! the same spec, the serialized document is byte-identical at any
//! `--threads` value and any shard permutation.
//!
//! An [`InvariantTally`] audits the fold itself: grid coverage (every
//! cell exactly once), request-count conservation (merged digest count
//! == sum of shard counts), and merged-extrema consistency (merged
//! min/max == extrema of shard min/max). Violations are recorded in the
//! document and fail the campaign command.

use rbv_guard::InvariantTally;
use rbv_os::RbvError;
use rbv_telemetry::{Json, QuantileSketch};

use crate::shard::ShardOutput;
use crate::spec::{CampaignSpec, LoadPhase, ShardKey};

/// The document schema tag.
pub const SCHEMA: &str = "rbv-warehouse/v1";

/// One `(app, epoch)` cell: every shard of every seed/mix/sched level of
/// that app-epoch, merged.
#[derive(Debug, Clone)]
pub struct WarehouseCell {
    /// Application short label.
    pub app: String,
    /// Campaign epoch.
    pub epoch: u32,
    /// Day/night phase label.
    pub phase: String,
    /// Shards merged into this cell.
    pub shards: u64,
    /// Completed requests across those shards.
    pub requests: u64,
    /// Requests the drift injector mutated (ground truth).
    pub injected: u64,
    /// Ground truth: whether the drift scenario faulted this cell.
    pub drift_truth: bool,
    /// Merged request-latency digest (microseconds).
    pub latency_us: QuantileSketch,
    /// Merged request-CPI digest.
    pub cpi: QuantileSketch,
    /// Merged L2 misses-per-kilo-instruction digest.
    pub l2_mpki: QuantileSketch,
}

/// One `(app, seed, mix, sched)` group: the mean CPI of that grid line
/// across all its epochs — the observation unit of the variance
/// decomposition.
#[derive(Debug, Clone)]
pub struct GroupStat {
    /// Application short label.
    pub app: String,
    /// Seed-axis level.
    pub seed_index: u64,
    /// Workload-mix label.
    pub mix: String,
    /// Scheduler-variant label.
    pub sched: String,
    /// Mean request CPI over the group's epochs.
    pub mean_cpi: f64,
    /// Completed requests in the group.
    pub requests: u64,
}

/// The merged campaign artifact.
#[derive(Debug, Clone)]
pub struct Warehouse {
    /// Campaign label.
    pub label: String,
    /// Campaign base seed.
    pub seed: u64,
    /// Application short labels, in canonical order.
    pub apps: Vec<String>,
    /// Seed-axis levels.
    pub seeds: u64,
    /// Mix labels, in canonical order.
    pub mixes: Vec<String>,
    /// Scheduler-variant labels, in canonical order.
    pub scheds: Vec<String>,
    /// Total epochs.
    pub epochs: u32,
    /// Daytime requests per shard.
    pub day_requests: u64,
    /// Whether a drift scenario was injected.
    pub drift_injected: bool,
    /// Per-`(app, epoch)` merged cells, canonical order.
    pub cells: Vec<WarehouseCell>,
    /// Per-`(app, seed, mix, sched)` groups, canonical order.
    pub groups: Vec<GroupStat>,
    /// The merge auditor's verdict ([`InvariantTally::to_json`]).
    pub invariants: Json,
    /// Optional wall-clock stage timings (`--wallclock`); never diffed,
    /// never part of the byte-identity contract.
    pub profile: Option<Json>,
}

/// Canonical ordinal of a shard key within `spec` (its position in
/// [`CampaignSpec::shards`]); `None` for a key outside the grid.
fn ordinal(spec: &CampaignSpec, key: &ShardKey) -> Option<usize> {
    let mix = spec.mixes.iter().position(|m| *m == key.mix)?;
    let sched = spec.scheds.iter().position(|s| *s == key.sched)?;
    if key.app_index >= spec.apps.len()
        || spec.apps.get(key.app_index) != Some(&key.app)
        || key.seed_index >= spec.seeds
        || key.epoch >= spec.epochs
    {
        return None;
    }
    Some(
        ((key.app_index * spec.seeds + key.seed_index) * spec.mixes.len() + mix)
            * spec.scheds.len()
            * spec.epochs as usize
            + sched * spec.epochs as usize
            + key.epoch as usize,
    )
}

/// Folds shard digests into the warehouse document.
///
/// Shards may arrive in **any order**: they are re-sorted into canonical
/// grid order before any floating-point fold happens, which is what makes
/// the output independent of scheduling. The campaign invariant auditor
/// runs over the fold; its verdict lands in `invariants`.
///
/// # Errors
///
/// [`RbvError::Config`] when the shard set does not cover the grid
/// exactly once or contains a key outside the grid.
pub fn build_warehouse(
    spec: &CampaignSpec,
    mut shards: Vec<ShardOutput>,
    profile: Option<Json>,
) -> Result<(Warehouse, InvariantTally), RbvError> {
    spec.validate()?;
    let expected = spec.shards().len() as u64;
    let mut ordinals = Vec::with_capacity(shards.len());
    for s in &shards {
        let Some(ord) = ordinal(spec, &s.key) else {
            return Err(RbvError::Config(format!(
                "shard {} is not a cell of this campaign grid",
                s.label
            )));
        };
        ordinals.push(ord);
    }
    let mut seen = vec![false; expected as usize];
    for &ord in &ordinals {
        if seen[ord] {
            return Err(RbvError::Config(format!(
                "duplicate shard for grid cell {}",
                shards[ordinals.iter().position(|&o| o == ord).unwrap_or(0)].label
            )));
        }
        seen[ord] = true;
    }
    let mut auditor = InvariantTally::new();
    auditor.check_grid_coverage(expected, seen.iter().filter(|&&s| s).count() as u64);
    if shards.len() as u64 != expected {
        return Err(RbvError::Config(format!(
            "campaign grid has {expected} cells but {} shards arrived",
            shards.len()
        )));
    }

    // Canonical fold order — the heart of the byte-identity guarantee.
    shards.sort_by_key(|s| ordinal(spec, &s.key).unwrap_or(usize::MAX));

    let apps: Vec<String> = spec
        .apps
        .iter()
        .map(|&a| rbv_ledger::short_label(a).to_string())
        .collect();

    let mut cells = Vec::with_capacity(spec.apps.len() * spec.epochs as usize);
    for (app_index, app) in apps.iter().enumerate() {
        for epoch in 0..spec.epochs {
            let members: Vec<&ShardOutput> = shards
                .iter()
                .filter(|s| s.key.app_index == app_index && s.key.epoch == epoch)
                .collect();
            let latency_us = QuantileSketch::merge_all(members.iter().map(|s| &s.latency_us));
            let cpi = QuantileSketch::merge_all(members.iter().map(|s| &s.cpi));
            let l2_mpki = QuantileSketch::merge_all(members.iter().map(|s| &s.l2_mpki));
            let requests: u64 = members.iter().map(|s| s.requests).sum();
            let injected: u64 = members.iter().map(|s| s.injected).sum();
            let cell_label = format!("{app}/e{epoch}");
            auditor.check_count_conservation(
                &cell_label,
                members.iter().map(|s| s.latency_us.count()).sum(),
                latency_us.count(),
            );
            auditor.check_merged_extrema(
                &cell_label,
                members
                    .iter()
                    .filter_map(|s| s.cpi.min())
                    .fold(None, min_fold),
                members
                    .iter()
                    .filter_map(|s| s.cpi.max())
                    .fold(None, max_fold),
                cpi.min(),
                cpi.max(),
            );
            cells.push(WarehouseCell {
                app: app.clone(),
                epoch,
                phase: LoadPhase::of_epoch(epoch).label().to_string(),
                shards: members.len() as u64,
                requests,
                injected,
                drift_truth: spec
                    .drift
                    .as_ref()
                    .is_some_and(|ds| ds.is_drifted(app_index, epoch)),
                latency_us,
                cpi,
                l2_mpki,
            });
        }
    }

    let mut groups = Vec::new();
    for (app_index, app) in apps.iter().enumerate() {
        for seed_index in 0..spec.seeds {
            for &mix in &spec.mixes {
                for &sched in &spec.scheds {
                    let members: Vec<&ShardOutput> = shards
                        .iter()
                        .filter(|s| {
                            s.key.app_index == app_index
                                && s.key.seed_index == seed_index
                                && s.key.mix == mix
                                && s.key.sched == sched
                        })
                        .collect();
                    let cpi = QuantileSketch::merge_all(members.iter().map(|s| &s.cpi));
                    groups.push(GroupStat {
                        app: app.clone(),
                        seed_index: seed_index as u64,
                        mix: mix.label().to_string(),
                        sched: sched.label().to_string(),
                        mean_cpi: cpi.mean().unwrap_or(f64::NAN),
                        requests: members.iter().map(|s| s.requests).sum(),
                    });
                }
            }
        }
    }

    let warehouse = Warehouse {
        label: spec.label.clone(),
        seed: spec.seed,
        apps,
        seeds: spec.seeds as u64,
        mixes: spec.mixes.iter().map(|m| m.label().to_string()).collect(),
        scheds: spec.scheds.iter().map(|s| s.label().to_string()).collect(),
        epochs: spec.epochs,
        day_requests: spec.day_requests as u64,
        drift_injected: spec.drift.is_some(),
        cells,
        groups,
        invariants: auditor.to_json(),
        profile,
    };
    Ok((warehouse, auditor))
}

fn min_fold(acc: Option<f64>, v: f64) -> Option<f64> {
    Some(acc.map_or(v, |a| a.min(v)))
}

fn max_fold(acc: Option<f64>, v: f64) -> Option<f64> {
    Some(acc.map_or(v, |a| a.max(v)))
}

impl Warehouse {
    /// The cell of `(app, epoch)`, when present.
    pub fn cell(&self, app: &str, epoch: u32) -> Option<&WarehouseCell> {
        self.cells.iter().find(|c| c.app == app && c.epoch == epoch)
    }

    /// Invariant violations recorded by the merge auditor.
    pub fn invariant_violations(&self) -> u64 {
        self.invariants
            .get("violations")
            .and_then(Json::as_f64)
            .map_or(0, |v| v as u64)
    }

    /// Serializes to the `rbv-warehouse/v1` JSON document.
    pub fn to_json(&self) -> Json {
        let mut obj = vec![
            ("schema".to_string(), Json::str(SCHEMA)),
            ("label".to_string(), Json::str(self.label.clone())),
            ("seed".to_string(), Json::Num(self.seed as f64)),
            (
                "apps".to_string(),
                Json::Arr(self.apps.iter().map(|a| Json::str(a.clone())).collect()),
            ),
            ("seeds".to_string(), Json::Num(self.seeds as f64)),
            (
                "mixes".to_string(),
                Json::Arr(self.mixes.iter().map(|m| Json::str(m.clone())).collect()),
            ),
            (
                "scheds".to_string(),
                Json::Arr(self.scheds.iter().map(|s| Json::str(s.clone())).collect()),
            ),
            ("epochs".to_string(), Json::Num(f64::from(self.epochs))),
            (
                "day_requests".to_string(),
                Json::Num(self.day_requests as f64),
            ),
            (
                "drift_injected".to_string(),
                Json::Bool(self.drift_injected),
            ),
            (
                "cells".to_string(),
                Json::Arr(self.cells.iter().map(cell_to_json).collect()),
            ),
            (
                "groups".to_string(),
                Json::Arr(self.groups.iter().map(group_to_json).collect()),
            ),
            ("invariants".to_string(), self.invariants.clone()),
        ];
        if let Some(profile) = &self.profile {
            obj.push(("profile".to_string(), profile.clone()));
        }
        Json::Obj(obj)
    }

    /// Parses a document serialized by [`Warehouse::to_json`].
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed field.
    pub fn from_json(json: &Json) -> Result<Warehouse, String> {
        let schema = json
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("missing schema")?;
        if schema != SCHEMA {
            return Err(format!("unsupported schema {schema:?}, expected {SCHEMA}"));
        }
        let str_field = |key: &str| -> Result<String, String> {
            Ok(json
                .get(key)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("missing {key}"))?
                .to_string())
        };
        let num_field = |key: &str| -> Result<f64, String> {
            json.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing {key}"))
        };
        let str_list = |key: &str| -> Result<Vec<String>, String> {
            json.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("missing {key}"))?
                .iter()
                .map(|j| {
                    j.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("non-string entry in {key}"))
                })
                .collect()
        };
        let cells = json
            .get("cells")
            .and_then(Json::as_array)
            .ok_or("missing cells")?
            .iter()
            .map(cell_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let groups = json
            .get("groups")
            .and_then(Json::as_array)
            .ok_or("missing groups")?
            .iter()
            .map(group_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Warehouse {
            label: str_field("label")?,
            seed: num_field("seed")? as u64,
            apps: str_list("apps")?,
            seeds: num_field("seeds")? as u64,
            mixes: str_list("mixes")?,
            scheds: str_list("scheds")?,
            epochs: num_field("epochs")? as u32,
            day_requests: num_field("day_requests")? as u64,
            drift_injected: matches!(json.get("drift_injected"), Some(Json::Bool(true))),
            cells,
            groups,
            invariants: json
                .get("invariants")
                .cloned()
                .ok_or("missing invariants")?,
            profile: json.get("profile").cloned(),
        })
    }
}

fn cell_to_json(c: &WarehouseCell) -> Json {
    Json::Obj(vec![
        ("app".to_string(), Json::str(c.app.clone())),
        ("epoch".to_string(), Json::Num(f64::from(c.epoch))),
        ("phase".to_string(), Json::str(c.phase.clone())),
        ("shards".to_string(), Json::Num(c.shards as f64)),
        ("requests".to_string(), Json::Num(c.requests as f64)),
        ("injected".to_string(), Json::Num(c.injected as f64)),
        ("drift_truth".to_string(), Json::Bool(c.drift_truth)),
        ("latency_us".to_string(), c.latency_us.to_json()),
        ("cpi".to_string(), c.cpi.to_json()),
        ("l2_mpki".to_string(), c.l2_mpki.to_json()),
    ])
}

fn cell_from_json(json: &Json) -> Result<WarehouseCell, String> {
    let num = |key: &str| -> Result<f64, String> {
        json.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("cell missing {key}"))
    };
    let sketch = |key: &str| -> Result<QuantileSketch, String> {
        QuantileSketch::from_json(json.get(key).ok_or_else(|| format!("cell missing {key}"))?)
    };
    Ok(WarehouseCell {
        app: json
            .get("app")
            .and_then(Json::as_str)
            .ok_or("cell missing app")?
            .to_string(),
        epoch: num("epoch")? as u32,
        phase: json
            .get("phase")
            .and_then(Json::as_str)
            .ok_or("cell missing phase")?
            .to_string(),
        shards: num("shards")? as u64,
        requests: num("requests")? as u64,
        injected: num("injected")? as u64,
        drift_truth: matches!(json.get("drift_truth"), Some(Json::Bool(true))),
        latency_us: sketch("latency_us")?,
        cpi: sketch("cpi")?,
        l2_mpki: sketch("l2_mpki")?,
    })
}

fn group_to_json(g: &GroupStat) -> Json {
    Json::Obj(vec![
        ("app".to_string(), Json::str(g.app.clone())),
        ("seed_index".to_string(), Json::Num(g.seed_index as f64)),
        ("mix".to_string(), Json::str(g.mix.clone())),
        ("sched".to_string(), Json::str(g.sched.clone())),
        ("mean_cpi".to_string(), Json::Num(g.mean_cpi)),
        ("requests".to_string(), Json::Num(g.requests as f64)),
    ])
}

fn group_from_json(json: &Json) -> Result<GroupStat, String> {
    let num = |key: &str| -> Result<f64, String> {
        json.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("group missing {key}"))
    };
    let text = |key: &str| -> Result<String, String> {
        Ok(json
            .get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("group missing {key}"))?
            .to_string())
    };
    Ok(GroupStat {
        app: text("app")?,
        seed_index: num("seed_index")? as u64,
        mix: text("mix")?,
        sched: text("sched")?,
        mean_cpi: num("mean_cpi")?,
        requests: num("requests")? as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbv_workloads::AppId;

    fn synthetic_shards(spec: &CampaignSpec) -> Vec<ShardOutput> {
        spec.shards()
            .into_iter()
            .map(|key| {
                let seed = crate::shard::shard_seed(spec.seed, &key);
                let n = spec.requests_of(key.epoch);
                let values: Vec<f64> = (0..n)
                    .map(|i| 1.0 + ((seed.wrapping_add(i as u64) % 97) as f64) / 97.0)
                    .collect();
                ShardOutput {
                    key,
                    label: key.label(rbv_ledger::short_label(key.app)),
                    requests: n as u64,
                    latency_us: QuantileSketch::of(values.iter().map(|v| v * 100.0)),
                    cpi: QuantileSketch::of(values.iter().copied()),
                    l2_mpki: QuantileSketch::of(values.iter().map(|v| v * 3.0)),
                    drifted: false,
                    injected: 0,
                    sim_end: rbv_sim::Cycles::new(1),
                }
            })
            .collect()
    }

    #[test]
    fn fold_is_arrival_order_independent() {
        let spec = CampaignSpec::fast(7);
        let shards = synthetic_shards(&spec);
        let mut reversed = shards.clone();
        reversed.reverse();
        let (a, _) = build_warehouse(&spec, shards, None).expect("canonical");
        let (b, _) = build_warehouse(&spec, reversed, None).expect("reversed");
        assert_eq!(
            a.to_json().to_string_compact(),
            b.to_json().to_string_compact(),
            "warehouse must be byte-identical across shard arrival orders"
        );
        assert_eq!(a.invariant_violations(), 0);
    }

    #[test]
    fn json_round_trips() {
        let spec = CampaignSpec::fast(3);
        let (wh, _) = build_warehouse(&spec, synthetic_shards(&spec), None).expect("build");
        let json = wh.to_json();
        let back = Warehouse::from_json(&json).expect("parse");
        assert_eq!(
            back.to_json().to_string_compact(),
            json.to_string_compact(),
            "to_json . from_json must be the identity on documents"
        );
        assert_eq!(back.cells.len(), 2 * 4);
        assert_eq!(back.groups.len(), 2 * 2 * 2 * 2);
        assert!(back.cell("web", 0).is_some());
        assert!(back.cell("web", 99).is_none());
    }

    #[test]
    fn missing_and_duplicate_shards_are_rejected() {
        let spec = CampaignSpec::fast(5);
        let mut shards = synthetic_shards(&spec);
        let dup = shards[0].clone();
        let short = shards[1..].to_vec();
        assert!(build_warehouse(&spec, short, None).is_err(), "missing cell");
        shards.push(dup);
        assert!(
            build_warehouse(&spec, shards, None).is_err(),
            "duplicate cell"
        );
    }

    #[test]
    fn foreign_keys_are_rejected() {
        let spec = CampaignSpec::fast(5);
        let mut shards = synthetic_shards(&spec);
        shards[0].key.app = AppId::Rubis; // not app_index 0's app
        assert!(build_warehouse(&spec, shards, None).is_err());
    }

    #[test]
    fn profile_is_carried_but_optional() {
        let spec = CampaignSpec::fast(2);
        let profile = Json::Obj(vec![("wall_s.x".to_string(), Json::Num(0.5))]);
        let (wh, _) =
            build_warehouse(&spec, synthetic_shards(&spec), Some(profile)).expect("build");
        let parsed = Warehouse::from_json(&wh.to_json()).expect("parse");
        assert!(parsed.profile.is_some());
        let (bare, _) = build_warehouse(&spec, synthetic_shards(&spec), None).expect("build");
        assert!(Warehouse::from_json(&bare.to_json())
            .expect("parse")
            .profile
            .is_none());
    }
}
