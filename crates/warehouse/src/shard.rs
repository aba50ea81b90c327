//! Running one campaign shard: a single deterministic simulation whose
//! request population is digested into mergeable sketches.
//!
//! A shard is a pure function of `(spec.seed, key)` — the engine seed,
//! factory seed, workload scale, concurrency, scheduler configuration and
//! (when the campaign is faulted) the drift plan all derive from the
//! shard key, never from the host, the thread that ran it, or the order
//! the pool scheduled it in.

use rbv_faults::FaultyFactory;
use rbv_os::{run_simulation, RbvError, RunResult, SchedulerPolicy, SimConfig};
use rbv_sim::rng::mix64;
use rbv_sim::Cycles;
use rbv_telemetry::{QuantileSketch, SelfProfiler};
use rbv_workloads::{factory_for, AppId};

use crate::spec::{CampaignSpec, LoadPhase, SchedVariant, ShardKey};

/// One shard's digest: everything the warehouse merge needs, nothing
/// request-granular.
#[derive(Debug, Clone)]
pub struct ShardOutput {
    /// The grid cell this shard ran.
    pub key: ShardKey,
    /// Canonical shard label (`web/s0/nominal/stock/e3`).
    pub label: String,
    /// Completed requests.
    pub requests: u64,
    /// Request latency digest (microseconds).
    pub latency_us: QuantileSketch,
    /// Request CPI digest.
    pub cpi: QuantileSketch,
    /// Request L2 misses-per-kilo-instruction digest.
    pub l2_mpki: QuantileSketch,
    /// Whether the drift scenario faulted this shard's cell.
    pub drifted: bool,
    /// Requests the injector actually mutated (0 when clean).
    pub injected: u64,
    /// Total simulated time (for campaign trace events).
    pub sim_end: Cycles,
}

/// Per-application instruction scale (mirrors the ledger collector,
/// keeping the two long-request applications affordable).
fn base_scale(app: AppId) -> f64 {
    match app {
        AppId::Tpch => 0.5,
        AppId::Webwork => 0.1,
        _ => 1.0,
    }
}

/// The engine/factory seed of a shard: a SplitMix64 finalization of the
/// campaign seed and every grid coordinate, so no two shards share an
/// RNG stream and the same cell reproduces bit-identically across runs.
pub fn shard_seed(campaign_seed: u64, key: &ShardKey) -> u64 {
    let coord = (key.app_index as u64) << 48
        | (key.seed_index as u64) << 32
        | (mix_ordinal(key) as u64) << 24
        | (sched_ordinal(key) as u64) << 16
        | u64::from(key.epoch);
    mix64(
        campaign_seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_mul(0x2545_F491_4F6C_DD1D)
            ^ coord,
    )
}

fn mix_ordinal(key: &ShardKey) -> u8 {
    match key.mix {
        crate::spec::MixId::Nominal => 0,
        crate::spec::MixId::Heavy => 1,
        crate::spec::MixId::Light => 2,
    }
}

fn sched_ordinal(key: &ShardKey) -> u8 {
    match key.sched {
        SchedVariant::Stock => 0,
        SchedVariant::Easing => 1,
    }
}

/// The shard's simulator configuration before any scheduler variant is
/// applied: paper-default machine, interrupt sampling at the app's
/// calibrated period, day/night concurrency curve.
fn shard_config(key: &ShardKey, seed: u64) -> SimConfig {
    let mut cfg =
        SimConfig::paper_default().with_interrupt_sampling(key.app.sampling_period_micros());
    cfg.seed = seed;
    if key.phase() == LoadPhase::Night {
        // Nighttime trough: half the offered concurrency.
        cfg.concurrency = (cfg.concurrency / 2).max(1);
    }
    cfg
}

/// Runs one simulation for the shard, wrapping the factory in the drift
/// injector when the campaign's scenario faults this cell. Returns the
/// run and the number of requests actually mutated.
fn run_once(
    spec: &CampaignSpec,
    key: &ShardKey,
    cfg: SimConfig,
    seed: u64,
    n: usize,
) -> Result<(RunResult, u64), RbvError> {
    let scale = base_scale(key.app) * key.mix.scale();
    let inner = factory_for(key.app, seed, scale);
    match &spec.drift {
        Some(ds) if ds.is_drifted(key.app_index, key.epoch) => {
            let mut faulty = FaultyFactory::new(inner, ds.plan_for(seed, key.app_index, key.epoch));
            let result = run_simulation(cfg, &mut faulty, n)?;
            let injected = faulty.injected().len() as u64;
            Ok((result, injected))
        }
        _ => {
            let mut factory = inner;
            let result = run_simulation(cfg, factory.as_mut(), n)?;
            Ok((result, 0))
        }
    }
}

/// Runs one shard to its digest.
///
/// Easing shards run twice: a stock pass derives the shard's own
/// contention threshold (keeping the shard self-contained — no cross-
/// shard data dependency survives into the fan-out), then the eased pass
/// produces the digest.
///
/// # Errors
///
/// Propagates [`RbvError`] from configuration validation.
pub fn run_shard(
    spec: &CampaignSpec,
    key: &ShardKey,
    profiler: &mut SelfProfiler,
) -> Result<ShardOutput, RbvError> {
    let label = key.label(rbv_ledger::short_label(key.app));
    let timer = profiler.stage(format!("campaign.{label}"));
    let seed = shard_seed(spec.seed, key);
    let n = spec.requests_of(key.epoch);

    let (result, injected) = match key.sched {
        SchedVariant::Stock => run_once(spec, key, shard_config(key, seed), seed, n)?,
        SchedVariant::Easing => {
            let (stock, _) = run_once(spec, key, shard_config(key, seed), seed, n)?;
            let mut cfg = shard_config(key, seed);
            cfg.scheduler = SchedulerPolicy::ContentionEasing {
                high_usage_threshold: stock.easing_threshold(),
            };
            cfg.easing_error_gate = true;
            run_once(spec, key, cfg, seed, n)?
        }
    };

    let drifted = spec
        .drift
        .as_ref()
        .is_some_and(|ds| ds.is_drifted(key.app_index, key.epoch));
    let out = ShardOutput {
        key: *key,
        label,
        requests: result.completed.len() as u64,
        latency_us: result.latency_sketch(),
        cpi: result.cpi_sketch(),
        l2_mpki: result.l2_mpki_sketch(),
        drifted,
        injected,
        sim_end: result.total_time,
    };
    profiler.stop(timer);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::MixId;

    fn tiny_spec() -> CampaignSpec {
        let mut spec = CampaignSpec::fast(42);
        spec.day_requests = 16;
        spec
    }

    fn key(epoch: u32, sched: SchedVariant) -> ShardKey {
        ShardKey {
            app: AppId::WebServer,
            app_index: 0,
            seed_index: 0,
            mix: MixId::Nominal,
            sched,
            epoch,
        }
    }

    #[test]
    fn shards_are_deterministic() {
        let spec = tiny_spec();
        let run = |k: &ShardKey| {
            let mut p = SelfProfiler::new();
            run_shard(&spec, k, &mut p).expect("valid shard")
        };
        let a = run(&key(0, SchedVariant::Stock));
        let b = run(&key(0, SchedVariant::Stock));
        assert_eq!(a.requests, b.requests);
        assert_eq!(
            a.cpi.to_json().to_string_compact(),
            b.cpi.to_json().to_string_compact()
        );
        assert_eq!(a.sim_end, b.sim_end);
        assert!(!a.drifted);
        assert_eq!(a.label, "web/s0/nominal/stock/e0");
    }

    #[test]
    fn day_and_night_epochs_differ_in_load() {
        let spec = tiny_spec();
        let mut p = SelfProfiler::new();
        let day = run_shard(&spec, &key(0, SchedVariant::Stock), &mut p).expect("day");
        let night = run_shard(&spec, &key(1, SchedVariant::Stock), &mut p).expect("night");
        assert_eq!(day.requests, 16);
        assert_eq!(night.requests, 10);
    }

    #[test]
    fn drifted_cells_inject_and_shift_cpi() {
        let mut spec = tiny_spec();
        spec.day_requests = 40;
        // Force every eligible cell to drift so the test is not hostage
        // to the cell hash.
        spec = spec.with_drift();
        if let Some(ds) = &mut spec.drift {
            ds.cell_prob = 1.0;
        }
        let mut p = SelfProfiler::new();
        let clean_ref = run_shard(&spec, &key(0, SchedVariant::Stock), &mut p).expect("ref");
        let drifted = run_shard(&spec, &key(2, SchedVariant::Stock), &mut p).expect("drifted");
        assert!(!clean_ref.drifted, "epoch 0 is a reference epoch");
        assert_eq!(clean_ref.injected, 0);
        assert!(drifted.drifted);
        assert!(drifted.injected > 0, "drift preset must mutate requests");
        // The shift shows in the body of the distribution (upper
        // quartile, p90, mean) — exactly what the detector's distance
        // ranges over.
        let distance = crate::detector::drift_distance(&clean_ref.cpi, &drifted.cpi);
        assert!(
            distance > 0.2,
            "drift should visibly shift the CPI body: distance {distance}"
        );
    }

    #[test]
    fn easing_shard_runs_the_easing_scheduler() {
        let spec = tiny_spec();
        let mut p = SelfProfiler::new();
        let eased = run_shard(&spec, &key(0, SchedVariant::Easing), &mut p).expect("eased");
        assert_eq!(eased.requests, 16);
        assert!(p
            .stages()
            .iter()
            .any(|(name, _)| name == "campaign.web/s0/nominal/easing/e0"));
    }

    #[test]
    fn shard_seeds_decorrelate_cells() {
        let spec = tiny_spec();
        let mut seen = std::collections::HashSet::new();
        for k in spec.shards() {
            assert!(seen.insert(shard_seed(spec.seed, &k)), "seed collision");
        }
        assert_ne!(
            shard_seed(1, &key(0, SchedVariant::Stock)),
            shard_seed(2, &key(0, SchedVariant::Stock))
        );
    }
}
