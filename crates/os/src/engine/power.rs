//! DVFS, the thermal model and the guard's power-capping ladder, in
//! exact integer arithmetic (`rbv-power`) so powered ledgers stay
//! byte-identical under any shard count.

use rbv_guard::{InvariantMonitor, PowerLadder};
use rbv_mem::PerfEstimate;
use rbv_power::{CorePower, ThermalStorm};
use rbv_sim::Cycles;
use rbv_telemetry::TraceEvent;

use super::Tracer;
use crate::result::EnergyStats;

/// A fault or power multiplier at its nominal value (milli-units).
const NOMINAL_MILLI: u32 = rbv_power::MILLI as u32;

// The guard's frequency cap is a real P-state, faster than the
// firmware clamp it exists to pre-empt.
const _: () = assert!(rbv_guard::power::CAP_PSTATE < rbv_power::SLOWEST);

/// One core's accounting slice: the P-state and activity in force since
/// the last rate flush, and the power draw and steady-state temperature
/// they give under the storm multipliers last seen. The draw is
/// recomputed only when one of those inputs changes, not on every event.
#[derive(Clone, Copy, Default)]
struct Slice {
    /// Effective P-state (firmware throttle already applied).
    pstate: usize,
    /// Activity milli-fraction (0 for an idle core: static power only).
    act_milli: u32,
    /// The `(ambient delta, cooling multiplier, dynamic multiplier)` the
    /// draw below was computed under; `None` until it is computed for the
    /// current P-state and activity.
    storm: Option<(i64, u32, u32)>,
    power_uw: u64,
    steady_milli_c: i64,
}

impl Slice {
    /// Opens a slice at `pstate` and `act_milli`.
    fn set(&mut self, pstate: usize, act_milli: u32) {
        if (pstate, act_milli) != (self.pstate, self.act_milli) {
            self.pstate = pstate;
            self.act_milli = act_milli;
            self.storm = None;
        }
    }

    /// The slice's power draw in µW under `storm`, computing it (and the
    /// steady-state temperature) if an input changed.
    fn draw(&mut self, storm: (i64, u32, u32)) -> u64 {
        if self.storm != Some(storm) {
            let (ambient_delta, r_mult, dyn_mult) = storm;
            self.power_uw = rbv_power::power_uw(self.pstate, self.act_milli, dyn_mult);
            self.steady_milli_c = rbv_power::steady_milli_c(self.power_uw, ambient_delta, r_mult);
            self.storm = Some(storm);
        }
        self.power_uw
    }
}

/// Per-core DVFS/thermal integration state, present only when
/// [`crate::SimConfig::power`] is set.
pub(super) struct PowerState {
    /// The thermal storm, when [`crate::SimConfig::thermal_storm`] is set.
    storm: Option<ThermalStorm>,
    /// Per-core temperature, throttle latch, and energy accumulator.
    cores: Vec<CorePower>,
    /// Each core's current accounting slice.
    slices: Vec<Slice>,
    /// Instant the cores were last advanced to.
    since: Cycles,
    /// Last P-state recorded per core, for DVFS transition edges.
    last_pstate: Vec<usize>,
    /// Running machine-wide energy total; the energy-conservation
    /// invariant requires this to equal the per-core sum *exactly*.
    total_uw_cycles: u128,
    /// DVFS transition edges observed across all cores.
    dvfs_transitions: u64,
    /// Hottest temperature any core reached, milli-°C.
    max_temp_milli_c: i64,
    /// The guard's power-capping ladder, armed exactly when the guard is
    /// on, and the core its park rung holds: the hottest core at the
    /// instant the ladder enters the rung, latched until it leaves (so
    /// the choice cannot thrash as temperatures shift under it).
    ladder: Option<PowerLadder>,
    parked: Option<usize>,
}

impl PowerState {
    pub(super) fn new(seed: u64, cores: usize, thermal_storm: bool, guard: bool) -> PowerState {
        PowerState {
            storm: thermal_storm.then(|| ThermalStorm::new(seed, cores)),
            cores: vec![CorePower::new(); cores],
            slices: vec![Slice::default(); cores],
            since: Cycles::ZERO,
            last_pstate: vec![0; cores],
            total_uw_cycles: 0,
            dvfs_transitions: 0,
            max_temp_milli_c: rbv_power::AMBIENT_MILLI_C,
            ladder: guard.then(PowerLadder::new),
            parked: None,
        }
    }

    /// Advances every core (idle ones pay static power) from the last
    /// event to `now` under the P-state and activity in force since.
    /// Fault multipliers are step functions of time, sampled at the
    /// slice start — the same "state changes take effect at events"
    /// convention as the rates. Returns whether a firmware throttle
    /// engaged or released.
    pub(super) fn advance(&mut self, now: Cycles, trace: &mut Tracer<'_>) -> bool {
        let start = std::mem::replace(&mut self.since, now);
        let elapsed = now.saturating_sub(start);
        if elapsed.is_zero() {
            return false;
        }
        let storm = self.storm;
        let ambient_delta = storm.map_or(0, |s| s.ambient_delta_at(start));
        let dyn_mult = storm.map_or(NOMINAL_MILLI, |s| s.dyn_mult_at(start));
        let mut edge = false;
        for (c, (core, slice)) in self.cores.iter_mut().zip(&mut self.slices).enumerate() {
            let r_mult = storm.map_or(NOMINAL_MILLI, |s| s.cooling_mult_for(c, start));
            let power_uw = slice.draw((ambient_delta, r_mult, dyn_mult));
            let throttle_edge = core.step(elapsed, power_uw, slice.steady_milli_c);
            self.total_uw_cycles += u128::from(power_uw) * u128::from(elapsed.get());
            self.max_temp_milli_c = self.max_temp_milli_c.max(core.temp_milli_c);
            if let Some(engaged) = throttle_edge {
                edge = true;
                let temp_milli_c = core.temp_milli_c;
                trace.emit(|| TraceEvent::ThermalThrottle {
                    ts: now,
                    core: c as u32,
                    engaged,
                    temp_milli_c,
                });
            }
        }
        edge
    }

    /// Applies DVFS to freshly evaluated rates: splits each running
    /// core's CPI into its compute base and memory-stall components, slows
    /// only the base by the effective P-state's inverse ratio (memory
    /// stalls are wall-time and the clock is counted in nominal cycles),
    /// and records the slice P-state/activity the next
    /// [`PowerState::advance`] integrates power over. At full speed the
    /// rates are left bit-identical to a power-unaware build.
    pub(super) fn apply_dvfs(
        &mut self,
        rates: &mut [Option<PerfEstimate>],
        l2_hit_cycles: f64,
        now: Cycles,
        trace: &mut Tracer<'_>,
    ) {
        let cap = match &self.ladder {
            Some(ladder) if ladder.rung().caps_frequency() => rbv_guard::power::CAP_PSTATE,
            _ => 0,
        };
        for (c, rate) in rates.iter_mut().enumerate() {
            let effective = self.cores[c].effective_pstate(cap);
            let act_milli = match rate {
                Some(rate) => {
                    let stall = rate.l2_refs_per_ins
                        * (l2_hit_cycles * (1.0 - rate.l2_miss_ratio)
                            + rate.mem_latency_cycles * rate.l2_miss_ratio);
                    let base = (rate.cpi - stall).max(0.0);
                    let factor = rbv_power::compute_cpi_factor(effective);
                    if factor != 1.0 {
                        rate.cpi = base * factor + stall;
                    }
                    ((base * factor / rate.cpi) * 1000.0)
                        .round()
                        .clamp(0.0, 1000.0) as u32
                }
                None => 0,
            };
            self.slices[c].set(effective, act_milli);
            let from = self.last_pstate[c];
            if effective != from {
                self.dvfs_transitions += 1;
                trace.emit(|| TraceEvent::DvfsTransition {
                    ts: now,
                    core: c as u32,
                    from_pstate: from as u32,
                    to_pstate: effective as u32,
                    ratio_milli: rbv_power::ratio_milli(effective),
                });
                self.last_pstate[c] = effective;
            }
        }
    }

    /// A guard tick: feeds the hottest core's thermal pressure to the
    /// power ladder. Returns whether its rung moved, which changes the
    /// frequency cap and possibly parks or unparks a core. Reported on
    /// the health-transition channel with the power-rung labels.
    pub(super) fn tick_ladder(&mut self, now: Cycles, trace: &mut Tracer<'_>) -> bool {
        let pressure = self
            .cores
            .iter()
            .map(CorePower::pressure)
            .fold(0.0, f64::max);
        let Some(t) = self.ladder.as_mut().and_then(|l| l.observe(pressure, now)) else {
            return false;
        };
        if t.to.parks_core() {
            // The hottest core; ties go to the lowest index.
            let cores = self.cores.iter().enumerate().rev();
            self.parked = cores.max_by_key(|(_, c)| c.temp_milli_c).map(|(c, _)| c);
        } else if t.from.parks_core() {
            self.parked = None;
        }
        trace.emit(|| TraceEvent::HealthTransition {
            ts: now,
            from: t.from.label().to_string(),
            to: t.to.label().to_string(),
            score: t.pressure,
        });
        true
    }

    /// The core the power ladder's park rung holds, while it is on it.
    pub(super) fn parked(&self) -> Option<usize> {
        self.ladder
            .as_ref()
            .filter(|l| l.rung().parks_core())
            .and(self.parked)
    }

    /// Energy conservation: the machine total equals the per-core sum.
    pub(super) fn check_energy(&self, monitor: &mut InvariantMonitor) {
        let core_sum: u128 = self.cores.iter().map(|c| c.energy_uw_cycles).sum();
        monitor.check_energy_conservation(core_sum, self.total_uw_cycles);
    }

    /// Each core's P-state is on the ladder, and throttle engages and
    /// releases balance against the cores still throttled.
    pub(super) fn check_bounds(&self, monitor: &mut InvariantMonitor) {
        for (c, slice) in self.slices.iter().enumerate() {
            monitor.check_frequency_bounds(
                c as u64,
                slice.pstate as u64,
                rbv_power::LADDER_MILLI.len() as u64,
                u64::from(rbv_power::ratio_milli(slice.pstate)),
            );
        }
        let e = self.stats();
        monitor.check_throttle_conservation(
            e.throttle_engages,
            e.throttle_releases,
            e.throttled_final,
        );
    }

    /// The end-of-run state as the ledger's `energy.*` metric family
    /// (power-off runs have none, keeping their ledgers unchanged).
    pub(super) fn stats(&self) -> EnergyStats {
        let (power_rung_transitions, power_final_rung) = self
            .ladder
            .as_ref()
            .map_or((0, 0), |l| (l.transitions(), l.rung().index() as u64));
        EnergyStats {
            core_uw_cycles: self.cores.iter().map(|c| c.energy_uw_cycles).collect(),
            total_uw_cycles: self.total_uw_cycles,
            throttle_engages: self.cores.iter().map(|c| c.throttle_engages).sum(),
            throttle_releases: self.cores.iter().map(|c| c.throttle_releases).sum(),
            throttled_final: self.cores.iter().filter(|c| c.throttled).count() as u64,
            dvfs_transitions: self.dvfs_transitions,
            max_temp_milli_c: self.max_temp_milli_c,
            final_temp_milli_c: self.cores.iter().map(|c| c.temp_milli_c).collect(),
            power_rung_transitions,
            power_final_rung,
        }
    }
}
