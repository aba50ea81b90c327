//! Per-core DVFS, power, and thermal models for the simulated server.
//!
//! The paper's request-level attribution exists so a system can *act* on
//! behavior variation; PowerTracer-style work shows the canonical action:
//! trade frequency (and therefore the paper's p99-CPI win) against joules
//! without blowing latency targets. This crate supplies the physical
//! models the kernel (`rbv-os::machine`) integrates into its event loop:
//!
//! * [`PowerPolicy`] — a discrete P-state frequency ladder (ratios of the
//!   nominal 3 GHz clock, in milli-units) with a `static + dynamic·f³`
//!   per-core power model scaled by per-slice activity, an RC-style
//!   thermal model (linear relaxation toward the dissipation-dependent
//!   steady state — deliberately `exp`-free so the arithmetic is exactly
//!   reproducible), and firmware throttle thresholds;
//! * [`CorePower`] — one core's thermal/energy state: temperature in
//!   integer milli-°C, a fixed-point energy accumulator in µW·cycles
//!   (order-free integer addition, so merged ledgers are byte-identical
//!   at any `--threads`), and the firmware throttle latch;
//! * [`ThermalFaults`] — the seeded thermal fault class: a heatwave
//!   ambient step, a per-core cooling failure, and a sustained hot-loop
//!   (power-virus) window that multiplies dynamic power.
//!
//! Everything here is a pure state machine over integer inputs: no
//! randomness, no floating-point accumulation, no wall clock. The only
//! floating-point value near this crate is the activity fraction the
//! kernel derives from its contention model, and the kernel rounds it to
//! milli-units before it crosses this boundary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use rbv_sim::rng::mix64;
use rbv_sim::Cycles;
use rbv_telemetry::Json;

/// Milli-unit denominator shared by frequency ratios, activity fractions,
/// and fault multipliers.
pub const MILLI: u64 = 1_000;

/// Simulated clock rate in cycles per second (the 3 GHz the rest of the
/// reproduction assumes), used to convert µW·cycles to joules.
pub const CYCLES_PER_SEC: u64 = 3_000_000_000;

/// Converts a fixed-point energy accumulator (µW·cycles) to joules.
///
/// Reporting-only: the exact quantity is the integer accumulator itself.
pub fn joules(uw_cycles: u128) -> f64 {
    // µW·cycles / (cycles/s) = µW·s = µJ; / 1e6 = J.
    uw_cycles as f64 / (CYCLES_PER_SEC as f64 * 1e6)
}

/// The DVFS frequency ladder, power coefficients, thermal RC constants,
/// and firmware throttle thresholds for every core.
///
/// Frequencies are expressed as milli-ratios of the nominal clock: 1000
/// means full speed, 600 means 0.6×. The ladder is ordered fastest first,
/// and P-state 0 must be the full-speed state so that a power-model run
/// holding P-state 0 executes the exact same schedule as a power-off run.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerPolicy {
    /// P-state frequency ratios in milli-units of the nominal clock,
    /// strictly descending, first entry 1000 (full speed).
    pub ladder_milli: Vec<u32>,
    /// Static (leakage) power per core in milliwatts, paid even when idle.
    pub static_mw: u32,
    /// Dynamic power per core in milliwatts at full frequency and full
    /// activity; scales with the cube of the frequency ratio and linearly
    /// with per-slice activity.
    pub dynamic_mw: u32,
    /// Ambient (idle steady-state) temperature in milli-°C.
    pub ambient_milli_c: i64,
    /// Steady-state temperature rise per watt of dissipation, in milli-°C
    /// per watt (the thermal resistance R of the RC model).
    pub r_milli_c_per_w: u32,
    /// Thermal time constant of the RC model in cycles: the temperature
    /// relaxes toward its steady state by `dt/tau` of the gap per slice.
    pub tau: Cycles,
    /// Firmware throttle trip point in milli-°C: at or above this the
    /// core clamps to the slowest P-state.
    pub throttle_cap_milli_c: i64,
    /// Firmware throttle release point in milli-°C; must sit below the
    /// trip point. Firmware hysteresis is deliberately punitive (a wide
    /// band), which is exactly why proactive capping wins.
    pub throttle_release_milli_c: i64,
}

impl Default for PowerPolicy {
    fn default() -> PowerPolicy {
        PowerPolicy::paper_default()
    }
}

impl PowerPolicy {
    /// The default model: a 5-state ladder on a Xeon-5160-flavored core
    /// (≈12 W leakage + 28 W peak dynamic per core), ambient 45 °C,
    /// ≈1.1 °C/W thermal resistance, a 5 ms time constant (compressed so
    /// heating is observable within millisecond-scale runs), and a
    /// 95 °C→78 °C firmware throttle band. The slowest state (0.4×) sits
    /// far below the rest of the ladder: it models PROCHOT-style duty
    /// cycling, reachable only by the firmware clamp — which is exactly
    /// why the guard's proactive cap (a mild mid-ladder state) is worth
    /// engaging before the cap trips.
    pub fn paper_default() -> PowerPolicy {
        PowerPolicy {
            ladder_milli: vec![1000, 900, 800, 700, 400],
            static_mw: 12_000,
            dynamic_mw: 28_000,
            ambient_milli_c: 45_000,
            r_milli_c_per_w: 1_100,
            tau: Cycles::from_millis(5),
            throttle_cap_milli_c: 95_000,
            throttle_release_milli_c: 78_000,
        }
    }

    /// A neutral policy for identity tests: one full-speed P-state and an
    /// unreachable throttle cap, so the model observes (accumulates
    /// energy, tracks temperature) without ever influencing the schedule.
    pub fn neutral() -> PowerPolicy {
        PowerPolicy {
            ladder_milli: vec![1000],
            throttle_cap_milli_c: i64::MAX / 2,
            throttle_release_milli_c: i64::MAX / 4,
            ..PowerPolicy::paper_default()
        }
    }

    /// Validates field ranges.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first out-of-range field.
    pub fn validate(&self) -> Result<(), String> {
        if self.ladder_milli.is_empty() || self.ladder_milli.len() > 16 {
            return Err(format!(
                "power ladder must have 1..=16 P-states, got {}",
                self.ladder_milli.len()
            ));
        }
        if self.ladder_milli[0] != MILLI as u32 {
            return Err(format!(
                "power ladder must start at full speed (1000), got {}",
                self.ladder_milli[0]
            ));
        }
        for pair in self.ladder_milli.windows(2) {
            if pair[1] >= pair[0] {
                return Err(format!(
                    "power ladder must be strictly descending, got {} then {}",
                    pair[0], pair[1]
                ));
            }
        }
        if self.ladder_milli[self.ladder_milli.len() - 1] == 0 {
            return Err("power ladder ratios must be positive".into());
        }
        if self.tau.is_zero() {
            return Err("power tau must be nonzero".into());
        }
        if self.r_milli_c_per_w == 0 {
            return Err("power r_milli_c_per_w must be positive".into());
        }
        if self.throttle_release_milli_c >= self.throttle_cap_milli_c {
            return Err(format!(
                "power throttle release ({}) must sit below the cap ({})",
                self.throttle_release_milli_c, self.throttle_cap_milli_c
            ));
        }
        if self.ambient_milli_c >= self.throttle_release_milli_c {
            return Err(format!(
                "power ambient ({}) must sit below the throttle release ({})",
                self.ambient_milli_c, self.throttle_release_milli_c
            ));
        }
        Ok(())
    }

    /// Number of P-states on the ladder.
    pub fn pstates(&self) -> usize {
        self.ladder_milli.len()
    }

    /// Index of the slowest (firmware throttle) P-state.
    pub fn slowest(&self) -> usize {
        self.ladder_milli.len() - 1
    }

    /// The frequency ratio of `pstate` in milli-units, clamped to the
    /// ladder (out-of-range indices read the slowest state).
    pub fn ratio_milli(&self, pstate: usize) -> u32 {
        self.ladder_milli[pstate.min(self.slowest())]
    }

    /// The multiplier DVFS applies to the *compute* portion of CPI at
    /// `pstate`: time is counted in nominal-clock cycles, so a core at
    /// ratio r retires compute-bound instructions r× slower (CPI ÷ r)
    /// while memory-stall cycles are unchanged — the classic reason
    /// memory-bound phases are cheap to slow down.
    pub fn compute_cpi_factor(&self, pstate: usize) -> f64 {
        MILLI as f64 / f64::from(self.ratio_milli(pstate))
    }

    /// Per-core power in µW at `pstate` with activity `act_milli`
    /// (milli-fraction of the slice spent on compute; 0 = idle) and a
    /// dynamic-power fault multiplier `dyn_mult_milli` (1000 = nominal).
    ///
    /// Pure integer arithmetic: `static + dynamic · r³ · activity ·
    /// fault`, all in milli-units over a u128 intermediate, so the result
    /// is exactly reproducible and safely mergeable across shards.
    pub fn power_uw(&self, pstate: usize, act_milli: u32, dyn_mult_milli: u32) -> u64 {
        let r = u128::from(self.ratio_milli(pstate));
        let dynamic = u128::from(self.dynamic_mw)
            * MILLI as u128 // mW -> µW
            * r
            * r
            * r
            * u128::from(act_milli.min(MILLI as u32))
            * u128::from(dyn_mult_milli)
            / (MILLI as u128).pow(5);
        let total = u128::from(self.static_mw) * MILLI as u128 + dynamic;
        u64::try_from(total).unwrap_or(u64::MAX)
    }

    /// Steady-state temperature in milli-°C for a dissipation of
    /// `power_uw` with ambient offset `ambient_delta_milli_c` (heatwave)
    /// and thermal-resistance multiplier `r_mult_milli` (cooling failure;
    /// 1000 = nominal).
    pub fn steady_milli_c(
        &self,
        power_uw: u64,
        ambient_delta_milli_c: i64,
        r_mult_milli: u32,
    ) -> i64 {
        // µW · (m°C/W) / 1e6 = m°C, with the fault multiplier in milli.
        let rise = u128::from(power_uw) * u128::from(self.r_milli_c_per_w)
            / (MILLI as u128 * MILLI as u128) // µW->W
            * u128::from(r_mult_milli)
            / MILLI as u128;
        self.ambient_milli_c
            .saturating_add(ambient_delta_milli_c)
            .saturating_add(i64::try_from(rise).unwrap_or(i64::MAX))
    }

    /// One RC relaxation step: moves `temp` toward `steady` by
    /// `min(dt, tau)/tau` of the gap. Linear (first-order Euler with a
    /// clamped step) instead of exponential so the update is exact
    /// integer arithmetic; the clamp keeps it unconditionally stable.
    ///
    /// The step runs in `i64` when no intermediate can overflow and falls
    /// back to `i128` otherwise; both divisions truncate toward zero, so
    /// the two widths return the same integer.
    pub fn step_temp(&self, temp_milli_c: i64, steady_milli_c: i64, dt: Cycles) -> i64 {
        let tau = self.tau.get().max(1);
        let dt = dt.get().min(tau);
        if let (Ok(dt64), Ok(tau64)) = (i64::try_from(dt), i64::try_from(tau)) {
            let stepped = steady_milli_c
                .checked_sub(temp_milli_c)
                .and_then(|gap| gap.checked_mul(dt64))
                .and_then(|scaled| temp_milli_c.checked_add(scaled / tau64));
            if let Some(temp) = stepped {
                return temp;
            }
        }
        let gap = i128::from(steady_milli_c) - i128::from(temp_milli_c);
        let step = gap * i128::from(dt) / i128::from(tau);
        i64::try_from(i128::from(temp_milli_c) + step).unwrap_or(i64::MAX)
    }
}

/// What one accounting slice did to a core's power/thermal state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceOutcome {
    /// The P-state in effect during the elapsed slice.
    pub pstate: usize,
    /// Power drawn over the slice in µW.
    pub power_uw: u64,
    /// Firmware throttle edge this slice: `Some(true)` = engaged,
    /// `Some(false)` = released, `None` = unchanged.
    pub throttle_edge: Option<bool>,
    /// Core temperature after the slice, in milli-°C.
    pub temp_milli_c: i64,
}

/// One core's thermal/energy state: an integer temperature, the firmware
/// throttle latch, and the exact fixed-point energy accumulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorePower {
    /// Current temperature in milli-°C.
    pub temp_milli_c: i64,
    /// Whether firmware throttling is engaged (latched until the
    /// temperature falls to the release point).
    pub throttled: bool,
    /// Exact dissipated energy in µW·cycles.
    pub energy_uw_cycles: u128,
    /// Firmware throttle engagements.
    pub throttle_engages: u64,
    /// Firmware throttle releases.
    pub throttle_releases: u64,
}

impl CorePower {
    /// A core at ambient temperature with no energy dissipated.
    pub fn new(policy: &PowerPolicy) -> CorePower {
        CorePower {
            temp_milli_c: policy.ambient_milli_c,
            throttled: false,
            energy_uw_cycles: 0,
            throttle_engages: 0,
            throttle_releases: 0,
        }
    }

    /// The P-state this core runs at given the scheduler-requested state:
    /// firmware throttle overrides everything with the slowest state.
    pub fn effective_pstate(&self, policy: &PowerPolicy, requested: usize) -> usize {
        if self.throttled {
            policy.slowest()
        } else {
            requested.min(policy.slowest())
        }
    }

    /// Advances this core's thermal/energy state across an elapsed slice
    /// of `dt` cycles during which it ran at `pstate` with activity
    /// `act_milli`, under ambient offset `ambient_delta_milli_c`,
    /// cooling-failure multiplier `r_mult_milli`, and hot-loop dynamic
    /// multiplier `dyn_mult_milli` (all 0 / 1000 when no fault is live).
    ///
    /// Power is integrated with the state that was in effect *during* the
    /// slice; the firmware throttle latch is re-evaluated afterwards, so
    /// an edge reported here takes effect from the next slice on.
    #[allow(clippy::too_many_arguments)]
    pub fn advance(
        &mut self,
        policy: &PowerPolicy,
        dt: Cycles,
        pstate: usize,
        act_milli: u32,
        ambient_delta_milli_c: i64,
        r_mult_milli: u32,
        dyn_mult_milli: u32,
    ) -> SliceOutcome {
        let power_uw = policy.power_uw(pstate, act_milli, dyn_mult_milli);
        self.energy_uw_cycles += u128::from(power_uw) * u128::from(dt.get());
        let steady = policy.steady_milli_c(power_uw, ambient_delta_milli_c, r_mult_milli);
        self.temp_milli_c = policy.step_temp(self.temp_milli_c, steady, dt);
        let throttle_edge = if !self.throttled && self.temp_milli_c >= policy.throttle_cap_milli_c {
            self.throttled = true;
            self.throttle_engages += 1;
            Some(true)
        } else if self.throttled && self.temp_milli_c <= policy.throttle_release_milli_c {
            self.throttled = false;
            self.throttle_releases += 1;
            Some(false)
        } else {
            None
        };
        SliceOutcome {
            pstate,
            power_uw,
            throttle_edge,
            temp_milli_c: self.temp_milli_c,
        }
    }

    /// Thermal pressure of this core: 0 at ambient, 1 at the firmware
    /// cap, above 1 while the core sits over the cap (saturating at 2,
    /// so a runaway reading cannot swamp the guard's EWMA). The guard's
    /// power-capping ladder smooths the maximum of this across cores;
    /// readings at or past 1.0 are what drive its emergency park rung.
    pub fn pressure(&self, policy: &PowerPolicy) -> f64 {
        let span = (policy.throttle_cap_milli_c - policy.ambient_milli_c).max(1);
        let above = self.temp_milli_c - policy.ambient_milli_c;
        (above as f64 / span as f64).clamp(0.0, 2.0)
    }
}

/// The seeded thermal fault class: a heatwave (ambient step), a per-core
/// cooling failure (thermal-resistance multiplier on one hash-chosen
/// core), and a hot-loop window (a power-virus phase multiplying dynamic
/// power). All three are deterministic functions of simulated time, so
/// the same plan replays bit-identically under any thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThermalFaults {
    /// Seed choosing the cooling-failure victim core.
    pub seed: u64,
    /// Heatwave: ambient rises by `heatwave_milli_c` from `heatwave_at`.
    pub heatwave_at: Option<Cycles>,
    /// Ambient step of the heatwave in milli-°C.
    pub heatwave_milli_c: i64,
    /// Cooling failure: one core's thermal resistance multiplies by
    /// `cooling_mult_milli` from `cooling_fail_at`.
    pub cooling_fail_at: Option<Cycles>,
    /// Thermal-resistance multiplier of the cooling failure (milli).
    pub cooling_mult_milli: u32,
    /// Hot loop: dynamic power multiplies by `hot_loop_mult_milli` inside
    /// `[hot_loop_at, hot_loop_until)`.
    pub hot_loop_at: Option<Cycles>,
    /// End of the hot-loop window.
    pub hot_loop_until: Cycles,
    /// Dynamic-power multiplier of the hot loop (milli).
    pub hot_loop_mult_milli: u32,
}

impl ThermalFaults {
    /// No thermal faults (every query returns the nominal value).
    pub fn none(seed: u64) -> ThermalFaults {
        ThermalFaults {
            seed,
            heatwave_at: None,
            heatwave_milli_c: 0,
            cooling_fail_at: None,
            cooling_mult_milli: MILLI as u32,
            hot_loop_at: None,
            hot_loop_until: Cycles::ZERO,
            hot_loop_mult_milli: MILLI as u32,
        }
    }

    /// The canonical thermal storm the chaos harness injects: a cooling
    /// failure at 0.5 ms (1.9× thermal resistance on one hash-chosen
    /// core), a +22 °C heatwave from 1 ms, and a 1.6× hot loop across
    /// [1.5 ms, 6 ms) — timed to land inside millisecond-scale serve runs.
    pub fn storm(seed: u64) -> ThermalFaults {
        ThermalFaults {
            seed,
            heatwave_at: Some(Cycles::from_micros(1_000)),
            heatwave_milli_c: 22_000,
            cooling_fail_at: Some(Cycles::from_micros(500)),
            cooling_mult_milli: 1_900,
            hot_loop_at: Some(Cycles::from_micros(1_500)),
            hot_loop_until: Cycles::from_micros(6_000),
            hot_loop_mult_milli: 1_600,
        }
    }

    /// Validates field ranges.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first out-of-range field.
    pub fn validate(&self) -> Result<(), String> {
        if self.cooling_mult_milli < MILLI as u32 {
            return Err(format!(
                "thermal cooling_mult_milli must be at least 1000, got {}",
                self.cooling_mult_milli
            ));
        }
        if self.hot_loop_mult_milli < MILLI as u32 {
            return Err(format!(
                "thermal hot_loop_mult_milli must be at least 1000, got {}",
                self.hot_loop_mult_milli
            ));
        }
        if let Some(at) = self.hot_loop_at {
            if self.hot_loop_until <= at {
                return Err("thermal hot loop must end after it starts".into());
            }
        }
        Ok(())
    }

    /// Ambient offset in milli-°C at simulated time `now`.
    pub fn ambient_delta_at(&self, now: Cycles) -> i64 {
        match self.heatwave_at {
            Some(at) if now >= at => self.heatwave_milli_c,
            _ => 0,
        }
    }

    /// Thermal-resistance multiplier (milli) for `core` at `now`.
    pub fn cooling_mult_for(&self, core: usize, cores: usize, now: Cycles) -> u32 {
        match self.cooling_fail_at {
            Some(at) if now >= at && cores > 0 && core == self.victim_core(cores) => {
                self.cooling_mult_milli
            }
            _ => MILLI as u32,
        }
    }

    /// The hash-chosen cooling-failure victim among `cores` cores.
    pub fn victim_core(&self, cores: usize) -> usize {
        if cores == 0 {
            return 0;
        }
        (mix64(self.seed ^ 0xC001_F417) % cores as u64) as usize
    }

    /// Dynamic-power multiplier (milli) at `now`.
    pub fn dyn_mult_at(&self, now: Cycles) -> u32 {
        match self.hot_loop_at {
            Some(at) if now >= at && now < self.hot_loop_until => self.hot_loop_mult_milli,
            _ => MILLI as u32,
        }
    }

    /// Serializes the plan for reports.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("seed".into(), Json::Num(self.seed as f64)),
            (
                "heatwave_at".into(),
                match self.heatwave_at {
                    Some(at) => Json::Num(at.get() as f64),
                    None => Json::Null,
                },
            ),
            (
                "heatwave_milli_c".into(),
                Json::Num(self.heatwave_milli_c as f64),
            ),
            (
                "cooling_fail_at".into(),
                match self.cooling_fail_at {
                    Some(at) => Json::Num(at.get() as f64),
                    None => Json::Null,
                },
            ),
            (
                "cooling_mult_milli".into(),
                Json::Num(f64::from(self.cooling_mult_milli)),
            ),
            (
                "hot_loop_at".into(),
                match self.hot_loop_at {
                    Some(at) => Json::Num(at.get() as f64),
                    None => Json::Null,
                },
            ),
            (
                "hot_loop_until".into(),
                Json::Num(self.hot_loop_until.get() as f64),
            ),
            (
                "hot_loop_mult_milli".into(),
                Json::Num(f64::from(self.hot_loop_mult_milli)),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn default_and_neutral_policies_validate() {
        PowerPolicy::paper_default().validate().unwrap();
        PowerPolicy::neutral().validate().unwrap();
    }

    #[test]
    fn bad_policies_are_rejected() {
        for bad in [
            PowerPolicy {
                ladder_milli: vec![],
                ..PowerPolicy::paper_default()
            },
            PowerPolicy {
                ladder_milli: vec![900, 800],
                ..PowerPolicy::paper_default()
            },
            PowerPolicy {
                ladder_milli: vec![1000, 800, 800],
                ..PowerPolicy::paper_default()
            },
            PowerPolicy {
                tau: Cycles::ZERO,
                ..PowerPolicy::paper_default()
            },
            PowerPolicy {
                throttle_release_milli_c: 96_000,
                ..PowerPolicy::paper_default()
            },
            PowerPolicy {
                ambient_milli_c: 80_000,
                ..PowerPolicy::paper_default()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} should not validate");
        }
    }

    #[test]
    fn power_is_static_when_idle_and_cubic_in_frequency() {
        let p = PowerPolicy::paper_default();
        assert_eq!(p.power_uw(0, 0, 1000), 12_000_000);
        let full = p.power_uw(0, 1000, 1000);
        assert_eq!(full, 40_000_000, "12 W static + 28 W dynamic");
        // At the 0.4x PROCHOT state the dynamic term scales by 0.064.
        let slow = p.power_uw(p.slowest(), 1000, 1000);
        assert_eq!(slow, 12_000_000 + 28_000_000 * 64 / 1000);
        // Hot loop multiplies only the dynamic term.
        assert_eq!(p.power_uw(0, 1000, 2000), 12_000_000 + 56_000_000);
    }

    #[test]
    fn compute_cpi_factor_is_inverse_ratio() {
        let p = PowerPolicy::paper_default();
        assert_eq!(p.compute_cpi_factor(0), 1.0);
        assert!((p.compute_cpi_factor(4) - 1.0 / 0.4).abs() < 1e-12);
    }

    #[test]
    fn temperature_relaxes_toward_steady_state_and_is_stable() {
        let p = PowerPolicy::paper_default();
        let steady = p.steady_milli_c(40_000_000, 0, 1000);
        assert_eq!(steady, 45_000 + 44_000, "40 W at 1.1 C/W over 45 C");
        let mut t = p.ambient_milli_c;
        for _ in 0..100 {
            t = p.step_temp(t, steady, Cycles::from_millis(1));
        }
        assert!((t - steady).abs() < 100, "converges, got {t}");
        // Oversized steps clamp to tau: one step lands exactly on steady.
        assert_eq!(
            p.step_temp(p.ambient_milli_c, steady, Cycles::from_millis(50)),
            steady
        );
    }

    #[test]
    fn firmware_throttle_latches_with_hysteresis() {
        let p = PowerPolicy::paper_default();
        let mut core = CorePower::new(&p);
        // Cook the core with a cooling failure until it throttles.
        let mut edges = vec![];
        for _ in 0..60 {
            let out = core.advance(&p, Cycles::from_millis(1), 0, 1000, 0, 3000, 1000);
            if let Some(e) = out.throttle_edge {
                edges.push(e);
            }
        }
        assert_eq!(edges, vec![true], "engages once, stays latched");
        assert_eq!(core.effective_pstate(&p, 0), p.slowest());
        assert_eq!(core.throttle_engages, 1);
        // Cool at idle with nominal cooling until it releases.
        let mut released = false;
        for _ in 0..200 {
            let out = core.advance(&p, Cycles::from_millis(1), p.slowest(), 0, 0, 1000, 1000);
            if out.throttle_edge == Some(false) {
                released = true;
                break;
            }
        }
        assert!(released, "releases below the (punitive) release point");
        assert_eq!(core.effective_pstate(&p, 0), 0);
        assert_eq!(core.throttle_releases, 1);
    }

    #[test]
    fn energy_accumulates_exactly() {
        let p = PowerPolicy::paper_default();
        let mut core = CorePower::new(&p);
        core.advance(&p, Cycles::new(1_000), 0, 1000, 0, 1000, 1000);
        core.advance(&p, Cycles::new(500), 0, 0, 0, 1000, 1000);
        let expected = 40_000_000u128 * 1_000 + 12_000_000u128 * 500;
        assert_eq!(core.energy_uw_cycles, expected);
        // 3e15 µW·cycles would be one joule.
        assert!((joules(3_000_000_000_000_000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pressure_spans_ambient_to_cap() {
        let p = PowerPolicy::paper_default();
        let mut core = CorePower::new(&p);
        assert_eq!(core.pressure(&p), 0.0);
        core.temp_milli_c = p.throttle_cap_milli_c;
        assert_eq!(core.pressure(&p), 1.0);
        core.temp_milli_c = (p.ambient_milli_c + p.throttle_cap_milli_c) / 2;
        assert!((core.pressure(&p) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn thermal_faults_gate_on_time_and_core() {
        let f = ThermalFaults::storm(42);
        f.validate().unwrap();
        assert_eq!(f.ambient_delta_at(Cycles::from_micros(999)), 0);
        assert_eq!(f.ambient_delta_at(Cycles::from_micros(1_000)), 22_000);
        assert_eq!(f.dyn_mult_at(Cycles::from_micros(1_400)), 1_000);
        assert_eq!(f.dyn_mult_at(Cycles::from_micros(1_500)), 1_600);
        assert_eq!(f.dyn_mult_at(Cycles::from_micros(6_000)), 1_000);
        let victim = f.victim_core(4);
        assert!(victim < 4);
        for c in 0..4 {
            let expect = if c == victim { 1_900 } else { 1_000 };
            assert_eq!(f.cooling_mult_for(c, 4, Cycles::from_micros(600)), expect);
            assert_eq!(f.cooling_mult_for(c, 4, Cycles::from_micros(400)), 1_000);
        }
        let none = ThermalFaults::none(42);
        none.validate().unwrap();
        assert_eq!(none.ambient_delta_at(Cycles::from_millis(10)), 0);
        assert_eq!(none.dyn_mult_at(Cycles::from_millis(10)), 1_000);
    }

    #[test]
    fn json_reports_the_plan() {
        let j = ThermalFaults::storm(7).to_json();
        assert_eq!(j.get("seed").and_then(Json::as_f64), Some(7.0));
        assert_eq!(
            j.get("heatwave_milli_c").and_then(Json::as_f64),
            Some(22_000.0)
        );
        assert_eq!(
            ThermalFaults::none(7).to_json().get("heatwave_at"),
            Some(&Json::Null)
        );
    }

    /// [`PowerPolicy::step_temp`] as it stood before its `i64` fast
    /// path: the whole step in `i128`.
    fn step_temp_i128(policy: &PowerPolicy, temp: i64, steady: i64, dt: Cycles) -> i64 {
        let tau = policy.tau.get().max(1);
        let dt = dt.get().min(tau);
        let gap = i128::from(steady) - i128::from(temp);
        let step = gap * i128::from(dt) / i128::from(tau);
        i64::try_from(i128::from(temp) + step).unwrap_or(i64::MAX)
    }

    fn with_tau(tau: u64) -> PowerPolicy {
        PowerPolicy {
            tau: Cycles::new(tau),
            ..PowerPolicy::paper_default()
        }
    }

    #[test]
    fn step_temp_edge_cases_match_the_i128_reference() {
        // Temperatures and steady states near i64::MIN/MAX overflow the
        // gap, the scaled gap or the sum in i64 and take the fallback;
        // the rest take the i64 path. Both must agree with the reference.
        // A `tau` beyond i64::MAX always takes the fallback; it is paired
        // only with gaps whose i128 product with `dt` cannot overflow,
        // which the reference itself does not survive.
        let temps = [
            i64::MIN,
            i64::MIN + 1,
            i64::MIN / 2,
            -1_000_000_007,
            -1,
            0,
            1,
            45_000,
            95_000,
            1 << 40,
            i64::MAX / 2,
            i64::MAX - 1,
            i64::MAX,
        ];
        let near = [i64::MIN / 4, -1, 0, 45_000, i64::MAX / 4];
        let taus = [0, 1, 2, 7, 15_000_000, 1 << 40, i64::MAX as u64, u64::MAX];
        for tau in taus {
            let policy = with_tau(tau);
            let temps: &[i64] = if tau > i64::MAX as u64 { &near } else { &temps };
            let dts = [
                0,
                1,
                3,
                tau / 2,
                tau.saturating_sub(1),
                tau,
                tau.saturating_add(1),
                u64::MAX,
            ];
            for &temp in temps {
                for &steady in temps {
                    for dt in dts {
                        let dt = Cycles::new(dt);
                        assert_eq!(
                            policy.step_temp(temp, steady, dt),
                            step_temp_i128(&policy, temp, steady, dt),
                            "tau {tau} temp {temp} steady {steady} dt {dt:?}"
                        );
                    }
                }
            }
        }
    }

    proptest! {
        #[test]
        fn step_temp_matches_the_i128_reference(
            temp in prop_oneof![i64::MIN..=i64::MAX, -200_000i64..200_000],
            steady in prop_oneof![i64::MIN..=i64::MAX, -200_000i64..200_000],
            dt in prop_oneof![0..=u64::MAX, 0u64..40_000_000],
            tau in prop_oneof![Just(1u64), 0..=i64::MAX as u64, 1u64..40_000_000],
        ) {
            let policy = with_tau(tau);
            let dt = Cycles::new(dt);
            prop_assert_eq!(
                policy.step_temp(temp, steady, dt),
                step_temp_i128(&policy, temp, steady, dt)
            );
        }

        #[test]
        fn advance_is_deterministic_and_energy_is_additive(
            slices in proptest::collection::vec((1u64..2_000_000, 0u32..=1000, 0usize..5), 1..40)
        ) {
            let p = PowerPolicy::paper_default();
            let mut a = CorePower::new(&p);
            let mut b = CorePower::new(&p);
            let mut manual: u128 = 0;
            for (dt, act, ps) in &slices {
                let oa = a.advance(&p, Cycles::new(*dt), *ps, *act, 0, 1000, 1000);
                let ob = b.advance(&p, Cycles::new(*dt), *ps, *act, 0, 1000, 1000);
                prop_assert_eq!(oa, ob);
                manual += u128::from(oa.power_uw) * u128::from(*dt);
            }
            prop_assert_eq!(a, b);
            prop_assert_eq!(a.energy_uw_cycles, manual, "slice-sum equals accumulator exactly");
        }

        #[test]
        fn temperature_never_exceeds_the_hottest_steady_state(
            slices in proptest::collection::vec((1u64..20_000_000, 0u32..=1000), 1..60)
        ) {
            let p = PowerPolicy::paper_default();
            let hottest = p.steady_milli_c(p.power_uw(0, 1000, 1000), 0, 1000);
            let mut core = CorePower::new(&p);
            for (dt, act) in &slices {
                core.advance(&p, Cycles::new(*dt), 0, *act, 0, 1000, 1000);
                prop_assert!(core.temp_milli_c >= p.ambient_milli_c);
                prop_assert!(core.temp_milli_c <= hottest);
            }
        }
    }
}
