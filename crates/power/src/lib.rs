//! Per-core DVFS, power, and thermal models for the simulated server.
//!
//! The paper's request-level attribution exists so a system can *act* on
//! behavior variation; PowerTracer-style work shows the canonical action:
//! trade frequency (and therefore the paper's p99-CPI win) against joules
//! without blowing latency targets. This crate supplies the physical
//! models the kernel (`rbv-os::machine`) integrates into its event loop.
//! Every run uses one model, so its settings are `const`s:
//!
//! * the P-state ladder ([`LADDER_MILLI`], ratios of the nominal 3 GHz
//!   clock in milli-units) with a `static + dynamic·f³` per-core power
//!   model scaled by per-slice activity ([`power_uw`]), an RC-style
//!   thermal model (linear relaxation toward the dissipation-dependent
//!   steady state — deliberately `exp`-free so the arithmetic is exactly
//!   reproducible; [`steady_milli_c`], [`step_temp`]), and the firmware
//!   throttle band;
//! * [`CorePower`] — one core's thermal/energy state: temperature in
//!   integer milli-°C, a fixed-point energy accumulator in µW·cycles
//!   (order-free integer addition, so merged ledgers are byte-identical
//!   at any `--threads`), and the firmware throttle latch;
//! * [`ThermalStorm`] — the seeded thermal fault storm: a heatwave
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

/// P-state frequency ratios in milli-units of the nominal clock, fastest
/// first: a 5-state ladder on a Xeon-5160-flavored core. P-state 0 is
/// full speed, so a powered run holding P-state 0 executes the exact
/// schedule of a power-off run. The slowest state (0.4×) sits far below
/// the rest: it models PROCHOT-style duty cycling, reachable only by the
/// firmware clamp — which is exactly why the guard's proactive cap (a
/// mild mid-ladder state) is worth engaging before the cap trips.
pub const LADDER_MILLI: [u32; 5] = [1000, 900, 800, 700, 400];
/// Index of the slowest (firmware throttle) P-state.
pub const SLOWEST: usize = LADDER_MILLI.len() - 1;
/// Static (leakage) power per core in milliwatts, paid even when idle.
pub const STATIC_MW: u32 = 12_000;
/// Dynamic power per core in milliwatts at full frequency and full
/// activity; scales with the cube of the frequency ratio and linearly
/// with per-slice activity.
pub const DYNAMIC_MW: u32 = 28_000;
/// Ambient (idle steady-state) temperature in milli-°C.
pub const AMBIENT_MILLI_C: i64 = 45_000;
/// Steady-state temperature rise per watt of dissipation, in milli-°C per
/// watt (the thermal resistance R of the RC model).
pub const R_MILLI_C_PER_W: u32 = 1_100;
/// Thermal time constant of the RC model: the temperature relaxes toward
/// its steady state by `dt/TAU` of the gap per slice. Compressed to 5 ms
/// so heating is observable within millisecond-scale runs.
pub const TAU: Cycles = Cycles::from_millis(5);
/// Firmware throttle trip point in milli-°C: at or above this the core
/// clamps to the slowest P-state.
pub const THROTTLE_CAP_MILLI_C: i64 = 95_000;
/// Firmware throttle release point in milli-°C. Firmware hysteresis is
/// deliberately punitive (a wide band), which is exactly why proactive
/// capping wins.
pub const THROTTLE_RELEASE_MILLI_C: i64 = 78_000;

const _: () = {
    assert!(LADDER_MILLI[0] as u64 == MILLI, "P-state 0 is full speed");
    let mut i = 1;
    while i < LADDER_MILLI.len() {
        assert!(LADDER_MILLI[i] < LADDER_MILLI[i - 1], "ladder descends");
        i += 1;
    }
    assert!(LADDER_MILLI[SLOWEST] > 0);
};
const _: () = assert!(TAU.get() > 0 && TAU.get() <= i64::MAX as u64);
const _: () = assert!(R_MILLI_C_PER_W > 0);
const _: () = assert!(THROTTLE_RELEASE_MILLI_C < THROTTLE_CAP_MILLI_C);
const _: () = assert!(AMBIENT_MILLI_C < THROTTLE_RELEASE_MILLI_C);

/// Arms the power model in `SimConfig::power`. The model's settings are
/// the `const`s of this crate, so the policy carries none.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PowerPolicy;

impl PowerPolicy {
    /// The one power model: the constants above.
    pub fn paper_default() -> PowerPolicy {
        PowerPolicy
    }
}

/// The frequency ratio of `pstate` in milli-units, clamped to the ladder
/// (out-of-range indices read the slowest state).
pub fn ratio_milli(pstate: usize) -> u32 {
    LADDER_MILLI[pstate.min(SLOWEST)]
}

/// The multiplier DVFS applies to the *compute* portion of CPI at
/// `pstate`: time is counted in nominal-clock cycles, so a core at ratio
/// r retires compute-bound instructions r× slower (CPI ÷ r) while
/// memory-stall cycles are unchanged — the classic reason memory-bound
/// phases are cheap to slow down.
pub fn compute_cpi_factor(pstate: usize) -> f64 {
    MILLI as f64 / f64::from(ratio_milli(pstate))
}

/// Per-core power in µW at `pstate` with activity `act_milli`
/// (milli-fraction of the slice spent on compute; 0 = idle) and a
/// dynamic-power fault multiplier `dyn_mult_milli` (1000 = nominal).
///
/// Pure integer arithmetic: `static + dynamic · r³ · activity · fault`,
/// all in milli-units over a u128 intermediate, so the result is exactly
/// reproducible and safely mergeable across shards.
pub fn power_uw(pstate: usize, act_milli: u32, dyn_mult_milli: u32) -> u64 {
    let r = u128::from(ratio_milli(pstate));
    let dynamic = u128::from(DYNAMIC_MW)
        * MILLI as u128 // mW -> µW
        * r
        * r
        * r
        * u128::from(act_milli.min(MILLI as u32))
        * u128::from(dyn_mult_milli)
        / (MILLI as u128).pow(5);
    let total = u128::from(STATIC_MW) * MILLI as u128 + dynamic;
    u64::try_from(total).unwrap_or(u64::MAX)
}

/// Steady-state temperature in milli-°C for a dissipation of `power_uw`
/// with ambient offset `ambient_delta_milli_c` (heatwave) and
/// thermal-resistance multiplier `r_mult_milli` (cooling failure; 1000 =
/// nominal).
pub fn steady_milli_c(power_uw: u64, ambient_delta_milli_c: i64, r_mult_milli: u32) -> i64 {
    // µW · (m°C/W) / 1e6 = m°C, with the fault multiplier in milli.
    let rise = u128::from(power_uw) * u128::from(R_MILLI_C_PER_W)
        / (MILLI as u128 * MILLI as u128) // µW->W
        * u128::from(r_mult_milli)
        / MILLI as u128;
    AMBIENT_MILLI_C
        .saturating_add(ambient_delta_milli_c)
        .saturating_add(i64::try_from(rise).unwrap_or(i64::MAX))
}

/// One RC relaxation step: moves `temp` toward `steady` by
/// `min(dt, TAU)/TAU` of the gap. Linear (first-order Euler with a
/// clamped step) instead of exponential so the update is exact integer
/// arithmetic; the clamp keeps it unconditionally stable.
///
/// The step runs in `i64` when no intermediate can overflow and falls
/// back to `i128` otherwise; both divisions truncate toward zero, so the
/// two widths return the same integer.
pub fn step_temp(temp_milli_c: i64, steady_milli_c: i64, dt: Cycles) -> i64 {
    let tau = TAU.get() as i64;
    // `dt` is clamped to `TAU`, which fits an i64.
    let dt = dt.get().min(TAU.get()) as i64;
    let stepped = steady_milli_c
        .checked_sub(temp_milli_c)
        .and_then(|gap| gap.checked_mul(dt))
        .and_then(|scaled| temp_milli_c.checked_add(scaled / tau));
    stepped.unwrap_or_else(|| {
        let gap = i128::from(steady_milli_c) - i128::from(temp_milli_c);
        let step = gap * i128::from(dt) / i128::from(tau);
        i64::try_from(i128::from(temp_milli_c) + step).unwrap_or(i64::MAX)
    })
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

impl Default for CorePower {
    fn default() -> CorePower {
        CorePower::new()
    }
}

impl CorePower {
    /// A core at ambient temperature with no energy dissipated.
    pub fn new() -> CorePower {
        CorePower {
            temp_milli_c: AMBIENT_MILLI_C,
            throttled: false,
            energy_uw_cycles: 0,
            throttle_engages: 0,
            throttle_releases: 0,
        }
    }

    /// The P-state this core runs at given the scheduler-requested state:
    /// firmware throttle overrides everything with the slowest state.
    pub fn effective_pstate(&self, requested: usize) -> usize {
        if self.throttled {
            SLOWEST
        } else {
            requested.min(SLOWEST)
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
    pub fn advance(
        &mut self,
        dt: Cycles,
        pstate: usize,
        act_milli: u32,
        ambient_delta_milli_c: i64,
        r_mult_milli: u32,
        dyn_mult_milli: u32,
    ) -> SliceOutcome {
        let power_uw = power_uw(pstate, act_milli, dyn_mult_milli);
        self.energy_uw_cycles += u128::from(power_uw) * u128::from(dt.get());
        let steady = steady_milli_c(power_uw, ambient_delta_milli_c, r_mult_milli);
        self.temp_milli_c = step_temp(self.temp_milli_c, steady, dt);
        let throttle_edge = if !self.throttled && self.temp_milli_c >= THROTTLE_CAP_MILLI_C {
            self.throttled = true;
            self.throttle_engages += 1;
            Some(true)
        } else if self.throttled && self.temp_milli_c <= THROTTLE_RELEASE_MILLI_C {
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
    pub fn pressure(&self) -> f64 {
        let span = THROTTLE_CAP_MILLI_C - AMBIENT_MILLI_C;
        let above = self.temp_milli_c - AMBIENT_MILLI_C;
        (above as f64 / span as f64).clamp(0.0, 2.0)
    }
}

/// Cooling failure: one core's thermal resistance multiplies by
/// [`COOLING_MULT_MILLI`] from this instant.
pub const COOLING_FAIL_AT: Cycles = Cycles::from_micros(500);
/// Thermal-resistance multiplier of the cooling failure (milli).
pub const COOLING_MULT_MILLI: u32 = 1_900;
/// Heatwave: ambient rises by [`HEATWAVE_MILLI_C`] from this instant.
pub const HEATWAVE_AT: Cycles = Cycles::from_micros(1_000);
/// Ambient step of the heatwave in milli-°C.
pub const HEATWAVE_MILLI_C: i64 = 22_000;
/// Hot loop: dynamic power multiplies by [`HOT_LOOP_MULT_MILLI`] inside
/// `[HOT_LOOP_AT, HOT_LOOP_UNTIL)`.
pub const HOT_LOOP_AT: Cycles = Cycles::from_micros(1_500);
/// End of the hot-loop window.
pub const HOT_LOOP_UNTIL: Cycles = Cycles::from_micros(6_000);
/// Dynamic-power multiplier of the hot loop (milli).
pub const HOT_LOOP_MULT_MILLI: u32 = 1_600;

const _: () = assert!(COOLING_MULT_MILLI as u64 >= MILLI);
const _: () = assert!(HOT_LOOP_MULT_MILLI as u64 >= MILLI);
const _: () = assert!(HOT_LOOP_UNTIL.get() > HOT_LOOP_AT.get());

/// The seeded thermal fault storm (`SimConfig::thermal_storm`): a cooling
/// failure at 0.5 ms (1.9× thermal resistance on one hash-chosen core), a
/// +22 °C heatwave from 1 ms, and a 1.6× hot loop across [1.5 ms, 6 ms) —
/// timed to land inside millisecond-scale serve runs. All three are
/// deterministic functions of simulated time, so the storm replays
/// bit-identically under any thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThermalStorm {
    victim: usize,
}

impl ThermalStorm {
    /// The storm on a machine of `cores` cores; `seed` chooses the
    /// cooling-failure victim.
    pub fn new(seed: u64, cores: usize) -> ThermalStorm {
        let victim = if cores == 0 {
            0
        } else {
            (mix64(seed ^ 0xC001_F417) % cores as u64) as usize
        };
        ThermalStorm { victim }
    }

    /// Ambient offset in milli-°C at simulated time `now`.
    pub fn ambient_delta_at(&self, now: Cycles) -> i64 {
        if now >= HEATWAVE_AT {
            HEATWAVE_MILLI_C
        } else {
            0
        }
    }

    /// Thermal-resistance multiplier (milli) for `core` at `now`.
    pub fn cooling_mult_for(&self, core: usize, now: Cycles) -> u32 {
        if now >= COOLING_FAIL_AT && core == self.victim {
            COOLING_MULT_MILLI
        } else {
            MILLI as u32
        }
    }

    /// Dynamic-power multiplier (milli) at `now`.
    pub fn dyn_mult_at(&self, now: Cycles) -> u32 {
        if now >= HOT_LOOP_AT && now < HOT_LOOP_UNTIL {
            HOT_LOOP_MULT_MILLI
        } else {
            MILLI as u32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn power_is_static_when_idle_and_cubic_in_frequency() {
        assert_eq!(power_uw(0, 0, 1000), 12_000_000);
        let full = power_uw(0, 1000, 1000);
        assert_eq!(full, 40_000_000, "12 W static + 28 W dynamic");
        // At the 0.4x PROCHOT state the dynamic term scales by 0.064.
        let slow = power_uw(SLOWEST, 1000, 1000);
        assert_eq!(slow, 12_000_000 + 28_000_000 * 64 / 1000);
        // Hot loop multiplies only the dynamic term.
        assert_eq!(power_uw(0, 1000, 2000), 12_000_000 + 56_000_000);
    }

    #[test]
    fn compute_cpi_factor_is_inverse_ratio() {
        assert_eq!(compute_cpi_factor(0), 1.0);
        assert!((compute_cpi_factor(4) - 1.0 / 0.4).abs() < 1e-12);
    }

    #[test]
    fn temperature_relaxes_toward_steady_state_and_is_stable() {
        let steady = steady_milli_c(40_000_000, 0, 1000);
        assert_eq!(steady, 45_000 + 44_000, "40 W at 1.1 C/W over 45 C");
        let mut t = AMBIENT_MILLI_C;
        for _ in 0..100 {
            t = step_temp(t, steady, Cycles::from_millis(1));
        }
        assert!((t - steady).abs() < 100, "converges, got {t}");
        // Oversized steps clamp to tau: one step lands exactly on steady.
        assert_eq!(
            step_temp(AMBIENT_MILLI_C, steady, Cycles::from_millis(50)),
            steady
        );
    }

    #[test]
    fn firmware_throttle_latches_with_hysteresis() {
        let mut core = CorePower::new();
        // Cook the core with a cooling failure until it throttles.
        let mut edges = vec![];
        for _ in 0..60 {
            let out = core.advance(Cycles::from_millis(1), 0, 1000, 0, 3000, 1000);
            if let Some(e) = out.throttle_edge {
                edges.push(e);
            }
        }
        assert_eq!(edges, vec![true], "engages once, stays latched");
        assert_eq!(core.effective_pstate(0), SLOWEST);
        assert_eq!(core.throttle_engages, 1);
        // Cool at idle with nominal cooling until it releases.
        let mut released = false;
        for _ in 0..200 {
            let out = core.advance(Cycles::from_millis(1), SLOWEST, 0, 0, 1000, 1000);
            if out.throttle_edge == Some(false) {
                released = true;
                break;
            }
        }
        assert!(released, "releases below the (punitive) release point");
        assert_eq!(core.effective_pstate(0), 0);
        assert_eq!(core.throttle_releases, 1);
    }

    #[test]
    fn energy_accumulates_exactly() {
        let mut core = CorePower::new();
        core.advance(Cycles::new(1_000), 0, 1000, 0, 1000, 1000);
        core.advance(Cycles::new(500), 0, 0, 0, 1000, 1000);
        let expected = 40_000_000u128 * 1_000 + 12_000_000u128 * 500;
        assert_eq!(core.energy_uw_cycles, expected);
        // 3e15 µW·cycles would be one joule.
        assert!((joules(3_000_000_000_000_000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pressure_spans_ambient_to_cap() {
        let mut core = CorePower::new();
        assert_eq!(core.pressure(), 0.0);
        core.temp_milli_c = THROTTLE_CAP_MILLI_C;
        assert_eq!(core.pressure(), 1.0);
        core.temp_milli_c = (AMBIENT_MILLI_C + THROTTLE_CAP_MILLI_C) / 2;
        assert!((core.pressure() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn thermal_storm_gates_on_time_and_core() {
        let f = ThermalStorm::new(42, 4);
        assert_eq!(f.ambient_delta_at(Cycles::from_micros(999)), 0);
        assert_eq!(f.ambient_delta_at(Cycles::from_micros(1_000)), 22_000);
        assert_eq!(f.dyn_mult_at(Cycles::from_micros(1_400)), 1_000);
        assert_eq!(f.dyn_mult_at(Cycles::from_micros(1_500)), 1_600);
        assert_eq!(f.dyn_mult_at(Cycles::from_micros(6_000)), 1_000);
        let victim = f.victim;
        assert!(victim < 4);
        for c in 0..4 {
            let expect = if c == victim { 1_900 } else { 1_000 };
            assert_eq!(f.cooling_mult_for(c, Cycles::from_micros(600)), expect);
            assert_eq!(f.cooling_mult_for(c, Cycles::from_micros(400)), 1_000);
        }
        assert_eq!(ThermalStorm::new(42, 0).victim, 0);
    }

    /// [`step_temp`] as it stood before its `i64` fast path: the whole
    /// step in `i128`.
    fn step_temp_i128(temp: i64, steady: i64, dt: Cycles) -> i64 {
        let tau = TAU.get();
        let dt = dt.get().min(tau);
        let gap = i128::from(steady) - i128::from(temp);
        let step = gap * i128::from(dt) / i128::from(tau);
        i64::try_from(i128::from(temp) + step).unwrap_or(i64::MAX)
    }

    #[test]
    fn step_temp_edge_cases_match_the_i128_reference() {
        // Temperatures and steady states near i64::MIN/MAX overflow the
        // gap, the scaled gap or the sum in i64 and take the fallback;
        // the rest take the i64 path. Both must agree with the reference.
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
        let tau = TAU.get();
        let dts = [0, 1, 3, tau / 2, tau - 1, tau, tau + 1, u64::MAX];
        for temp in temps {
            for steady in temps {
                for dt in dts {
                    let dt = Cycles::new(dt);
                    assert_eq!(
                        step_temp(temp, steady, dt),
                        step_temp_i128(temp, steady, dt),
                        "temp {temp} steady {steady} dt {dt:?}"
                    );
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
        ) {
            let dt = Cycles::new(dt);
            prop_assert_eq!(step_temp(temp, steady, dt), step_temp_i128(temp, steady, dt));
        }

        #[test]
        fn advance_is_deterministic_and_energy_is_additive(
            slices in proptest::collection::vec((1u64..2_000_000, 0u32..=1000, 0usize..5), 1..40)
        ) {
            let mut a = CorePower::new();
            let mut b = CorePower::new();
            let mut manual: u128 = 0;
            for (dt, act, ps) in &slices {
                let oa = a.advance(Cycles::new(*dt), *ps, *act, 0, 1000, 1000);
                let ob = b.advance(Cycles::new(*dt), *ps, *act, 0, 1000, 1000);
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
            let hottest = steady_milli_c(power_uw(0, 1000, 1000), 0, 1000);
            let mut core = CorePower::new();
            for (dt, act) in &slices {
                core.advance(Cycles::new(*dt), 0, *act, 0, 1000, 1000);
                prop_assert!(core.temp_milli_c >= AMBIENT_MILLI_C);
                prop_assert!(core.temp_milli_c <= hottest);
            }
        }
    }
}
