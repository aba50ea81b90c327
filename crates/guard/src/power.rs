//! The power-capping ladder: thermal pressure → frequency cap → core park.
//!
//! Firmware thermal throttling (in `rbv-power`) is the defense of last
//! resort: it trips at the cap, clamps the core to the slowest P-state,
//! and holds it there across a deliberately wide hysteresis band. The
//! latency cost of that clamp is what this ladder exists to avoid. It
//! watches a *smoothed* thermal-pressure signal — the hottest core's
//! temperature as a fraction of the distance from ambient to the firmware
//! cap — and degrades proactively, one rung per dwell, with the same
//! hysteresis-plus-dwell machinery as the measurement-health ladder:
//!
//! 1. [`PowerRung::Nominal`] — full frequency, every core available;
//! 2. [`PowerRung::FreqCap`] — every core capped at [`CAP_PSTATE`], a
//!    mild cut that sheds heat while costing far less CPI than the
//!    firmware clamp; engages when the smoothed pressure crosses
//!    [`ENGAGE_ABOVE`];
//! 3. [`PowerRung::CorePark`] — the emergency rung: the frequency cap
//!    stays and the hottest core is parked (no new placements), trading
//!    capacity for thermal headroom. Reserved for extreme pressure
//!    ([`PARK_ABOVE`], 1.0 — a core at or past the firmware cap itself),
//!    because parking costs a quarter of the machine and
//!    sustained-but-contained heat is better answered by the cap alone.
//!
//! The ladder is a pure state machine over a scalar input: the kernel
//! computes the pressure from its per-core thermal state and feeds it in
//! once per accounting window, keeping this crate below `rbv-os` in the
//! dependency DAG.

use rbv_sim::Cycles;
use rbv_telemetry::Json;

/// A rung of the power-capping ladder, coolest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PowerRung {
    /// Full frequency, every core available.
    Nominal,
    /// Every core capped at [`CAP_PSTATE`].
    FreqCap,
    /// Frequency cap plus the hottest core parked.
    CorePark,
}

impl PowerRung {
    /// Every rung, coolest first.
    pub const ALL: [PowerRung; 3] = [PowerRung::Nominal, PowerRung::FreqCap, PowerRung::CorePark];

    /// Stable lowercase label for telemetry and the ledger.
    pub fn label(&self) -> &'static str {
        match self {
            PowerRung::Nominal => "nominal",
            PowerRung::FreqCap => "freq_cap",
            PowerRung::CorePark => "core_park",
        }
    }

    /// Position in [`PowerRung::ALL`] (0 = coolest).
    pub fn index(&self) -> usize {
        *self as usize
    }

    /// Whether this rung caps core frequency.
    pub fn caps_frequency(&self) -> bool {
        self.index() >= PowerRung::FreqCap.index()
    }

    /// Whether this rung parks a core.
    pub fn parks_core(&self) -> bool {
        *self == PowerRung::CorePark
    }

    fn hotter(self) -> PowerRung {
        match self {
            PowerRung::Nominal => PowerRung::FreqCap,
            _ => PowerRung::CorePark,
        }
    }

    fn cooler(self) -> PowerRung {
        match self {
            PowerRung::CorePark => PowerRung::FreqCap,
            _ => PowerRung::Nominal,
        }
    }
}

/// Degrade one rung when the smoothed thermal pressure rises above this.
pub const ENGAGE_ABOVE: f64 = 0.55;
/// Recover one rung when the smoothed pressure falls below this; the gap
/// below [`ENGAGE_ABOVE`] is the hysteresis band.
pub const RECOVER_BELOW: f64 = 0.4;
/// Enter the core-parking emergency rung only at or above this smoothed
/// pressure: 1.0 means "some core is at or past the firmware cap" —
/// anything less is answered by the frequency cap alone.
pub const PARK_ABOVE: f64 = 1.0;
/// Minimum simulated time between two ladder transitions.
pub const DWELL: Cycles = Cycles::from_millis(1);
/// Smoothing factor for the pressure EWMA (weight of the new window).
pub const ALPHA: f64 = 0.5;
/// The P-state index every core is capped at on the capping rungs — a
/// mild cut, not the firmware clamp's slowest state. P-state 3 (0.7×)
/// under the paper-default ladder is deep enough that a capped core's
/// heatwave steady state sits below the firmware cap, and mild enough
/// to beat the clamp.
pub const CAP_PSTATE: usize = 3;

const _: () = assert!(ENGAGE_ABOVE > 0.0 && ENGAGE_ABOVE < 1.0);
const _: () = assert!(RECOVER_BELOW > 0.0 && RECOVER_BELOW < ENGAGE_ABOVE);
const _: () = assert!(PARK_ABOVE > ENGAGE_ABOVE);
const _: () = assert!(!DWELL.is_zero());
const _: () = assert!(ALPHA > 0.0 && ALPHA <= 1.0);
const _: () = assert!(CAP_PSTATE > 0);

/// A power-ladder transition, as reported to telemetry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerTransition {
    /// The rung the ladder left.
    pub from: PowerRung,
    /// The rung the ladder entered.
    pub to: PowerRung,
    /// The smoothed thermal pressure at the time of the move.
    pub pressure: f64,
}

/// The power-capping ladder state machine.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerLadder {
    rung: PowerRung,
    smoothed: f64,
    primed: bool,
    last_transition: Option<Cycles>,
    transitions: u64,
}

impl Default for PowerLadder {
    fn default() -> PowerLadder {
        PowerLadder::new()
    }
}

impl PowerLadder {
    /// Builds a ladder starting on the coolest rung.
    pub fn new() -> PowerLadder {
        PowerLadder {
            rung: PowerRung::Nominal,
            smoothed: 0.0,
            primed: false,
            last_transition: None,
            transitions: 0,
        }
    }

    /// The current rung.
    pub fn rung(&self) -> PowerRung {
        self.rung
    }

    /// The smoothed thermal pressure (0 before any observation).
    pub fn pressure(&self) -> f64 {
        self.smoothed
    }

    /// Transitions taken so far.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Folds one window's thermal pressure into the EWMA and moves at
    /// most one rung toward the rung the pressure calls for — but never
    /// within [`DWELL`] of the previous transition, and never while the
    /// pressure sits inside the hysteresis band. The park rung is
    /// reachable only at or above [`PARK_ABOVE`]; once the pressure falls
    /// back under it the ladder un-parks to the frequency cap.
    pub fn observe(&mut self, pressure: f64, now: Cycles) -> Option<PowerTransition> {
        let pressure = pressure.clamp(0.0, 2.0);
        if self.primed {
            self.smoothed = (1.0 - ALPHA) * self.smoothed + ALPHA * pressure;
        } else {
            self.primed = true;
            self.smoothed = pressure;
        }
        if let Some(last) = self.last_transition {
            if now.saturating_sub(last) < DWELL {
                return None;
            }
        }
        let desired = if self.smoothed >= PARK_ABOVE {
            PowerRung::CorePark
        } else if self.smoothed > ENGAGE_ABOVE {
            PowerRung::FreqCap
        } else if self.smoothed < RECOVER_BELOW {
            PowerRung::Nominal
        } else {
            // Inside the hysteresis band: hold whatever rung we're on.
            self.rung
        };
        let next = match desired.index().cmp(&self.rung.index()) {
            std::cmp::Ordering::Greater => self.rung.hotter(),
            std::cmp::Ordering::Less => self.rung.cooler(),
            std::cmp::Ordering::Equal => self.rung,
        };
        if next == self.rung {
            return None;
        }
        let transition = PowerTransition {
            from: self.rung,
            to: next,
            pressure: self.smoothed,
        };
        self.rung = next;
        self.last_transition = Some(now);
        self.transitions += 1;
        Some(transition)
    }

    /// Serializes the ladder state for reports.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("rung".into(), Json::str(self.rung.label())),
            ("pressure".into(), Json::Num(self.smoothed)),
            ("transitions".into(), Json::Num(self.transitions as f64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extreme_heat_walks_down_one_rung_per_dwell() {
        let mut ladder = PowerLadder::new();
        let mut now = Cycles::new(1);
        let mut rungs = vec![];
        for _ in 0..6 {
            if let Some(t) = ladder.observe(1.5, now) {
                rungs.push(t.to);
            }
            now += DWELL;
        }
        assert_eq!(rungs, vec![PowerRung::FreqCap, PowerRung::CorePark]);
        assert_eq!(ladder.rung(), PowerRung::CorePark);
        assert!(ladder.rung().caps_frequency());
        assert!(ladder.rung().parks_core());
    }

    #[test]
    fn sub_cap_heat_stops_at_the_frequency_cap() {
        // Pressure above engage but below park: the ladder caps and
        // holds — parking a quarter of the machine needs a core at or
        // past the firmware cap, not just sustained warmth.
        let mut ladder = PowerLadder::new();
        let mut now = Cycles::new(1);
        for _ in 0..6 {
            ladder.observe(0.95, now);
            now += DWELL;
        }
        assert_eq!(ladder.rung(), PowerRung::FreqCap);
        // A core crossing the firmware cap escalates; falling back under
        // the park threshold un-parks to the cap rung.
        for _ in 0..4 {
            ladder.observe(1.2, now);
            now += DWELL;
        }
        assert_eq!(ladder.rung(), PowerRung::CorePark);
        for _ in 0..4 {
            ladder.observe(0.9, now);
            now += DWELL;
        }
        assert_eq!(ladder.rung(), PowerRung::FreqCap);
    }

    #[test]
    fn hysteresis_band_holds_and_cooling_recovers() {
        let mut ladder = PowerLadder::new();
        let mut now = Cycles::new(1);
        for _ in 0..4 {
            ladder.observe(1.5, now);
            now += DWELL;
        }
        assert_eq!(ladder.rung(), PowerRung::CorePark);
        // In-band raw pressure: the smoothed signal decays below the
        // park threshold (un-parking to the cap rung) and then settles
        // inside the hysteresis band, where the cap holds.
        for _ in 0..6 {
            ladder.observe(0.5, now);
            now += DWELL;
        }
        assert_eq!(ladder.rung(), PowerRung::FreqCap);
        let settled = ladder.transitions();
        for _ in 0..4 {
            assert!(ladder.observe(0.5, now).is_none(), "in-band must hold");
            now += DWELL;
        }
        assert_eq!(ladder.transitions(), settled);
        // Cool pressure recovers the last rung.
        let mut rungs = vec![];
        for _ in 0..6 {
            if let Some(t) = ladder.observe(0.05, now) {
                rungs.push(t.to);
            }
            now += DWELL;
        }
        assert_eq!(rungs, vec![PowerRung::Nominal]);
        assert_eq!(ladder.rung(), PowerRung::Nominal);
    }

    #[test]
    fn dwell_blocks_back_to_back_transitions() {
        let mut ladder = PowerLadder::new();
        assert!(ladder.observe(1.0, Cycles::new(1)).is_some());
        assert!(ladder.observe(1.0, Cycles::new(2)).is_none());
        assert_eq!(ladder.rung(), PowerRung::FreqCap);
    }

    #[test]
    fn rung_labels_and_indices_are_stable() {
        for (i, rung) in PowerRung::ALL.iter().enumerate() {
            assert_eq!(rung.index(), i);
        }
        assert_eq!(PowerRung::Nominal.label(), "nominal");
        assert_eq!(PowerRung::FreqCap.label(), "freq_cap");
        assert_eq!(PowerRung::CorePark.label(), "core_park");
        assert!(!PowerRung::Nominal.caps_frequency());
        assert!(PowerRung::FreqCap.caps_frequency());
        assert!(!PowerRung::FreqCap.parks_core());
    }

    #[test]
    fn json_reports_rung_and_pressure() {
        let ladder = PowerLadder::new();
        let json = ladder.to_json();
        assert_eq!(json.get("rung").and_then(Json::as_str), Some("nominal"));
        assert_eq!(json.get("transitions").and_then(Json::as_f64), Some(0.0));
    }
}
