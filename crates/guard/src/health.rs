//! Measurement-health scoring and the scheduling degradation ladder.
//!
//! The contention-easing scheduler consumes per-request behavior
//! predictions whose inputs — hardware-counter samples — can go bad under
//! measurement faults (lost interrupts, counter noise, syscall-sampling
//! starvation). The one-shot confidence gate the engine used before this
//! module fell back to stock scheduling once and never recovered; this
//! ladder replaces it with three explicit rungs:
//!
//! 1. [`LadderRung::Easing`] — full contention easing, predictions update;
//! 2. [`LadderRung::FrozenPredictions`] — easing still schedules, but on
//!    the last trusted predictions (new samples stop feeding the
//!    predictor);
//! 3. [`LadderRung::Stock`] — plain FIFO dispatch, no easing decisions.
//!
//! A health score in [0, 1] — fed by the lost-interrupt rate, the
//! counter-noise variance proxy, syscall-sampling starvation, and sample
//! staleness — moves the ladder one rung per observation: down when the
//! smoothed score falls below [`DEGRADE_BELOW`], up when it rises above
//! [`RECOVER_ABOVE`]. The gap between the two thresholds is the
//! hysteresis band, and [`DWELL`] imposes a minimum simulated time
//! between any two transitions, so the ladder cannot flap even when the
//! score oscillates around a threshold.
//!
//! Below [`LadderRung::Stock`] the ladder continues into *overload*
//! territory, driven not by measurement health but by a separate
//! overload-pressure score (admission rejections, sheds, and queue
//! depth):
//!
//! 4. [`LadderRung::Shed`] — admission tightens and CoDel-style queue
//!    shedding becomes more aggressive;
//! 5. [`LadderRung::Brownout`] — a deterministic fraction of new arrivals
//!    is rejected outright to protect goodput of the admitted rest.
//!
//! Health-driven degradation is capped at `Stock`; only sustained
//! pressure above [`SHED_ABOVE`] pushes the ladder into `Shed`/`Brownout`,
//! and pressure must fall below [`PRESSURE_RECOVER_BELOW`] before the
//! ladder climbs back to `Stock`. Zero-pressure windows therefore
//! reproduce the original three-rung behavior bit for bit.

use crate::governor::WindowSample;
use rbv_sim::Cycles;
use rbv_telemetry::Json;

/// A rung of the scheduling degradation ladder, healthiest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LadderRung {
    /// Full contention easing with live prediction updates.
    Easing,
    /// Easing on frozen (last trusted) predictions.
    FrozenPredictions,
    /// Stock FIFO scheduling; no easing decisions at all.
    Stock,
    /// Overload: admission tightens, queue shedding turns aggressive.
    Shed,
    /// Severe overload: a deterministic fraction of arrivals is rejected
    /// outright before admission.
    Brownout,
}

impl LadderRung {
    /// Every rung, healthiest first.
    pub const ALL: [LadderRung; 5] = [
        LadderRung::Easing,
        LadderRung::FrozenPredictions,
        LadderRung::Stock,
        LadderRung::Shed,
        LadderRung::Brownout,
    ];

    /// Stable lowercase label for telemetry and the ledger.
    pub fn label(&self) -> &'static str {
        match self {
            LadderRung::Easing => "easing",
            LadderRung::FrozenPredictions => "frozen_predictions",
            LadderRung::Stock => "stock",
            LadderRung::Shed => "shed",
            LadderRung::Brownout => "brownout",
        }
    }

    /// Position in [`LadderRung::ALL`] (0 = healthiest).
    pub fn index(&self) -> usize {
        *self as usize
    }

    /// Whether this rung is in the overload band (`Shed` or below), where
    /// the engine tightens admission and sheds queue backlog.
    pub fn is_overloaded(&self) -> bool {
        self.index() > LadderRung::Stock.index()
    }

    /// Health-driven degradation: one rung down, capped at `Stock`. The
    /// overload rungs below are entered only on pressure (see
    /// [`HealthLadder::observe`]).
    fn degraded(self) -> LadderRung {
        match self {
            LadderRung::Easing => LadderRung::FrozenPredictions,
            LadderRung::FrozenPredictions => LadderRung::Stock,
            other => other,
        }
    }

    fn recovered(self) -> LadderRung {
        match self {
            LadderRung::Brownout => LadderRung::Shed,
            LadderRung::Shed => LadderRung::Stock,
            LadderRung::Stock => LadderRung::FrozenPredictions,
            _ => LadderRung::Easing,
        }
    }

    /// Pressure-driven degradation: one rung down with no cap — sustained
    /// overload walks the ladder all the way to `Brownout`.
    fn pressured(self) -> LadderRung {
        match self {
            LadderRung::Easing => LadderRung::FrozenPredictions,
            LadderRung::FrozenPredictions => LadderRung::Stock,
            LadderRung::Stock => LadderRung::Shed,
            _ => LadderRung::Brownout,
        }
    }
}

/// Prediction error the easing scheduler treats as untrustworthy: the
/// one-shot confidence gate's threshold (`SimConfig::easing_error_gate`
/// in `rbv-os`) wherever callers arm it, and the health ladder's
/// [`NOISE_REF`].
pub const EASING_ERROR_GATE: f64 = 0.35;

/// Degrade one rung when the smoothed score falls below this.
pub const DEGRADE_BELOW: f64 = 0.6;
/// Recover one rung when the smoothed score rises above this; the gap
/// above [`DEGRADE_BELOW`] is the hysteresis band.
pub const RECOVER_ABOVE: f64 = 0.8;
/// Minimum simulated time between two ladder transitions.
pub const DWELL: Cycles = Cycles::from_millis(2);
/// Penalty weight of the lost-interrupt rate.
pub const W_LOST: f64 = 0.35;
/// Penalty weight of counter noise (prediction-error EWMA or the
/// low-confidence sample rate, whichever indicts the counters more).
pub const W_NOISE: f64 = 0.25;
/// Penalty weight of syscall-sampling starvation.
pub const W_STARVED: f64 = 0.2;
/// Penalty weight of sample staleness.
pub const W_STALE: f64 = 0.2;
/// Prediction error treated as total noise (normalization reference for
/// the noise term).
pub const NOISE_REF: f64 = EASING_ERROR_GATE;
/// Smoothing factor for the score and pressure EWMAs (weight of the new
/// window).
pub const ALPHA: f64 = 0.5;
/// Degrade one rung toward `Shed`/`Brownout` when the smoothed overload
/// pressure rises above this.
pub const SHED_ABOVE: f64 = 0.5;
/// Recover one rung out of the overload band when the smoothed pressure
/// falls below this; the gap below [`SHED_ABOVE`] is the overload
/// hysteresis band.
pub const PRESSURE_RECOVER_BELOW: f64 = 0.2;

const _: () = assert!(DEGRADE_BELOW > 0.0 && DEGRADE_BELOW < 1.0);
const _: () = assert!(RECOVER_ABOVE > DEGRADE_BELOW && RECOVER_ABOVE <= 1.0);
const _: () = assert!(!DWELL.is_zero());
const _: () = assert!(W_LOST >= 0.0 && W_NOISE >= 0.0 && W_STARVED >= 0.0 && W_STALE >= 0.0);
const _: () = assert!(W_LOST <= 1.0 && W_NOISE <= 1.0 && W_STARVED <= 1.0 && W_STALE <= 1.0);
const _: () = assert!(NOISE_REF > 0.0);
const _: () = assert!(ALPHA > 0.0 && ALPHA <= 1.0);
const _: () = assert!(SHED_ABOVE > 0.0 && SHED_ABOVE <= 1.0);
const _: () = assert!(PRESSURE_RECOVER_BELOW > 0.0 && PRESSURE_RECOVER_BELOW < SHED_ABOVE);

/// Scores one window's measurement health in [0, 1] (1 = healthy).
pub fn score(window: &WindowSample) -> f64 {
    let taken = window.samples + window.samples_lost;
    let lost_rate = if taken > 0 {
        window.samples_lost as f64 / taken as f64
    } else {
        0.0
    };
    let lowconf_rate = if window.samples > 0 {
        window.samples_low_confidence as f64 / window.samples as f64
    } else {
        0.0
    };
    let noise = (window.noise_ewma / NOISE_REF)
        .max(lowconf_rate)
        .clamp(0.0, 1.0);
    let starved = (window.starvation_windows as f64 / 2.0).clamp(0.0, 1.0);
    let stale = window.staleness_frac.clamp(0.0, 1.0);
    let penalty = W_LOST * lost_rate + W_NOISE * noise + W_STARVED * starved + W_STALE * stale;
    (1.0 - penalty).clamp(0.0, 1.0)
}

/// Scores one window's overload pressure in [0, 1] (0 = no overload).
///
/// Weighs the rejection rate (admission rejections + sheds per offered
/// arrival) against queue depth relative to the admission bound. A
/// window with no arrivals and empty queues scores 0, so closed-loop
/// runs never see the overload rungs.
pub fn pressure(window: &WindowSample) -> f64 {
    let reject_rate = if window.offered > 0 {
        (window.rejected as f64 / window.offered as f64).clamp(0.0, 1.0)
    } else {
        0.0
    };
    let queue = window.queue_frac.clamp(0.0, 1.0);
    (0.6 * reject_rate + 0.4 * queue).clamp(0.0, 1.0)
}

/// A ladder transition, as reported to telemetry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LadderTransition {
    /// The rung the ladder left.
    pub from: LadderRung,
    /// The rung the ladder entered.
    pub to: LadderRung,
    /// The smoothed health score at the time of the move.
    pub score: f64,
    /// The smoothed overload pressure at the time of the move.
    pub pressure: f64,
}

/// The degradation-ladder state machine.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthLadder {
    rung: LadderRung,
    smoothed: f64,
    pressure_smoothed: f64,
    primed: bool,
    last_transition: Option<Cycles>,
    transitions: u64,
}

impl Default for HealthLadder {
    fn default() -> HealthLadder {
        HealthLadder::new()
    }
}

impl HealthLadder {
    /// Builds a ladder starting on the healthiest rung.
    pub fn new() -> HealthLadder {
        HealthLadder {
            rung: LadderRung::Easing,
            smoothed: 1.0,
            pressure_smoothed: 0.0,
            primed: false,
            last_transition: None,
            transitions: 0,
        }
    }

    /// The current rung.
    pub fn rung(&self) -> LadderRung {
        self.rung
    }

    /// The smoothed health score (1 before any observation).
    pub fn score(&self) -> f64 {
        self.smoothed
    }

    /// The smoothed overload pressure (0 before any observation).
    pub fn pressure(&self) -> f64 {
        self.pressure_smoothed
    }

    /// Transitions taken so far.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Scores one window, updates the smoothed health and pressure, and
    /// moves at most one rung — but never within [`DWELL`] of the previous
    /// transition.
    ///
    /// Pressure outranks health: a window over [`SHED_ABOVE`] pushes the
    /// ladder one rung down (toward `Brownout`) regardless of the health
    /// score, and the ladder cannot climb out of the overload band until
    /// pressure falls below [`PRESSURE_RECOVER_BELOW`]. With zero pressure the
    /// original three-rung health behavior is reproduced exactly —
    /// health-driven degradation is capped at `Stock`.
    pub fn observe(&mut self, window: &WindowSample, now: Cycles) -> Option<LadderTransition> {
        let score = score(window);
        let pressure = pressure(window);
        if self.primed {
            self.smoothed = (1.0 - ALPHA) * self.smoothed + ALPHA * score;
            self.pressure_smoothed = (1.0 - ALPHA) * self.pressure_smoothed + ALPHA * pressure;
        } else {
            self.primed = true;
            self.smoothed = score;
            self.pressure_smoothed = pressure;
        }
        if let Some(last) = self.last_transition {
            if now.saturating_sub(last) < DWELL {
                return None;
            }
        }
        let next = if self.pressure_smoothed > SHED_ABOVE {
            self.rung.pressured()
        } else if self.rung.is_overloaded() {
            if self.pressure_smoothed < PRESSURE_RECOVER_BELOW {
                self.rung.recovered()
            } else {
                self.rung
            }
        } else if self.smoothed < DEGRADE_BELOW {
            self.rung.degraded()
        } else if self.smoothed > RECOVER_ABOVE {
            self.rung.recovered()
        } else {
            self.rung
        };
        if next == self.rung {
            return None;
        }
        let transition = LadderTransition {
            from: self.rung,
            to: next,
            score: self.smoothed,
            pressure: self.pressure_smoothed,
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
            ("score".into(), Json::Num(self.smoothed)),
            ("pressure".into(), Json::Num(self.pressure_smoothed)),
            ("transitions".into(), Json::Num(self.transitions as f64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sick() -> WindowSample {
        WindowSample {
            busy_cycles: 1e6,
            sampling_cycles: 1e3,
            samples: 10,
            samples_lost: 30,
            samples_low_confidence: 8,
            starvation_windows: 3,
            staleness_frac: 1.0,
            noise_ewma: 1.0,
            ..WindowSample::default()
        }
    }

    fn overloaded() -> WindowSample {
        WindowSample {
            busy_cycles: 1e6,
            sampling_cycles: 1e3,
            samples: 50,
            offered: 100,
            rejected: 90,
            queue_frac: 1.0,
            ..WindowSample::default()
        }
    }

    fn healthy() -> WindowSample {
        WindowSample {
            busy_cycles: 1e6,
            sampling_cycles: 1e3,
            samples: 50,
            ..WindowSample::default()
        }
    }

    #[test]
    fn score_is_one_when_clean_and_low_when_stormy() {
        assert_eq!(score(&healthy()), 1.0);
        assert!(score(&sick()) < 0.3, "score {}", score(&sick()));
    }

    #[test]
    fn ladder_degrades_one_rung_at_a_time() {
        let mut ladder = HealthLadder::new();
        let t1 = ladder.observe(&sick(), Cycles::new(1)).unwrap();
        assert_eq!(t1.from, LadderRung::Easing);
        assert_eq!(t1.to, LadderRung::FrozenPredictions);
        let t2 = ladder.observe(&sick(), Cycles::new(1) + DWELL).unwrap();
        assert_eq!(t2.to, LadderRung::Stock);
        // Already at the bottom: stays put.
        assert!(ladder
            .observe(&sick(), Cycles::new(1) + DWELL * 2)
            .is_none());
        assert_eq!(ladder.rung(), LadderRung::Stock);
    }

    #[test]
    fn ladder_recovers_when_health_returns() {
        let mut ladder = HealthLadder::new();
        ladder.observe(&sick(), Cycles::new(1));
        ladder.observe(&sick(), Cycles::new(1) + DWELL);
        assert_eq!(ladder.rung(), LadderRung::Stock);
        let mut now = Cycles::new(1) + DWELL * 2;
        let mut rungs = vec![];
        for _ in 0..8 {
            if let Some(t) = ladder.observe(&healthy(), now) {
                rungs.push(t.to);
            }
            now += DWELL;
        }
        assert_eq!(
            rungs,
            vec![LadderRung::FrozenPredictions, LadderRung::Easing],
            "recovers one rung at a time"
        );
    }

    #[test]
    fn dwell_blocks_back_to_back_transitions() {
        let mut ladder = HealthLadder::new();
        assert!(ladder.observe(&sick(), Cycles::new(1)).is_some());
        // Inside the dwell window nothing moves, however sick.
        assert!(ladder
            .observe(
                &sick(),
                Cycles::new(1) + DWELL.saturating_sub(Cycles::new(1))
            )
            .is_none());
        assert_eq!(ladder.rung(), LadderRung::FrozenPredictions);
    }

    #[test]
    fn hysteresis_band_holds_between_thresholds() {
        // Score landing between the bands moves nothing in either direction.
        let mut ladder = HealthLadder::new();
        let in_band = WindowSample {
            samples: 10,
            samples_lost: 14,
            staleness_frac: 0.5,
            ..healthy()
        };
        let score = score(&in_band);
        assert!(
            score > 0.6 && score < 0.8,
            "fixture must land in the band, got {score}"
        );
        for i in 0..20 {
            assert!(ladder
                .observe(&in_band, Cycles::from_millis(8 * (i + 1)))
                .is_none());
        }
        assert_eq!(ladder.rung(), LadderRung::Easing);
    }

    #[test]
    fn json_reports_rung_and_score() {
        let ladder = HealthLadder::new();
        let json = ladder.to_json();
        assert_eq!(json.get("rung").and_then(Json::as_str), Some("easing"));
        assert_eq!(json.get("transitions").and_then(Json::as_f64), Some(0.0));
    }

    #[test]
    fn rung_labels_and_indices_are_stable() {
        for (i, rung) in LadderRung::ALL.iter().enumerate() {
            assert_eq!(rung.index(), i);
        }
        assert_eq!(LadderRung::FrozenPredictions.label(), "frozen_predictions");
        assert_eq!(LadderRung::Shed.label(), "shed");
        assert_eq!(LadderRung::Brownout.label(), "brownout");
        assert!(LadderRung::Shed.is_overloaded());
        assert!(LadderRung::Brownout.is_overloaded());
        assert!(!LadderRung::Stock.is_overloaded());
    }

    #[test]
    fn pressure_is_zero_without_arrivals_and_high_under_rejections() {
        assert_eq!(pressure(&healthy()), 0.0);
        assert_eq!(pressure(&sick()), 0.0, "health faults are not pressure");
        assert!(pressure(&overloaded()) > 0.9);
    }

    #[test]
    fn sustained_pressure_walks_the_ladder_into_brownout() {
        let mut ladder = HealthLadder::new();
        let mut now = Cycles::new(1);
        let mut rungs = vec![];
        for _ in 0..8 {
            if let Some(t) = ladder.observe(&overloaded(), now) {
                rungs.push(t.to);
            }
            now += DWELL;
        }
        assert_eq!(
            rungs,
            vec![
                LadderRung::FrozenPredictions,
                LadderRung::Stock,
                LadderRung::Shed,
                LadderRung::Brownout,
            ],
            "one rung per dwell, all the way down"
        );
        assert_eq!(ladder.rung(), LadderRung::Brownout);
    }

    #[test]
    fn overload_band_recovers_only_when_pressure_clears() {
        let mut ladder = HealthLadder::new();
        let mut now = Cycles::new(1);
        for _ in 0..8 {
            ladder.observe(&overloaded(), now);
            now += DWELL;
        }
        assert_eq!(ladder.rung(), LadderRung::Brownout);
        // Healthy but still-pressured windows hold the rung.
        let lingering = WindowSample {
            offered: 100,
            rejected: 40,
            queue_frac: 0.5,
            ..healthy()
        };
        let lp = pressure(&lingering);
        assert!(
            lp < SHED_ABOVE && lp > PRESSURE_RECOVER_BELOW,
            "fixture must land in the pressure band, got {lp}"
        );
        for _ in 0..6 {
            assert!(ladder.observe(&lingering, now).is_none());
            now += DWELL;
        }
        assert_eq!(ladder.rung(), LadderRung::Brownout);
        // Pressure clears: one rung back per dwell, through Shed and
        // Stock, then the health path resumes toward Easing.
        let mut rungs = vec![];
        for _ in 0..10 {
            if let Some(t) = ladder.observe(&healthy(), now) {
                rungs.push(t.to);
            }
            now += DWELL;
        }
        assert_eq!(
            rungs,
            vec![
                LadderRung::Shed,
                LadderRung::Stock,
                LadderRung::FrozenPredictions,
                LadderRung::Easing,
            ]
        );
    }

    #[test]
    fn zero_pressure_keeps_stock_as_the_health_floor() {
        let mut ladder = HealthLadder::new();
        let mut now = Cycles::new(1);
        for _ in 0..10 {
            ladder.observe(&sick(), now);
            now += DWELL;
        }
        assert_eq!(
            ladder.rung(),
            LadderRung::Stock,
            "health faults alone never reach the overload band"
        );
    }
}
