//! The adaptive "do no harm" sampling governor (closing the loop on §3.4).
//!
//! The accountant (`rbv-os::accountant`) prices observer overhead *after*
//! a run; this module closes the loop *during* one. Each accounting window
//! the kernel hands the governor the window's busy cycles and priced
//! sampling cycles; the governor compares the window overhead against the
//! do-no-harm budget and adjusts a single knob — a dimensionless
//! **interval scale** multiplied into every governable sampling interval
//! (`t_syscall_min`, the backup-timer period, the interrupt period).
//!
//! Control is AIMD in the paper's "do no harm" direction: on a budget
//! breach the sampling intervals back off *multiplicatively* (scaled by at
//! least [`BACKOFF_FACTOR`], or by the measured overshoot ratio plus
//! headroom when that is larger, so a single correction is normally
//! sufficient); while comfortably under budget they recover *additively*
//! ([`RECOVER_STEP`] of scale per window) back toward the configured
//! baseline.
//!
//! The governor is a pure state machine: it draws no randomness and its
//! decisions are a deterministic function of the window inputs, so the
//! same seed yields the same decision sequence.

use rbv_sim::Cycles;
use rbv_telemetry::Json;

/// Inputs the kernel feeds the guard once per accounting window: the
/// deltas of the run counters over the window just ended.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WindowSample {
    /// Workload cycles spent this window (the budget denominator).
    pub busy_cycles: f64,
    /// Priced observer cycles spent this window (the budget numerator).
    pub sampling_cycles: f64,
    /// Samples collected this window.
    pub samples: u64,
    /// Samples lost to interrupt faults this window.
    pub samples_lost: u64,
    /// Low-confidence (noise-flagged) samples this window.
    pub samples_low_confidence: u64,
    /// Syscall-sampling starvation windows that opened this window.
    pub starvation_windows: u64,
    /// Age of the newest sample on any busy core, as a fraction of the
    /// accounting window (clamped to [0, 1]; 1 = no sample all window).
    pub staleness_frac: f64,
    /// Running relative prediction error of the easing predictor (the
    /// counter-noise variance proxy; 0 when no predictions were made).
    pub noise_ewma: f64,
    /// Open-loop arrivals offered this window (0 in closed-loop runs, so
    /// the overload-pressure score stays 0 and the ladder never enters
    /// the shed/brownout band).
    pub offered: u64,
    /// Arrivals rejected or shed this window (admission rejections,
    /// CoDel sheds, deadline aborts, brownout rejections).
    pub rejected: u64,
    /// Deepest runqueue at window close as a fraction of the admission
    /// bound (clamped to [0, 1]; 0 when admission is unbounded).
    pub queue_frac: f64,
}

impl WindowSample {
    /// Observer overhead of this window as a fraction of its busy cycles.
    pub fn overhead_frac(&self) -> f64 {
        if self.busy_cycles > 0.0 {
            self.sampling_cycles / self.busy_cycles
        } else {
            0.0
        }
    }
}

/// Do-no-harm budget: sampling may spend at most this fraction of the
/// workload's busy cycles per accounting window.
pub const BUDGET_FRAC: f64 = 0.01;
/// Accounting-window length in simulated cycles — short enough that the
/// loop closes several times within the simulator's millisecond-scale
/// runs.
pub const WINDOW: Cycles = Cycles::from_micros(250);
/// Minimum multiplicative interval back-off on a budget breach.
pub const BACKOFF_FACTOR: f64 = 2.0;
/// Additive scale recovery per comfortably-under-budget window.
pub const RECOVER_STEP: f64 = 0.25;
/// Upper bound on the interval scale (1 = configured baseline).
pub const MAX_SCALE: f64 = 64.0;
/// Recover only while window overhead is below `RECOVER_MARGIN *
/// BUDGET_FRAC` — the hysteresis band that keeps the controller from
/// oscillating around the budget line.
pub const RECOVER_MARGIN: f64 = 0.5;

const _: () = assert!(BUDGET_FRAC > 0.0 && BUDGET_FRAC <= 1.0);
const _: () = assert!(!WINDOW.is_zero());
const _: () = assert!(BACKOFF_FACTOR > 1.0);
const _: () = assert!(RECOVER_STEP > 0.0);
const _: () = assert!(MAX_SCALE >= 1.0);
const _: () = assert!(RECOVER_MARGIN > 0.0 && RECOVER_MARGIN < 1.0);

/// What the governor did with one window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GovernorAction {
    /// Within band; no change.
    Hold,
    /// Budget breached; intervals backed off multiplicatively.
    Backoff,
    /// Comfortably under budget; intervals recovered additively.
    Recover,
}

impl GovernorAction {
    /// Stable lowercase label for telemetry.
    pub fn label(&self) -> &'static str {
        match self {
            GovernorAction::Hold => "hold",
            GovernorAction::Backoff => "backoff",
            GovernorAction::Recover => "recover",
        }
    }
}

/// One window's control decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GovernorDecision {
    /// What the controller did.
    pub action: GovernorAction,
    /// The interval scale now in effect (1 = configured baseline).
    pub scale: f64,
    /// The window's measured overhead fraction.
    pub overhead_frac: f64,
}

/// The AIMD controller state.
#[derive(Debug, Clone, PartialEq)]
pub struct Governor {
    scale: f64,
    windows: u64,
    backoffs: u64,
    recoveries: u64,
    breaches: u64,
    breach_streak: u64,
    max_breach_streak: u64,
    cum_busy: f64,
    cum_sampling: f64,
    max_window_sampling: f64,
}

impl Default for Governor {
    fn default() -> Governor {
        Governor::new()
    }
}

impl Governor {
    /// Builds a controller starting at scale 1.
    pub fn new() -> Governor {
        Governor {
            scale: 1.0,
            windows: 0,
            backoffs: 0,
            recoveries: 0,
            breaches: 0,
            breach_streak: 0,
            max_breach_streak: 0,
            cum_busy: 0.0,
            cum_sampling: 0.0,
            max_window_sampling: 0.0,
        }
    }

    /// The interval scale currently in effect.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Windows accounted so far.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Multiplicative back-offs taken.
    pub fn backoffs(&self) -> u64 {
        self.backoffs
    }

    /// Additive recovery steps taken.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Windows whose local overhead exceeded the budget.
    pub fn breaches(&self) -> u64 {
        self.breaches
    }

    /// Longest run of consecutive over-budget windows — the one-window
    /// slack guarantee holds exactly when this never exceeds 1.
    pub fn max_breach_streak(&self) -> u64 {
        self.max_breach_streak
    }

    /// Cumulative overhead fraction across every accounted window.
    pub fn cumulative_overhead_frac(&self) -> f64 {
        if self.cum_busy > 0.0 {
            self.cum_sampling / self.cum_busy
        } else {
            0.0
        }
    }

    /// The cumulative-overhead allowance the one-window slack grants on
    /// top of the budget: the costliest single window's sampling cycles
    /// as a fraction of all busy cycles. AIMD corrects one window late,
    /// so one window's worth of overshoot is the contract's tolerated
    /// lag; the do-no-harm acceptance check is
    /// `cumulative_overhead_frac() <= budget_frac + slack_frac()`.
    pub fn slack_frac(&self) -> f64 {
        if self.cum_busy > 0.0 {
            self.max_window_sampling / self.cum_busy
        } else {
            0.0
        }
    }

    /// Accounts one window and returns the control decision.
    ///
    /// An idle window (no busy cycles) counts as within budget: there is
    /// nothing to harm, and backing off on it would only starve the next
    /// busy window of samples.
    pub fn observe(&mut self, window: &WindowSample) -> GovernorDecision {
        self.windows += 1;
        self.cum_busy += window.busy_cycles;
        self.cum_sampling += window.sampling_cycles;
        self.max_window_sampling = self.max_window_sampling.max(window.sampling_cycles);
        let overhead = window.overhead_frac();
        let action = if overhead > BUDGET_FRAC {
            self.breaches += 1;
            self.breach_streak += 1;
            self.max_breach_streak = self.max_breach_streak.max(self.breach_streak);
            // Back off by the measured overshoot ratio with 3x headroom,
            // but never less than the configured multiplicative factor —
            // one correction must land the next window under budget even
            // when the load dips between windows or the context-switch
            // decimation stride rounds down (the one-window-slack
            // contract tolerates no second consecutive breach).
            let factor = (overhead / BUDGET_FRAC * 3.0).max(BACKOFF_FACTOR);
            self.scale = (self.scale * factor).min(MAX_SCALE);
            self.backoffs += 1;
            GovernorAction::Backoff
        } else {
            self.breach_streak = 0;
            if overhead < BUDGET_FRAC * RECOVER_MARGIN && self.scale > 1.0 {
                self.scale = (self.scale - RECOVER_STEP).max(1.0);
                self.recoveries += 1;
                GovernorAction::Recover
            } else {
                GovernorAction::Hold
            }
        };
        GovernorDecision {
            action,
            scale: self.scale,
            overhead_frac: overhead,
        }
    }

    /// Serializes the controller's counters for reports.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("windows".into(), Json::Num(self.windows as f64)),
            ("backoffs".into(), Json::Num(self.backoffs as f64)),
            ("recoveries".into(), Json::Num(self.recoveries as f64)),
            ("breaches".into(), Json::Num(self.breaches as f64)),
            (
                "max_breach_streak".into(),
                Json::Num(self.max_breach_streak as f64),
            ),
            ("final_scale".into(), Json::Num(self.scale)),
            (
                "cumulative_overhead_frac".into(),
                Json::Num(self.cumulative_overhead_frac()),
            ),
            ("slack_frac".into(), Json::Num(self.slack_frac())),
            ("budget_frac".into(), Json::Num(BUDGET_FRAC)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(busy: f64, sampling: f64) -> WindowSample {
        WindowSample {
            busy_cycles: busy,
            sampling_cycles: sampling,
            samples: 10,
            ..WindowSample::default()
        }
    }

    #[test]
    fn breach_backs_off_multiplicatively() {
        let mut g = Governor::new();
        // 5% overhead against a 1% budget: scale by overshoot * 3 = 15.
        let d = g.observe(&window(1e6, 5e4));
        assert_eq!(d.action, GovernorAction::Backoff);
        assert!((d.scale - 15.0).abs() < 1e-9, "scale {}", d.scale);
        assert_eq!(g.backoffs(), 1);
        assert_eq!(g.breaches(), 1);
    }

    #[test]
    fn recovery_is_additive_and_floored_at_one() {
        let mut g = Governor::new();
        g.observe(&window(1e6, 5e4)); // scale 15
        let mut last = g.scale();
        // Quiet windows (0.1% overhead, under the recover margin) walk the
        // scale back down by recover_step each window, stopping at 1.
        for _ in 0..70 {
            let d = g.observe(&window(1e6, 1e3));
            assert!(d.scale <= last);
            assert!(last - d.scale <= 0.25 + 1e-12);
            last = d.scale;
        }
        assert_eq!(last, 1.0);
        let d = g.observe(&window(1e6, 1e3));
        assert_eq!(d.action, GovernorAction::Hold, "no recovery below 1");
    }

    #[test]
    fn band_between_margin_and_budget_holds() {
        let mut g = Governor::new();
        g.observe(&window(1e6, 5e4));
        // 0.8% overhead: under budget but above the 0.5% recover margin.
        let d = g.observe(&window(1e6, 8e3));
        assert_eq!(d.action, GovernorAction::Hold);
    }

    #[test]
    fn idle_window_is_within_budget() {
        let mut g = Governor::new();
        let d = g.observe(&window(0.0, 0.0));
        assert_eq!(d.action, GovernorAction::Hold);
        assert_eq!(d.overhead_frac, 0.0);
        assert_eq!(g.max_breach_streak(), 0);
    }

    #[test]
    fn breach_streak_tracks_consecutive_overruns() {
        let mut g = Governor::new();
        g.observe(&window(1e6, 5e4));
        g.observe(&window(1e6, 1e3));
        g.observe(&window(1e6, 5e4));
        assert_eq!(g.breaches(), 2);
        assert_eq!(g.max_breach_streak(), 1);
    }

    #[test]
    fn scale_saturates_at_max() {
        let mut g = Governor::new();
        for _ in 0..20 {
            g.observe(&window(1e6, 9e5));
        }
        assert_eq!(g.scale(), MAX_SCALE);
    }

    #[test]
    fn decisions_are_deterministic() {
        let windows: Vec<WindowSample> =
            (0..50).map(|i| window(1e6, (i % 7) as f64 * 4e3)).collect();
        let mut a = Governor::new();
        let mut b = Governor::new();
        for w in &windows {
            assert_eq!(a.observe(w), b.observe(w));
        }
        assert_eq!(a, b);
    }

    #[test]
    fn json_reports_counters() {
        let mut g = Governor::new();
        g.observe(&window(1e6, 5e4));
        let json = g.to_json();
        assert_eq!(
            json.get("backoffs").and_then(Json::as_f64),
            Some(1.0),
            "{json:?}"
        );
        assert_eq!(json.get("budget_frac").and_then(Json::as_f64), Some(0.01));
    }
}
