//! Runtime invariant monitor for the simulated kernel.
//!
//! The simulator's correctness rests on a handful of conservation laws
//! that no unit test can check *during* a chaos run: requests are neither
//! created nor destroyed by scheduling, the simulated clock and the
//! cumulative counters never run backwards, a window cannot account more
//! busy cycles than its cores had, and the governed observer overhead
//! keeps non-negative slack (up to the one-window correction lag). This
//! monitor checks them online — every accounting window in governed and
//! debug runs — and counts violations per kind instead of panicking, so a
//! broken invariant surfaces as a `guard.*` metric and a failed gate
//! rather than a lost run.

use rbv_telemetry::Json;

/// The invariant families the monitor checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InvariantKind {
    /// Generated requests = live + completed + failed + not yet admitted.
    RequestConservation,
    /// The simulated clock never moves backwards.
    ClockMonotonic,
    /// Cumulative counters never decrease and stay finite.
    CounterMonotonic,
    /// A window accounts at most `cores * elapsed` busy cycles.
    QuantumAccounting,
    /// Governed overhead keeps non-negative slack, with at most one
    /// consecutive over-budget window (the AIMD correction lag).
    NonNegativeSlack,
    /// A reconstructed request span's stage durations (queue + service +
    /// backoff + other) sum exactly to its client-visible latency.
    SpanAccounting,
    /// Attempt identity is conserved across the retry model: every queue
    /// entry carries the request's current client generation, and a
    /// client retry announces exactly the next generation.
    AttemptConservation,
    /// Energy is conserved exactly: the per-core fixed-point energy
    /// accumulators sum (integer arithmetic, no tolerance) to the run's
    /// running per-slice power·dt total.
    EnergyConservation,
    /// Every core's effective P-state stays within the configured
    /// frequency ladder's bounds.
    FrequencyBounds,
    /// Throttle events are conserved: per-core engage counts minus
    /// release counts equal the number of cores currently throttled.
    ThrottleConservation,
    /// Every contention-model solve met its stop rule (the solver checks
    /// it on each call; the monitor tallies the solves that failed).
    SolverConvergence,
}

impl InvariantKind {
    /// Every kind, in metric order.
    pub const ALL: [InvariantKind; 11] = [
        InvariantKind::RequestConservation,
        InvariantKind::ClockMonotonic,
        InvariantKind::CounterMonotonic,
        InvariantKind::QuantumAccounting,
        InvariantKind::NonNegativeSlack,
        InvariantKind::SpanAccounting,
        InvariantKind::AttemptConservation,
        InvariantKind::EnergyConservation,
        InvariantKind::FrequencyBounds,
        InvariantKind::ThrottleConservation,
        InvariantKind::SolverConvergence,
    ];

    /// Stable snake_case label for metrics and the ledger.
    pub fn label(&self) -> &'static str {
        match self {
            InvariantKind::RequestConservation => "request_conservation",
            InvariantKind::ClockMonotonic => "clock_monotonic",
            InvariantKind::CounterMonotonic => "counter_monotonic",
            InvariantKind::QuantumAccounting => "quantum_accounting",
            InvariantKind::NonNegativeSlack => "non_negative_slack",
            InvariantKind::SpanAccounting => "span_accounting",
            InvariantKind::AttemptConservation => "attempt_conservation",
            InvariantKind::EnergyConservation => "energy_conservation",
            InvariantKind::FrequencyBounds => "frequency_bounds",
            InvariantKind::ThrottleConservation => "throttle_conservation",
            InvariantKind::SolverConvergence => "solver_convergence",
        }
    }

    /// Position in [`InvariantKind::ALL`].
    pub fn index(&self) -> usize {
        *self as usize
    }
}

/// Online invariant checker: counts checks and violations per kind and
/// keeps the first violation's detail for diagnostics.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct InvariantMonitor {
    checks: u64,
    violations: [u64; InvariantKind::ALL.len()],
    first_violation: Option<String>,
    last_violation: Option<(InvariantKind, String)>,
}

impl InvariantMonitor {
    /// A fresh monitor with no checks recorded.
    pub fn new() -> InvariantMonitor {
        InvariantMonitor::default()
    }

    fn record(&mut self, kind: InvariantKind, ok: bool, detail: impl FnOnce() -> String) -> bool {
        self.checks += 1;
        if !ok {
            self.violate(kind, 1, detail());
        }
        ok
    }

    fn violate(&mut self, kind: InvariantKind, count: u64, detail: String) {
        self.violations[kind.index()] += count;
        if self.first_violation.is_none() {
            self.first_violation = Some(format!("{}: {}", kind.label(), detail));
        }
        self.last_violation = Some((kind, detail));
    }

    /// Tallies contention-model solves that did not converge as
    /// [`InvariantKind::SolverConvergence`] violations. The solver tests
    /// its stop rule on every call itself, so this adds no checks.
    pub fn record_unconverged_solves(&mut self, unconverged: u64) {
        if unconverged > 0 {
            self.violate(
                InvariantKind::SolverConvergence,
                unconverged,
                format!("{unconverged} contention solves did not converge"),
            );
        }
    }

    /// Checks request conservation: every generated request is live,
    /// completed, failed, or not yet admitted.
    pub fn check_request_conservation(
        &mut self,
        generated: u64,
        live: u64,
        completed: u64,
        failed: u64,
        pending: u64,
    ) -> bool {
        let accounted = live + completed + failed + pending;
        self.record(
            InvariantKind::RequestConservation,
            generated == accounted,
            || format!("generated {generated} != live {live} + completed {completed} + failed {failed} + pending {pending}"),
        )
    }

    /// Checks the simulated clock only moves forward.
    pub fn check_clock_monotonic(&mut self, prev_cycles: u64, now_cycles: u64) -> bool {
        self.record(
            InvariantKind::ClockMonotonic,
            now_cycles >= prev_cycles,
            || format!("clock went backwards: {prev_cycles} -> {now_cycles}"),
        )
    }

    /// Checks a cumulative counter never decreased and stayed finite.
    pub fn check_counter_monotonic(&mut self, label: &str, prev: f64, now: f64) -> bool {
        self.record(
            InvariantKind::CounterMonotonic,
            now.is_finite() && now + 1e-9 >= prev,
            || format!("counter {label} went backwards: {prev} -> {now}"),
        )
    }

    /// Checks a window accounted at most `cores * elapsed` busy cycles.
    pub fn check_quantum_accounting(
        &mut self,
        busy_delta: f64,
        elapsed_cycles: u64,
        cores: u64,
    ) -> bool {
        let capacity = elapsed_cycles as f64 * cores as f64;
        self.record(
            InvariantKind::QuantumAccounting,
            busy_delta <= capacity * (1.0 + 1e-9) + 1.0,
            || format!("window accounted {busy_delta} busy cycles > capacity {capacity}"),
        )
    }

    /// Checks the governed overhead held non-negative slack up to the
    /// one-window AIMD correction lag (no two consecutive breach windows).
    pub fn check_non_negative_slack(&mut self, max_breach_streak: u64) -> bool {
        self.record(
            InvariantKind::NonNegativeSlack,
            max_breach_streak <= 1,
            || format!("{max_breach_streak} consecutive over-budget windows"),
        )
    }

    /// Checks a reconstructed span's stage buckets sum exactly (u64
    /// cycle arithmetic, no tolerance) to its client-visible latency.
    pub fn check_span_accounting(
        &mut self,
        rid: u64,
        queue: u64,
        service: u64,
        backoff: u64,
        other: u64,
        client_visible: u64,
    ) -> bool {
        let sum = queue + service + backoff + other;
        self.record(InvariantKind::SpanAccounting, sum == client_visible, || {
            format!(
                "rid {rid}: queue {queue} + service {service} + backoff {backoff} \
                 + other {other} = {sum} != client-visible {client_visible}"
            )
        })
    }

    /// Checks attempt identity conservation: an observed attempt
    /// generation (on a queue entry or retry announcement) matches the
    /// generation the span tracker expects for the request.
    pub fn check_attempt_conservation(
        &mut self,
        rid: u64,
        site: &str,
        expected: u32,
        observed: u32,
    ) -> bool {
        self.record(
            InvariantKind::AttemptConservation,
            expected == observed,
            || format!("rid {rid} {site}: attempt {observed} != expected {expected}"),
        )
    }

    /// Checks exact energy conservation: the per-core fixed-point energy
    /// accumulators (µW·cycles) sum — in u128 integer arithmetic, no
    /// tolerance — to the running per-slice power·dt total.
    pub fn check_energy_conservation(
        &mut self,
        core_sum_uw_cycles: u128,
        total_uw_cycles: u128,
    ) -> bool {
        self.record(
            InvariantKind::EnergyConservation,
            core_sum_uw_cycles == total_uw_cycles,
            || {
                format!(
                    "core energy sum {core_sum_uw_cycles} uW-cycles != running total {total_uw_cycles}"
                )
            },
        )
    }

    /// Checks a core's effective P-state sits within the frequency
    /// ladder's bounds and its ratio is a sane milli-fraction.
    pub fn check_frequency_bounds(
        &mut self,
        core: u64,
        pstate: u64,
        pstates: u64,
        ratio_milli: u64,
    ) -> bool {
        self.record(
            InvariantKind::FrequencyBounds,
            pstate < pstates && (1..=1000).contains(&ratio_milli),
            || {
                format!(
                    "core {core}: P-state {pstate} (of {pstates}) at ratio {ratio_milli} \
                     outside the ladder"
                )
            },
        )
    }

    /// Checks throttle-event conservation: engages minus releases must
    /// equal the number of cores currently throttled (u64 arithmetic).
    pub fn check_throttle_conservation(
        &mut self,
        engages: u64,
        releases: u64,
        throttled_now: u64,
    ) -> bool {
        self.record(
            InvariantKind::ThrottleConservation,
            engages == releases + throttled_now,
            || {
                format!(
                    "throttle engages {engages} != releases {releases} + currently throttled \
                     {throttled_now}"
                )
            },
        )
    }

    /// Total checks performed.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Violations per kind, in [`InvariantKind::ALL`] order.
    pub fn violations(&self) -> [u64; InvariantKind::ALL.len()] {
        self.violations
    }

    /// Total violations across every kind.
    pub fn violations_total(&self) -> u64 {
        self.violations.iter().sum()
    }

    /// The first violation's labeled detail, if any.
    pub fn first_violation(&self) -> Option<&str> {
        self.first_violation.as_deref()
    }

    /// The most recent violation's kind and detail, if any.
    pub fn last_violation(&self) -> Option<(InvariantKind, &str)> {
        self.last_violation.as_ref().map(|(k, d)| (*k, d.as_str()))
    }

    /// Serializes the monitor for reports: totals plus per-kind counts.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("checks".into(), Json::Num(self.checks as f64)),
            (
                "violations".into(),
                Json::Num(self.violations_total() as f64),
            ),
            (
                "by_kind".into(),
                Json::Obj(
                    InvariantKind::ALL
                        .iter()
                        .map(|k| {
                            (
                                k.label().to_string(),
                                Json::Num(self.violations[k.index()] as f64),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Exact-equality invariant tally for the tools that fold many shard
/// digests into one document: the campaign warehouse and the multi-tier
/// cluster.
///
/// Where [`InvariantMonitor`] guards one simulation while it runs, this
/// tally guards what the fold claims. Each check records one verdict;
/// a violated invariant means the document is lying about the run, so
/// violations surface in the report (and fail its gate) rather than
/// panicking mid-merge.
///
/// * Warehouse merge: counts must be conserved (a merged cell holds
///   exactly the sum of its shards' observations), merged extrema must
///   bracket every shard's extrema, and the grid must be fully covered.
/// * Cluster run: the `rbv-cluster` event loop feeds per-request and
///   end-of-run facts. The load-bearing check is the exact latency
///   partition — a request's per-tier leg residencies plus its network
///   hops must sum, in integer cycles with no tolerance, to its
///   client-visible latency: the cross-machine extension of the
///   single-machine `SpanAccounting` invariant.
///
/// # Example
///
/// ```
/// use rbv_guard::InvariantTally;
///
/// let mut inv = InvariantTally::new();
/// // legs 120 + 380, hops 40 + 60, client-visible 600: exact partition.
/// assert!(inv.check_latency_partition(7, 500, 100, 600));
/// assert!(inv.check_request_conservation(1, 1, 0));
/// assert_eq!(inv.violations(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct InvariantTally {
    checks: u64,
    violations: u64,
    first_violation: Option<String>,
}

impl InvariantTally {
    /// A fresh tally with no checks recorded.
    pub fn new() -> InvariantTally {
        InvariantTally::default()
    }

    fn record(&mut self, ok: bool, detail: impl FnOnce() -> String) -> bool {
        self.checks += 1;
        if !ok {
            self.violate(1, detail);
        }
        ok
    }

    fn violate(&mut self, count: u64, detail: impl FnOnce() -> String) {
        self.violations += count;
        if self.first_violation.is_none() {
            self.first_violation = Some(detail());
        }
    }

    /// Tallies one machine's contention-model solves that did not
    /// converge as violations; as
    /// [`InvariantMonitor::record_unconverged_solves`], it adds no checks.
    pub fn record_unconverged_solves(&mut self, machine: u32, unconverged: u64) {
        if unconverged > 0 {
            self.violate(unconverged, || {
                format!("machine {machine}: {unconverged} contention solves did not converge")
            });
        }
    }

    /// Checks observation-count conservation across a merge: the merged
    /// cell must hold exactly the sum of its shards' counts.
    pub fn check_count_conservation(
        &mut self,
        label: &str,
        shard_sum: u64,
        merged_count: u64,
    ) -> bool {
        self.record(shard_sum == merged_count, || {
            format!("{label}: merged count {merged_count} != shard sum {shard_sum}")
        })
    }

    /// Checks the merged extrema bracket the shard extrema exactly: the
    /// merged minimum is the smallest shard minimum and the merged
    /// maximum the largest shard maximum.
    pub fn check_merged_extrema(
        &mut self,
        label: &str,
        shard_min: Option<f64>,
        shard_max: Option<f64>,
        merged_min: Option<f64>,
        merged_max: Option<f64>,
    ) -> bool {
        self.record(shard_min == merged_min && shard_max == merged_max, || {
            format!(
                "{label}: merged extrema ({merged_min:?}, {merged_max:?}) != \
                 shard extrema ({shard_min:?}, {shard_max:?})"
            )
        })
    }

    /// Checks grid coverage: every expected shard arrived exactly once.
    pub fn check_grid_coverage(&mut self, expected_shards: u64, seen_shards: u64) -> bool {
        self.record(expected_shards == seen_shards, || {
            format!("grid coverage: expected {expected_shards} shards, merged {seen_shards}")
        })
    }

    /// Checks cluster-wide request conservation: every request offered
    /// to the cluster was either delivered back to the client or failed.
    pub fn check_request_conservation(
        &mut self,
        offered: u64,
        delivered: u64,
        failed: u64,
    ) -> bool {
        self.record(offered == delivered + failed, || {
            format!(
                "cluster request conservation: offered {offered} != \
                 delivered {delivered} + failed {failed}"
            )
        })
    }

    /// Checks hop accounting: every network departure was delivered —
    /// the cluster's links buffer nothing and drop nothing once a run
    /// has drained.
    pub fn check_hop_accounting(&mut self, departures: u64, deliveries: u64) -> bool {
        self.record(departures == deliveries, || {
            format!("hop accounting: {departures} departures != {deliveries} deliveries")
        })
    }

    /// Checks the exact cross-tier latency partition for one request:
    /// per-tier leg residencies plus network hop times must sum to the
    /// client-visible latency in integer cycles.
    pub fn check_latency_partition(
        &mut self,
        rid: u64,
        leg_cycles: u64,
        hop_cycles: u64,
        client_visible: u64,
    ) -> bool {
        self.record(leg_cycles + hop_cycles == client_visible, || {
            format!(
                "request {rid}: legs {leg_cycles} + hops {hop_cycles} != \
                 client-visible {client_visible}"
            )
        })
    }

    /// Checks one leg's exact internal partition: wait plus service must
    /// equal the leg's residence (arrival to completion on the machine)
    /// in integer cycles.
    pub fn check_leg_partition(
        &mut self,
        rid: u64,
        wait: u64,
        service: u64,
        residence: u64,
    ) -> bool {
        self.record(wait + service == residence, || {
            format!("request {rid}: leg wait {wait} + service {service} != residence {residence}")
        })
    }

    /// Total checks performed.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Total violations.
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// The first violation's detail, if any.
    pub fn first_violation(&self) -> Option<&str> {
        self.first_violation.as_deref()
    }

    /// Merges another tally into this one (shard fold; the first
    /// violation in fold order wins).
    pub fn absorb(&mut self, other: &InvariantTally) {
        self.checks += other.checks;
        self.violations += other.violations;
        if self.first_violation.is_none() {
            self.first_violation = other.first_violation.clone();
        }
    }

    /// Serializes the tally as `{checks, violations}`.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("checks".into(), Json::Num(self.checks as f64)),
            ("violations".into(), Json::Num(self.violations as f64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_checks_count_without_violations() {
        let mut m = InvariantMonitor::new();
        assert!(m.check_request_conservation(10, 2, 5, 1, 2));
        assert!(m.check_clock_monotonic(5, 5));
        assert!(m.check_counter_monotonic("busy", 1.0, 2.0));
        assert!(m.check_quantum_accounting(100.0, 50, 4));
        assert!(m.check_non_negative_slack(1));
        assert!(m.check_span_accounting(1, 10, 20, 5, 5, 40));
        assert!(m.check_attempt_conservation(1, "queue_enter", 2, 2));
        assert!(m.check_energy_conservation(12_345, 12_345));
        assert!(m.check_frequency_bounds(0, 4, 5, 600));
        assert!(m.check_throttle_conservation(3, 2, 1));
        assert_eq!(m.checks(), 10);
        assert_eq!(m.violations_total(), 0);
        assert!(m.first_violation().is_none());
    }

    #[test]
    fn each_kind_counts_its_own_violations() {
        let mut m = InvariantMonitor::new();
        assert!(!m.check_request_conservation(10, 1, 1, 1, 1));
        assert!(!m.check_clock_monotonic(7, 3));
        assert!(!m.check_counter_monotonic("busy", 5.0, 4.0));
        assert!(!m.check_counter_monotonic("cpi", 0.0, f64::NAN));
        assert!(!m.check_quantum_accounting(1e9, 10, 4));
        assert!(!m.check_non_negative_slack(3));
        assert!(!m.check_span_accounting(7, 10, 20, 5, 0, 40));
        assert!(!m.check_attempt_conservation(7, "queue_enter", 1, 2));
        assert!(!m.check_energy_conservation(12_345, 12_346));
        assert!(!m.check_frequency_bounds(2, 5, 5, 600));
        assert!(!m.check_frequency_bounds(2, 1, 5, 1_500));
        assert!(!m.check_throttle_conservation(3, 3, 1));
        m.record_unconverged_solves(1);
        assert_eq!(m.violations(), [1, 1, 2, 1, 1, 1, 1, 1, 2, 1, 1]);
        let first = m.first_violation().unwrap();
        assert!(first.starts_with("request_conservation:"), "{first}");
    }

    #[test]
    fn slack_tolerates_exactly_one_window() {
        let mut m = InvariantMonitor::new();
        assert!(m.check_non_negative_slack(0));
        assert!(m.check_non_negative_slack(1));
        assert!(!m.check_non_negative_slack(2));
    }

    #[test]
    fn campaign_checker_flags_merge_lies() {
        let mut c = InvariantTally::new();
        assert!(c.check_count_conservation("web.cpi", 120, 120));
        assert!(c.check_merged_extrema("web.cpi", Some(0.5), Some(9.0), Some(0.5), Some(9.0)));
        assert!(c.check_grid_coverage(48, 48));
        assert_eq!(c.checks(), 3);
        assert_eq!(c.violations(), 0);
        assert!(c.first_violation().is_none());

        assert!(!c.check_count_conservation("web.cpi", 120, 119));
        assert!(!c.check_merged_extrema("web.cpi", Some(0.5), Some(9.0), Some(0.6), Some(9.0)));
        assert!(!c.check_grid_coverage(48, 47));
        assert_eq!(c.violations(), 3);
        let first = c.first_violation().unwrap();
        assert!(
            first.contains("web.cpi") && first.contains("119"),
            "{first}"
        );
        assert_eq!(
            c.to_json().get("violations").and_then(Json::as_f64),
            Some(3.0)
        );
    }

    #[test]
    fn unconverged_solves_are_violations_without_checks() {
        let mut m = InvariantMonitor::new();
        m.record_unconverged_solves(0);
        assert_eq!((m.checks(), m.violations_total()), (0, 0));
        m.record_unconverged_solves(3);
        assert_eq!(m.checks(), 0);
        assert_eq!(m.violations()[InvariantKind::SolverConvergence.index()], 3);
        assert!(m
            .first_violation()
            .unwrap()
            .starts_with("solver_convergence"));

        let mut c = InvariantTally::new();
        c.record_unconverged_solves(2, 0);
        assert_eq!((c.checks(), c.violations()), (0, 0));
        c.record_unconverged_solves(2, 5);
        assert_eq!((c.checks(), c.violations()), (0, 5));
        assert!(c.first_violation().unwrap().contains("machine 2"));
    }

    #[test]
    fn json_lists_every_kind_by_label() {
        let mut m = InvariantMonitor::new();
        m.check_clock_monotonic(9, 1);
        let json = m.to_json();
        assert_eq!(json.get("violations").and_then(Json::as_f64), Some(1.0));
        let by_kind = json.get("by_kind").unwrap();
        for kind in InvariantKind::ALL {
            assert!(by_kind.get(kind.label()).is_some(), "{}", kind.label());
        }
        assert_eq!(
            by_kind.get("clock_monotonic").and_then(Json::as_f64),
            Some(1.0)
        );
    }
}
