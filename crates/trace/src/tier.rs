//! Cross-tier span reconstruction: the cluster event loop records each
//! request's begin, tier legs, network hops and end into
//! [`TierSpanCollector`] by direct call, and the collector folds them
//! into per-tier latency/CPI attribution whose stages — per-tier
//! residence plus network hops — exactly partition every request's
//! client-visible latency.
//!
//! This is the multi-machine extension of [`crate::span`]: the same
//! streaming discipline (state ∝ live requests, canonical shard merge,
//! fixed-order serialization) applied to a request's whole causal path
//! across frontend/app/DB machines instead of one machine's queue.

use std::collections::HashMap;
use std::fmt::Display;

use rbv_guard::InvariantTally;
use rbv_sim::Cycles;
use rbv_telemetry::{Json, PerfettoTrace, QuantileSketch};

use crate::export::{event, process_name};
use crate::topk::{self, Ranked};

/// Aggregate latency/CPI attribution for one cluster machine (= one
/// tier instance): how long requests waited and ran there, and at what
/// CPI.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TierStats {
    /// Machine index in the cluster.
    pub machine: u32,
    /// Tier label (`frontend`, `app`, `db`, or `standalone`).
    pub tier: String,
    /// Tier legs resolved on the machine.
    pub legs: u64,
    /// Queueing/wait share of leg residence, in µs.
    pub wait_us: QuantileSketch,
    /// On-CPU service share of leg residence, in µs.
    pub service_us: QuantileSketch,
    /// Whole-leg residence (wait + service), in µs.
    pub leg_us: QuantileSketch,
    /// Per-leg cycles-per-instruction on the machine.
    pub cpi: QuantileSketch,
}

/// One tier leg of a retained cluster span.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterLegRecord {
    /// Machine that served the leg.
    pub machine: u32,
    /// Tier label of that machine.
    pub tier: String,
    /// Arrival instant at the machine, in cycles.
    pub arrived: u64,
    /// Completion instant on the machine, in cycles.
    pub finished: u64,
    /// Queueing/wait cycles of the leg.
    pub wait: u64,
    /// On-CPU service cycles of the leg.
    pub service: u64,
}

/// One delivered network hop of a cluster span: recorded through
/// [`TierSpanCollector::hop`] and kept in retained spans.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterHopRecord {
    /// Source machine.
    pub from: u32,
    /// Destination machine.
    pub to: u32,
    /// Departure instant from the source, in cycles.
    pub departed: u64,
    /// Delivery instant at the destination, in cycles.
    pub delivered: u64,
    /// Payload bytes serialized onto the link.
    pub bytes: u64,
}

/// A fully reconstructed cross-machine request span (retained only when
/// the collector is built with [`TierSpanCollector::retaining`], for
/// Perfetto export).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpanRecord {
    /// Cluster-global request id.
    pub rid: u64,
    /// Shard the request ran in (stamped before merging).
    pub shard: u32,
    /// Application label.
    pub app: String,
    /// Request-class label.
    pub class: String,
    /// Client submission instant, in cycles.
    pub arrived: u64,
    /// Client-visible completion instant, in cycles.
    pub finished: u64,
    /// Whether the request completed (failed requests keep their
    /// partial path).
    pub completed: bool,
    /// Tier legs along the causal path, in path order.
    pub legs: Vec<ClusterLegRecord>,
    /// Network hops along the causal path, in path order.
    pub hops: Vec<ClusterHopRecord>,
}

/// One of the top-k slowest requests, by client-visible latency, with
/// its per-tier breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct TierTopSpan {
    /// Shard the request ran in.
    pub shard: u32,
    /// Cluster-global request id.
    pub rid: u64,
    /// Client-visible latency in cycles.
    pub total: u64,
    /// Network share of the total, in cycles.
    pub network: u64,
    /// `(machine, wait_cycles, service_cycles)` per leg, in path order.
    pub legs: Vec<(u32, u64, u64)>,
}

impl Ranked for TierTopSpan {
    fn key(&self) -> (std::cmp::Reverse<u64>, u32, u64) {
        (std::cmp::Reverse(self.total), self.shard, self.rid)
    }

    fn shard_mut(&mut self) -> &mut u32 {
        &mut self.shard
    }
}

/// Mergeable aggregate of a cluster run's cross-tier attribution.
///
/// Shard summaries merge in canonical shard order ([`TierSummary::merge`])
/// and serialize with a fixed member order ([`TierSummary::to_json`]),
/// so the `rbv-cluster/v1` ledger stays byte-identical at any
/// `--threads` value.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TierSummary {
    /// Requests submitted to the cluster.
    pub arrived: u64,
    /// Requests delivered back to the client.
    pub completed: u64,
    /// Requests that failed along the path.
    pub failed: u64,
    /// Requests still live when the collector sealed (must be zero on a
    /// drained run).
    pub unfinished: u64,
    /// Per-machine attribution, in machine-index order.
    pub tiers: Vec<TierStats>,
    /// Network hops delivered.
    pub hops: u64,
    /// Total payload bytes across all hops.
    pub hop_bytes: u64,
    /// Per-hop network time, in µs.
    pub hop_us: QuantileSketch,
    /// Client-visible latency, in µs.
    pub client_visible_us: QuantileSketch,
    /// Cross-tier conservation checks (leg partition per leg, whole-path
    /// partition per request).
    pub invariants: InvariantTally,
    /// Top-k slowest requests under the canonical ordering.
    pub top: Vec<TierTopSpan>,
}

impl TierSummary {
    /// Stamps `shard` onto the top-k entries (called once per shard
    /// before merging, so merged entries stay attributable).
    pub fn set_shard(&mut self, shard: u32) {
        topk::stamp_shard(&mut self.top, shard);
    }

    /// Folds `other` into `self`: counts add, sketches merge losslessly,
    /// tiers align by machine index, and the top-k lists combine under
    /// the canonical ordering.
    pub fn merge(&mut self, other: &TierSummary) {
        self.arrived += other.arrived;
        self.completed += other.completed;
        self.failed += other.failed;
        self.unfinished += other.unfinished;
        if self.tiers.len() < other.tiers.len() {
            self.tiers
                .resize_with(other.tiers.len(), TierStats::default);
        }
        for (mine, theirs) in self.tiers.iter_mut().zip(&other.tiers) {
            if mine.tier.is_empty() {
                mine.machine = theirs.machine;
                mine.tier = theirs.tier.clone();
            }
            debug_assert_eq!(mine.tier, theirs.tier, "shards must share a topology");
            mine.legs += theirs.legs;
            mine.wait_us.merge(&theirs.wait_us);
            mine.service_us.merge(&theirs.service_us);
            mine.leg_us.merge(&theirs.leg_us);
            mine.cpi.merge(&theirs.cpi);
        }
        self.hops += other.hops;
        self.hop_bytes += other.hop_bytes;
        self.hop_us.merge(&other.hop_us);
        self.client_visible_us.merge(&other.client_visible_us);
        self.invariants.absorb(&other.invariants);
        topk::merge(&mut self.top, &other.top);
    }

    /// Serializes the summary with a fixed member order (the cluster
    /// ledger's byte-identity depends on it).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("arrived".into(), Json::Num(self.arrived as f64)),
            ("completed".into(), Json::Num(self.completed as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("unfinished".into(), Json::Num(self.unfinished as f64)),
            (
                "tiers".into(),
                Json::Arr(
                    self.tiers
                        .iter()
                        .map(|t| {
                            Json::Obj(vec![
                                ("machine".into(), Json::Num(f64::from(t.machine))),
                                ("tier".into(), Json::str(t.tier.clone())),
                                ("legs".into(), Json::Num(t.legs as f64)),
                                ("wait_us".into(), t.wait_us.to_json()),
                                ("service_us".into(), t.service_us.to_json()),
                                ("leg_us".into(), t.leg_us.to_json()),
                                ("cpi".into(), t.cpi.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "network".into(),
                Json::Obj(vec![
                    ("hops".into(), Json::Num(self.hops as f64)),
                    ("bytes".into(), Json::Num(self.hop_bytes as f64)),
                    ("hop_us".into(), self.hop_us.to_json()),
                ]),
            ),
            ("client_visible_us".into(), self.client_visible_us.to_json()),
            ("invariants".into(), self.invariants.to_json()),
            (
                "top".into(),
                Json::Arr(
                    self.top
                        .iter()
                        .map(|t| {
                            Json::Obj(vec![
                                ("shard".into(), Json::Num(f64::from(t.shard))),
                                ("rid".into(), Json::Num(t.rid as f64)),
                                ("total_cycles".into(), Json::Num(t.total as f64)),
                                ("network_cycles".into(), Json::Num(t.network as f64)),
                                (
                                    "legs".into(),
                                    Json::Arr(
                                        t.legs
                                            .iter()
                                            .map(|&(machine, wait, service)| {
                                                Json::Obj(vec![
                                                    (
                                                        "machine".into(),
                                                        Json::Num(f64::from(machine)),
                                                    ),
                                                    ("wait_cycles".into(), Json::Num(wait as f64)),
                                                    (
                                                        "service_cycles".into(),
                                                        Json::Num(service as f64),
                                                    ),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Per-request reconstruction state while the request is in flight.
struct LiveTier {
    /// Application and class labels (empty unless spans are retained).
    app: String,
    class: String,
    arrived: u64,
    leg_cycles: u64,
    hop_cycles: u64,
    legs: Vec<ClusterLegRecord>,
    /// Hops along the path (recorded only when spans are retained).
    hops: Vec<ClusterHopRecord>,
}

/// Streaming cross-tier span reconstructor holding one state record per
/// *live* request and folding each finished request into the aggregate
/// [`TierSummary`].
///
/// The cluster loop records each request by direct call: [`begin`] at
/// client submission, [`leg`] per tier leg, [`hop`] per delivered
/// network transfer, then [`end`] or [`fail`].
///
/// [`begin`]: TierSpanCollector::begin
/// [`leg`]: TierSpanCollector::leg
/// [`hop`]: TierSpanCollector::hop
/// [`end`]: TierSpanCollector::end
/// [`fail`]: TierSpanCollector::fail
///
/// # Example
///
/// ```
/// use rbv_trace::{ClusterHopRecord, TierSpanCollector};
///
/// let mut collector = TierSpanCollector::new();
/// collector.begin(1, 0, "tpcc", "NewOrder");
/// collector.hop(1, ClusterHopRecord { from: 0, to: 2, departed: 0, delivered: 100, bytes: 1024 });
/// // 500 service cycles of an 800-cycle residence: 300 cycles waiting.
/// collector.leg(1, 2, "db", 100, 900, 500, 1.7);
/// collector.hop(1, ClusterHopRecord { from: 2, to: 0, departed: 900, delivered: 1000, bytes: 256 });
/// collector.end(1, 1000);
/// let summary = collector.into_summary();
/// assert_eq!(summary.completed, 1);
/// // 800 leg cycles + 200 hop cycles partition the 1000-cycle latency.
/// assert_eq!(summary.invariants.violations(), 0);
/// ```
#[derive(Default)]
pub struct TierSpanCollector {
    live: HashMap<u64, LiveTier>,
    summary: TierSummary,
    retain: bool,
    records: Vec<ClusterSpanRecord>,
}

impl TierSpanCollector {
    /// A summarizing collector (no span retention; bounded memory).
    pub fn new() -> TierSpanCollector {
        TierSpanCollector::default()
    }

    /// A collector that additionally retains every finished request's
    /// [`ClusterSpanRecord`] for Perfetto export. Memory grows with the
    /// number of finished requests — use on bounded runs only.
    pub fn retaining() -> TierSpanCollector {
        TierSpanCollector {
            retain: true,
            ..TierSpanCollector::default()
        }
    }

    /// Seals the collector and returns the aggregate summary. Requests
    /// still live are counted as `unfinished`.
    pub fn into_summary(mut self) -> TierSummary {
        self.seal();
        self.summary
    }

    /// Seals the collector and returns the summary together with the
    /// retained span records (empty unless built with
    /// [`TierSpanCollector::retaining`]).
    pub fn into_parts(mut self) -> (TierSummary, Vec<ClusterSpanRecord>) {
        self.seal();
        let mut records = std::mem::take(&mut self.records);
        records.sort_by_key(|r| r.rid);
        (self.summary, records)
    }

    /// A client submitted request `rid` at cycle `arrived`. The app and
    /// class labels are formatted only when spans are retained.
    pub fn begin(&mut self, rid: u64, arrived: u64, app: impl Display, class: impl Display) {
        self.summary.arrived += 1;
        let (app, class) = if self.retain {
            (app.to_string(), class.to_string())
        } else {
            (String::new(), String::new())
        };
        self.live.insert(
            rid,
            LiveTier {
                app,
                class,
                arrived,
                leg_cycles: 0,
                hop_cycles: 0,
                legs: Vec::new(),
                hops: Vec::new(),
            },
        );
    }

    /// Request `rid` finished a leg on `machine` (labelled `tier`): it
    /// arrived at cycle `arrived`, finished at `finished`, and ran
    /// `service` cycles on a core at `cpi`. The rest of the residence is
    /// the leg's wait share, and the leg-partition check trips if
    /// `service` exceeds the residence.
    #[allow(clippy::too_many_arguments)]
    pub fn leg(
        &mut self,
        rid: u64,
        machine: u32,
        tier: &str,
        arrived: u64,
        finished: u64,
        service: u64,
        cpi: f64,
    ) {
        let residence = finished.saturating_sub(arrived);
        let wait = residence.saturating_sub(service);
        let total = wait + service;
        self.summary
            .invariants
            .check_leg_partition(rid, wait, service, residence);
        let stats = self.tier_stats_mut(machine, tier);
        stats.legs += 1;
        stats.wait_us.observe(Cycles::new(wait).as_micros_f64());
        stats
            .service_us
            .observe(Cycles::new(service).as_micros_f64());
        stats.leg_us.observe(Cycles::new(total).as_micros_f64());
        stats.cpi.observe(cpi);
        let retain = self.retain;
        if let Some(state) = self.live.get_mut(&rid) {
            state.leg_cycles += total;
            state.legs.push(ClusterLegRecord {
                machine,
                tier: if retain {
                    tier.to_string()
                } else {
                    String::new()
                },
                arrived,
                finished,
                wait,
                service,
            });
        }
    }

    /// A network transfer carrying request `rid` was delivered.
    pub fn hop(&mut self, rid: u64, hop: ClusterHopRecord) {
        let hop_cycles = hop.delivered.saturating_sub(hop.departed);
        self.summary.hops += 1;
        self.summary.hop_bytes += hop.bytes;
        self.summary
            .hop_us
            .observe(Cycles::new(hop_cycles).as_micros_f64());
        let retain = self.retain;
        if let Some(state) = self.live.get_mut(&rid) {
            state.hop_cycles += hop_cycles;
            if retain {
                state.hops.push(hop);
            }
        }
    }

    /// Request `rid` reached the client at cycle `at`.
    pub fn end(&mut self, rid: u64, at: u64) {
        self.finish_request(rid, at, true);
    }

    /// Request `rid` failed along its path at cycle `at`.
    pub fn fail(&mut self, rid: u64, at: u64) {
        self.finish_request(rid, at, false);
    }

    fn seal(&mut self) {
        self.summary.unfinished += self.live.len() as u64;
        self.live.clear();
    }

    fn tier_stats_mut(&mut self, machine: u32, tier: &str) -> &mut TierStats {
        let idx = machine as usize;
        if self.summary.tiers.len() <= idx {
            self.summary.tiers.resize_with(idx + 1, TierStats::default);
        }
        let stats = &mut self.summary.tiers[idx];
        if stats.tier.is_empty() {
            stats.machine = machine;
            stats.tier = tier.to_string();
        }
        stats
    }

    fn finish_request(&mut self, rid: u64, now: u64, completed: bool) {
        let Some(state) = self.live.remove(&rid) else {
            return;
        };
        let client_visible = now.saturating_sub(state.arrived);
        if completed {
            self.summary.completed += 1;
            // The load-bearing check: per-tier legs plus network hops
            // exactly partition the client-visible latency, in integer
            // cycles.
            self.summary.invariants.check_latency_partition(
                rid,
                state.leg_cycles,
                state.hop_cycles,
                client_visible,
            );
            self.summary
                .client_visible_us
                .observe(Cycles::new(client_visible).as_micros_f64());
            topk::insert(
                &mut self.summary.top,
                TierTopSpan {
                    shard: 0,
                    rid,
                    total: client_visible,
                    network: state.hop_cycles,
                    legs: state
                        .legs
                        .iter()
                        .map(|l| (l.machine, l.wait, l.service))
                        .collect(),
                },
            );
        } else {
            self.summary.failed += 1;
        }
        if self.retain {
            self.records.push(ClusterSpanRecord {
                rid,
                shard: 0,
                app: state.app,
                class: state.class,
                arrived: state.arrived,
                finished: now,
                completed,
                legs: state.legs,
                hops: state.hops,
            });
        }
    }
}

/// Renders retained cluster spans as a Perfetto trace with **one
/// track-group (process) per machine** and cross-tier flow arrows.
///
/// Each machine becomes a process (`pid` = machine + 1, named
/// `machine <i> · <tier>`); within it, each shard is one thread track.
/// Every tier leg renders as an async span on its machine's track, and
/// every network hop draws a flow arrow (`ph` `"s"` → `"f"`) from the
/// departure instant on the source machine to the delivery instant on
/// the destination machine, so the viewer shows each request's causal
/// path hopping across tiers.
pub fn cluster_to_perfetto(
    records: &[ClusterSpanRecord],
    machines: &[(u32, String)],
) -> PerfettoTrace {
    let mut out = Vec::new();
    for (machine, tier) in machines {
        out.push(process_name(
            f64::from(*machine) + 1.0,
            format!("machine {machine} · {tier}"),
        ));
    }
    for span in records {
        let id = format!("{:#x}", span.rid);
        let tid = f64::from(span.shard) + 1.0;
        for (k, leg) in span.legs.iter().enumerate() {
            let pid = f64::from(leg.machine) + 1.0;
            let name = format!("{} {} #{} leg {k}", span.app, span.class, span.rid);
            let mut begin = event(&name, "leg", "b", leg.arrived, pid, tid, &id);
            begin.push((
                "args".into(),
                Json::Obj(vec![
                    ("tier".into(), Json::str(leg.tier.clone())),
                    ("completed".into(), Json::Bool(span.completed)),
                    (
                        "wait_us".into(),
                        Json::Num(Cycles::new(leg.wait).as_micros_f64()),
                    ),
                    (
                        "service_us".into(),
                        Json::Num(Cycles::new(leg.service).as_micros_f64()),
                    ),
                ]),
            ));
            out.push(Json::Obj(begin));
            out.push(Json::Obj(event(
                &name,
                "leg",
                "e",
                leg.finished,
                pid,
                tid,
                &id,
            )));
        }
        for (h, hop) in span.hops.iter().enumerate() {
            let flow_id = format!("{:#x}.{h}", span.rid);
            out.push(Json::Obj(event(
                "hop",
                "tier_flow",
                "s",
                hop.departed,
                f64::from(hop.from) + 1.0,
                tid,
                &flow_id,
            )));
            let mut finish = event(
                "hop",
                "tier_flow",
                "f",
                hop.delivered,
                f64::from(hop.to) + 1.0,
                tid,
                &flow_id,
            );
            finish.push(("bp".into(), Json::str("e")));
            out.push(Json::Obj(finish));
        }
    }
    PerfettoTrace::from_raw_events(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hop(from: u32, to: u32, departed: u64, delivered: u64, bytes: u64) -> ClusterHopRecord {
        ClusterHopRecord {
            from,
            to,
            departed,
            delivered,
            bytes,
        }
    }

    /// Records one request's three-tier path — frontend leg [base,
    /// base+100], hop to app [+100, +150], app leg [+150, +400], hop to
    /// db [+400, +450], db leg [+450, +900], egress hop [+900, +960] —
    /// and returns the instant the egress hop reached the client.
    fn record_three_tier(c: &mut TierSpanCollector, rid: u64, base: u64) -> u64 {
        c.begin(rid, base, "rubis", "SearchItems");
        c.leg(rid, 0, "frontend", base, base + 100, 60, 1.2);
        c.hop(rid, hop(0, 1, base + 100, base + 150, 1024));
        c.leg(rid, 1, "app", base + 150, base + 400, 200, 1.9);
        c.hop(rid, hop(1, 2, base + 400, base + 450, 512));
        c.leg(rid, 2, "db", base + 450, base + 900, 300, 2.4);
        c.hop(rid, hop(2, 0, base + 900, base + 960, 256));
        base + 960
    }

    fn collector(retain: bool) -> TierSpanCollector {
        if retain {
            TierSpanCollector::retaining()
        } else {
            TierSpanCollector::new()
        }
    }

    fn three_tier(rids: &[(u64, u64)], retain: bool) -> TierSpanCollector {
        let mut c = collector(retain);
        for &(rid, base) in rids {
            let end = record_three_tier(&mut c, rid, base);
            c.end(rid, end);
        }
        c
    }

    #[test]
    fn legs_and_hops_partition_client_visible_latency() {
        let summary = three_tier(&[(1, 0)], false).into_summary();
        assert_eq!(summary.completed, 1);
        assert_eq!(summary.hops, 3);
        // 3 leg-partition checks + 1 whole-path partition check.
        assert_eq!(summary.invariants.checks(), 4);
        assert_eq!(summary.invariants.violations(), 0);
        assert_eq!(
            summary.top[0].legs,
            vec![(0, 40, 60), (1, 50, 200), (2, 150, 300)]
        );
    }

    #[test]
    fn a_gap_in_the_path_trips_the_partition_invariant() {
        let mut c = TierSpanCollector::new();
        record_three_tier(&mut c, 1, 0);
        // Delay the client end past the egress delivery: 40 unaccounted
        // cycles appear in the client-visible latency.
        c.end(1, 1000);
        let summary = c.into_summary();
        assert_eq!(summary.invariants.violations(), 1);
        assert!(summary
            .invariants
            .first_violation()
            .is_some_and(|v| v.contains("client-visible")));
    }

    #[test]
    fn service_beyond_residence_trips_the_leg_partition() {
        let mut c = TierSpanCollector::new();
        c.begin(1, 0, "tpcc", "NewOrder");
        c.leg(1, 0, "frontend", 0, 100, 150, 1.0);
        let summary = c.into_summary();
        assert_eq!(summary.invariants.violations(), 1);
        assert!(summary
            .invariants
            .first_violation()
            .is_some_and(|v| v.contains("residence")));
    }

    #[test]
    fn merge_matches_concatenated_stream() {
        let mut a = three_tier(&[(1, 0)], false).into_summary();
        let mut b = three_tier(&[(2, 5_000)], false).into_summary();
        a.set_shard(0);
        b.set_shard(1);
        let mut merged = a.clone();
        merged.merge(&b);
        let mut both = three_tier(&[(1, 0), (2, 5_000)], false).into_summary();
        both.set_shard(0);
        // Shard stamps differ on top entries; compare the aggregates.
        assert_eq!(merged.completed, both.completed);
        assert_eq!(merged.hops, both.hops);
        assert_eq!(merged.hop_bytes, both.hop_bytes);
        assert_eq!(merged.invariants.checks(), both.invariants.checks());
        assert_eq!(
            merged.client_visible_us.to_json().to_string_compact(),
            both.client_visible_us.to_json().to_string_compact()
        );
        for (m, b) in merged.tiers.iter().zip(&both.tiers) {
            assert_eq!(m.legs, b.legs);
            assert_eq!(
                m.service_us.to_json().to_string_compact(),
                b.service_us.to_json().to_string_compact()
            );
        }
    }

    #[test]
    fn summary_serializes_with_fixed_member_order() {
        let summary = three_tier(&[(1, 0)], false).into_summary();
        let text = summary.to_json().to_string_compact();
        let arrived = text.find("\"arrived\"").expect("arrived present");
        let tiers = text.find("\"tiers\"").expect("tiers present");
        let network = text.find("\"network\"").expect("network present");
        let top = text.find("\"top\"").expect("top present");
        assert!(arrived < tiers && tiers < network && network < top);
    }

    #[test]
    fn labels_are_kept_only_when_retaining() {
        let (_, records) = three_tier(&[(1, 0)], true).into_parts();
        assert_eq!(records[0].app, "rubis");
        assert_eq!(records[0].class, "SearchItems");
        assert_eq!(records[0].legs[2].tier, "db");
        assert_eq!(records[0].hops.len(), 3);
        let (summary, records) = three_tier(&[(1, 0)], false).into_parts();
        assert!(records.is_empty());
        // Tier labels reach the summary either way.
        assert_eq!(summary.tiers[2].tier, "db");
    }

    #[test]
    fn perfetto_export_has_one_process_per_machine_and_flow_arrows() {
        let (_, records) = three_tier(&[(1, 0)], true).into_parts();
        assert_eq!(records.len(), 1);
        let machines = vec![
            (0u32, "frontend".to_string()),
            (1, "app".into()),
            (2, "db".into()),
        ];
        let doc = cluster_to_perfetto(&records, &machines).to_json();
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("trace events");
        let pids: std::collections::BTreeSet<i64> = events
            .iter()
            .map(|e| {
                e.get("pid")
                    .and_then(Json::as_f64)
                    .expect("pid on every event") as i64
            })
            .collect();
        assert_eq!(pids.into_iter().collect::<Vec<_>>(), vec![1, 2, 3]);
        let starts = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("s"))
            .count();
        let finishes = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("f"))
            .count();
        assert_eq!(starts, 3, "one flow arrow per hop");
        assert_eq!(starts, finishes);
    }

    #[test]
    fn failed_requests_keep_their_partial_path() {
        let mut c = TierSpanCollector::retaining();
        c.begin(9, 0, "tpcc", "NewOrder");
        c.hop(9, hop(0, 2, 0, 50, 700));
        c.fail(9, 400);
        let (summary, records) = c.into_parts();
        assert_eq!(summary.failed, 1);
        assert_eq!(summary.completed, 0);
        assert_eq!(records.len(), 1);
        assert!(!records[0].completed);
        assert_eq!(records[0].hops.len(), 1);
    }
}
