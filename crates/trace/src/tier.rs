//! Cross-tier span reconstruction: folds the cluster event loop's
//! [`TraceEvent::TierLeg`]/[`TraceEvent::TierHop`] stream into per-tier
//! latency/CPI attribution whose stages — per-tier residence plus
//! network hops — exactly partition every request's client-visible
//! latency.
//!
//! This is the multi-machine extension of [`crate::span`]: the same
//! streaming discipline (state ∝ live requests, canonical shard merge,
//! fixed-order serialization) applied to a request's whole causal path
//! across frontend/app/DB machines instead of one machine's queue.

use std::collections::HashMap;

use rbv_guard::InvariantTally;
use rbv_sim::Cycles;
use rbv_telemetry::{Json, PerfettoTrace, QuantileSketch, TraceEvent, TraceSink};

use crate::span::TOP_K;

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

/// One network hop of a retained cluster span.
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

impl TierTopSpan {
    /// Canonical ordering: slowest first, ties broken by shard then
    /// request id, so merged lists serialize identically at any thread
    /// count.
    fn key(&self) -> (std::cmp::Reverse<u64>, u32, u64) {
        (std::cmp::Reverse(self.total), self.shard, self.rid)
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
        for t in &mut self.top {
            t.shard = shard;
        }
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
        self.top.extend(other.top.iter().cloned());
        self.top.sort_by_key(TierTopSpan::key);
        self.top.truncate(TOP_K);
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
    app: String,
    class: String,
    arrived: u64,
    leg_cycles: u64,
    hop_cycles: u64,
    hop_bytes: u64,
    legs: Vec<ClusterLegRecord>,
    hops: Vec<ClusterHopRecord>,
}

/// Streaming cross-tier span reconstructor: a [`TraceSink`] holding one
/// state record per *live* request and folding each finished request
/// into the aggregate [`TierSummary`].
///
/// The collector consumes the cluster loop's event stream —
/// [`TraceEvent::RequestBegin`], [`TraceEvent::TierLeg`],
/// [`TraceEvent::TierHop`], [`TraceEvent::RequestEnd`] /
/// [`TraceEvent::RequestFailed`] — and ignores every single-machine
/// event kind, so it can share a stream with other sinks.
///
/// # Example
///
/// ```
/// use rbv_sim::Cycles;
/// use rbv_telemetry::{TraceEvent, TraceSink};
/// use rbv_trace::TierSpanCollector;
///
/// let mut collector = TierSpanCollector::new();
/// collector.record(TraceEvent::RequestBegin {
///     ts: Cycles::new(0),
///     rid: 1,
///     app: "tpcc".into(),
///     class: "NewOrder".into(),
/// });
/// collector.record(TraceEvent::TierLeg {
///     ts: Cycles::new(900),
///     rid: 1,
///     machine: 2,
///     tier: "db".into(),
///     leg: 0,
///     arrived: Cycles::new(100),
///     wait_cycles: 300,
///     service_cycles: 500,
///     cpi: 1.7,
/// });
/// collector.record(TraceEvent::TierHop {
///     ts: Cycles::new(100),
///     rid: 1,
///     from_machine: 0,
///     to_machine: 2,
///     hop: 0,
///     departed: Cycles::new(0),
///     bytes: 1024,
/// });
/// collector.record(TraceEvent::TierHop {
///     ts: Cycles::new(1000),
///     rid: 1,
///     from_machine: 2,
///     to_machine: 0,
///     hop: 1,
///     departed: Cycles::new(900),
///     bytes: 256,
/// });
/// collector.record(TraceEvent::RequestEnd { ts: Cycles::new(1000), rid: 1 });
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

    /// Live (not yet finished) requests currently tracked.
    pub fn live_len(&self) -> usize {
        self.live.len()
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
            self.summary.top.push(TierTopSpan {
                shard: 0,
                rid,
                total: client_visible,
                network: state.hop_cycles,
                legs: state
                    .legs
                    .iter()
                    .map(|l| (l.machine, l.wait, l.service))
                    .collect(),
            });
            self.summary.top.sort_by_key(TierTopSpan::key);
            self.summary.top.truncate(TOP_K);
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

impl TraceSink for TierSpanCollector {
    fn record(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::RequestBegin {
                ts,
                rid,
                app,
                class,
                ..
            } => {
                self.summary.arrived += 1;
                self.live.insert(
                    rid,
                    LiveTier {
                        app,
                        class,
                        arrived: ts.get(),
                        leg_cycles: 0,
                        hop_cycles: 0,
                        hop_bytes: 0,
                        legs: Vec::new(),
                        hops: Vec::new(),
                    },
                );
            }
            TraceEvent::TierLeg {
                ts,
                rid,
                machine,
                tier,
                arrived,
                wait_cycles,
                service_cycles,
                cpi,
                ..
            } => {
                let residence = ts.get().saturating_sub(arrived.get());
                let total = wait_cycles + service_cycles;
                self.summary.invariants.check_leg_partition(
                    rid,
                    wait_cycles,
                    service_cycles,
                    residence,
                );
                let stats = self.tier_stats_mut(machine, &tier);
                stats.legs += 1;
                stats
                    .wait_us
                    .observe(Cycles::new(wait_cycles).as_micros_f64());
                stats
                    .service_us
                    .observe(Cycles::new(service_cycles).as_micros_f64());
                stats.leg_us.observe(Cycles::new(total).as_micros_f64());
                stats.cpi.observe(cpi);
                if let Some(state) = self.live.get_mut(&rid) {
                    state.leg_cycles += total;
                    state.legs.push(ClusterLegRecord {
                        machine,
                        tier,
                        arrived: arrived.get(),
                        finished: ts.get(),
                        wait: wait_cycles,
                        service: service_cycles,
                    });
                }
            }
            TraceEvent::TierHop {
                ts,
                rid,
                from_machine,
                to_machine,
                departed,
                bytes,
                ..
            } => {
                let hop_cycles = ts.get().saturating_sub(departed.get());
                self.summary.hops += 1;
                self.summary.hop_bytes += bytes;
                self.summary
                    .hop_us
                    .observe(Cycles::new(hop_cycles).as_micros_f64());
                if let Some(state) = self.live.get_mut(&rid) {
                    state.hop_cycles += hop_cycles;
                    state.hop_bytes += bytes;
                    state.hops.push(ClusterHopRecord {
                        from: from_machine,
                        to: to_machine,
                        departed: departed.get(),
                        delivered: ts.get(),
                        bytes,
                    });
                }
            }
            TraceEvent::RequestEnd { ts, rid } => self.finish_request(rid, ts.get(), true),
            TraceEvent::RequestFailed { ts, rid, .. } => self.finish_request(rid, ts.get(), false),
            _ => {}
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
        let pid = f64::from(*machine) + 1.0;
        out.push(Json::Obj(vec![
            ("name".into(), Json::str("process_name")),
            ("cat".into(), Json::str("__metadata")),
            ("ph".into(), Json::str("M")),
            ("ts".into(), Json::Num(0.0)),
            ("pid".into(), Json::Num(pid)),
            ("tid".into(), Json::Num(0.0)),
            (
                "args".into(),
                Json::Obj(vec![(
                    "name".into(),
                    Json::str(format!("machine {machine} · {tier}")),
                )]),
            ),
        ]));
    }
    let event = |name: &str, cat: &str, ph: &str, ts: u64, pid: f64, tid: f64, id: &str| {
        vec![
            ("name".into(), Json::str(name)),
            ("cat".into(), Json::str(cat)),
            ("ph".into(), Json::str(ph)),
            ("ts".into(), Json::Num(Cycles::new(ts).as_micros_f64())),
            ("pid".into(), Json::Num(pid)),
            ("tid".into(), Json::Num(tid)),
            ("id".into(), Json::str(id)),
        ]
    };
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

    fn t(c: u64) -> Cycles {
        Cycles::new(c)
    }

    fn three_tier_events(rid: u64, base: u64) -> Vec<TraceEvent> {
        // frontend leg [base, base+100], hop to app [+100, +150],
        // app leg [+150, +400], hop to db [+400, +450],
        // db leg [+450, +900], egress hop [+900, +960].
        vec![
            TraceEvent::RequestBegin {
                ts: t(base),
                rid,
                app: "rubis".into(),
                class: "SearchItems".into(),
            },
            TraceEvent::TierLeg {
                ts: t(base + 100),
                rid,
                machine: 0,
                tier: "frontend".into(),
                leg: 0,
                arrived: t(base),
                wait_cycles: 40,
                service_cycles: 60,
                cpi: 1.2,
            },
            TraceEvent::TierHop {
                ts: t(base + 150),
                rid,
                from_machine: 0,
                to_machine: 1,
                hop: 0,
                departed: t(base + 100),
                bytes: 1024,
            },
            TraceEvent::TierLeg {
                ts: t(base + 400),
                rid,
                machine: 1,
                tier: "app".into(),
                leg: 1,
                arrived: t(base + 150),
                wait_cycles: 50,
                service_cycles: 200,
                cpi: 1.9,
            },
            TraceEvent::TierHop {
                ts: t(base + 450),
                rid,
                from_machine: 1,
                to_machine: 2,
                hop: 1,
                departed: t(base + 400),
                bytes: 512,
            },
            TraceEvent::TierLeg {
                ts: t(base + 900),
                rid,
                machine: 2,
                tier: "db".into(),
                leg: 2,
                arrived: t(base + 450),
                wait_cycles: 150,
                service_cycles: 300,
                cpi: 2.4,
            },
            TraceEvent::TierHop {
                ts: t(base + 960),
                rid,
                from_machine: 2,
                to_machine: 0,
                hop: 2,
                departed: t(base + 900),
                bytes: 256,
            },
            TraceEvent::RequestEnd {
                ts: t(base + 960),
                rid,
            },
        ]
    }

    fn collect(events: Vec<TraceEvent>, retain: bool) -> TierSpanCollector {
        let mut c = if retain {
            TierSpanCollector::retaining()
        } else {
            TierSpanCollector::new()
        };
        for e in events {
            c.record(e);
        }
        c
    }

    #[test]
    fn legs_and_hops_partition_client_visible_latency() {
        let summary = collect(three_tier_events(1, 0), false).into_summary();
        assert_eq!(summary.completed, 1);
        assert_eq!(summary.hops, 3);
        // 3 leg-partition checks + 1 whole-path partition check.
        assert_eq!(summary.invariants.checks(), 4);
        assert_eq!(summary.invariants.violations(), 0);
    }

    #[test]
    fn a_gap_in_the_path_trips_the_partition_invariant() {
        let mut events = three_tier_events(1, 0);
        // Delay the client end past the egress delivery: 40 unaccounted
        // cycles appear in the client-visible latency.
        if let Some(TraceEvent::RequestEnd { ts, .. }) = events.last_mut() {
            *ts = t(1000);
        }
        let summary = collect(events, false).into_summary();
        assert_eq!(summary.invariants.violations(), 1);
        assert!(summary
            .invariants
            .first_violation()
            .is_some_and(|v| v.contains("client-visible")));
    }

    #[test]
    fn merge_matches_concatenated_stream() {
        let mut a = collect(three_tier_events(1, 0), false).into_summary();
        let mut b = collect(three_tier_events(2, 5_000), false).into_summary();
        a.set_shard(0);
        b.set_shard(1);
        let mut merged = a.clone();
        merged.merge(&b);
        let mut both = collect(
            three_tier_events(1, 0)
                .into_iter()
                .chain(three_tier_events(2, 5_000))
                .collect(),
            false,
        )
        .into_summary();
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
        let summary = collect(three_tier_events(1, 0), false).into_summary();
        let text = summary.to_json().to_string_compact();
        let arrived = text.find("\"arrived\"").expect("arrived present");
        let tiers = text.find("\"tiers\"").expect("tiers present");
        let network = text.find("\"network\"").expect("network present");
        let top = text.find("\"top\"").expect("top present");
        assert!(arrived < tiers && tiers < network && network < top);
    }

    #[test]
    fn perfetto_export_has_one_process_per_machine_and_flow_arrows() {
        let (_, records) = collect(three_tier_events(1, 0), true).into_parts();
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
        let events = vec![
            TraceEvent::RequestBegin {
                ts: t(0),
                rid: 9,
                app: "tpcc".into(),
                class: "NewOrder".into(),
            },
            TraceEvent::TierHop {
                ts: t(50),
                rid: 9,
                from_machine: 0,
                to_machine: 2,
                hop: 0,
                departed: t(0),
                bytes: 700,
            },
            TraceEvent::RequestFailed {
                ts: t(400),
                rid: 9,
                reason: "deadline_abort".into(),
            },
        ];
        let (summary, records) = collect(events, true).into_parts();
        assert_eq!(summary.failed, 1);
        assert_eq!(summary.completed, 0);
        assert_eq!(records.len(), 1);
        assert!(!records[0].completed);
        assert_eq!(records[0].hops.len(), 1);
    }
}
