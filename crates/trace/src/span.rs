//! Streaming span reconstruction from the engine's trace events.
//!
//! [`SpanCollector`] is a [`TraceSink`] that folds the event stream into
//! per-request causal timelines as the simulation runs: arrival → queue
//! wait → admission → service slices → retry backoff → completion. State
//! is proportional to the number of *live* requests (the same discipline
//! as `run_simulation_streaming`): a finished request collapses into the
//! aggregate [`SpanSummary`] and, optionally, one compact [`SpanRecord`]
//! for Perfetto export.
//!
//! Every duration is exact `u64` cycle arithmetic bucketed by the phase
//! the request was in when the clock advanced:
//!
//! * **queue** — from a runqueue insertion ([`TraceEvent::QueueEnter`])
//!   to dispatch;
//! * **service** — from dispatch to the end of the execution slice;
//! * **backoff** — from a scheduled retry (admission backoff or client
//!   resubmission) to the request's next admission attempt;
//! * **other** — everything else a client experiences but the server
//!   never accounts: admission-decision instants and hand-offs between
//!   stages.
//!
//! Because the buckets partition the request's lifetime, they sum
//! *exactly* to its client-visible latency (first arrival → final
//! completion) — the [`SpanAccounting`](InvariantKind::SpanAccounting)
//! invariant checked for every finished request. The engine's attempt
//! generation, threaded through [`TraceEvent::QueueEnter`] and
//! [`TraceEvent::RetryScheduled`], is checked against the span's own
//! generation count
//! ([`AttemptConservation`](InvariantKind::AttemptConservation)).

use std::collections::HashMap;

use rbv_guard::{InvariantKind, InvariantMonitor};
use rbv_sim::Cycles;
use rbv_telemetry::{Json, QuantileSketch, TraceEvent, TraceSink};

use crate::topk::{self, Ranked};

/// Slowest-request entries retained per shard and after merging.
pub const TOP_K: usize = 8;

/// What the request was doing, between two consecutive events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Between arrival (or rejection) and the admission outcome.
    Admitting,
    /// Sitting in a runqueue awaiting dispatch.
    Queued,
    /// Executing on a core.
    Running,
    /// Waiting out a retry backoff (admission or client).
    Backoff,
    /// Off-CPU between a slice end and the next queue entry (stage
    /// hand-off).
    Limbo,
}

/// Live per-request reconstruction state (dropped the moment the request
/// finishes, keeping collector memory ∝ live requests).
#[derive(Debug, Clone)]
struct LiveSpan {
    /// First-arrival instant in cycles.
    arrived: u64,
    /// Instant the current phase began.
    since: u64,
    /// Current phase.
    phase: Phase,
    /// Client attempt generation the collector expects (0 = first).
    gen: u32,
    /// Cycle totals per bucket.
    queue: u64,
    service: u64,
    backoff: u64,
    other: u64,
    /// Execution slices observed.
    slices: u32,
    /// `(retry_ts, resume_ts)` per client retry, for flow arrows.
    attempts: Vec<(u64, u64)>,
    /// A client retry was scheduled and its resumption queue entry has
    /// not arrived yet.
    awaiting_resume: bool,
}

impl LiveSpan {
    fn new(arrived: u64) -> LiveSpan {
        LiveSpan {
            arrived,
            since: arrived,
            phase: Phase::Admitting,
            gen: 0,
            queue: 0,
            service: 0,
            backoff: 0,
            other: 0,
            slices: 0,
            attempts: Vec::new(),
            awaiting_resume: false,
        }
    }

    /// Charges the time since the last event to the current phase.
    fn charge(&mut self, now: u64) {
        let delta = now.saturating_sub(self.since);
        match self.phase {
            Phase::Queued => self.queue += delta,
            Phase::Running => self.service += delta,
            Phase::Backoff => self.backoff += delta,
            Phase::Admitting | Phase::Limbo => self.other += delta,
        }
        self.since = now;
    }
}

/// One finished request's compact timeline, retained only when the
/// collector is constructed with [`SpanCollector::retaining`] (Perfetto
/// export needs every span; the decomposition alone does not).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Engine request id (unique within one shard).
    pub rid: u64,
    /// First-arrival instant, cycles.
    pub arrived: u64,
    /// Final completion or failure instant, cycles.
    pub finished: u64,
    /// Whether the request completed (vs shed / timed out).
    pub completed: bool,
    /// Queue-wait cycles across all attempts.
    pub queue: u64,
    /// Service cycles across all slices.
    pub service: u64,
    /// Retry-backoff cycles.
    pub backoff: u64,
    /// Admission + network-hop cycles.
    pub other: u64,
    /// `(retry_ts, resume_ts)` cycle instants per client retry, linking
    /// consecutive attempts.
    pub attempts: Vec<(u64, u64)>,
}

/// One slowest-request entry in the summary's top-k list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopSpan {
    /// Shard the request ran in (0 until [`SpanSummary::set_shard`]).
    pub shard: u32,
    /// Engine request id within the shard.
    pub rid: u64,
    /// Client attempts consumed (1 = no retry).
    pub attempts: u32,
    /// Client-visible latency, cycles.
    pub total: u64,
    /// Queue-wait cycles.
    pub queue: u64,
    /// Service cycles.
    pub service: u64,
    /// Retry-backoff cycles.
    pub backoff: u64,
    /// Admission + network-hop cycles.
    pub other: u64,
}

impl Ranked for TopSpan {
    fn key(&self) -> (std::cmp::Reverse<u64>, u32, u64) {
        (std::cmp::Reverse(self.total), self.shard, self.rid)
    }

    fn shard_mut(&mut self) -> &mut u32 {
        &mut self.shard
    }
}

/// Mergeable per-shard (or whole-run) span digest: request counts, the
/// latency decomposition sketches, invariant results, and the top-k
/// slowest requests.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpanSummary {
    /// Requests that arrived (RequestBegin events).
    pub arrived: u64,
    /// Requests that completed end to end.
    pub completed: u64,
    /// Requests shed, timed out, or aborted.
    pub failed: u64,
    /// Requests still live when the stream ended (0 on a finished run).
    pub unfinished: u64,
    /// Client-generation retries observed.
    pub client_retries: u64,
    /// Admission-level backoff retries observed.
    pub admission_retries: u64,
    /// Admission rejections observed.
    pub admission_rejections: u64,
    /// Runqueue insertions observed.
    pub queue_enters: u64,
    /// Execution slices observed.
    pub slices: u64,
    /// Work-stealing migrations observed.
    pub migrations: u64,
    /// Per-request queue-wait totals, µs.
    pub queue_us: QuantileSketch,
    /// Per-request service totals, µs.
    pub service_us: QuantileSketch,
    /// Per-request retry-backoff totals, µs.
    pub backoff_us: QuantileSketch,
    /// Per-request admission/network totals, µs.
    pub other_us: QuantileSketch,
    /// Per-request client-visible latency (arrival → completion), µs.
    /// Completed requests only: a shed request has no client-visible
    /// completion.
    pub client_visible_us: QuantileSketch,
    /// Invariant checks performed.
    pub invariant_checks: u64,
    /// Invariant violations, indexed by [`InvariantKind::index`].
    pub invariant_violations: [u64; InvariantKind::ALL.len()],
    /// First violation's labeled detail, if any.
    pub first_violation: Option<String>,
    /// Slowest completed requests, canonical order, at most [`TOP_K`].
    pub top: Vec<TopSpan>,
}

impl SpanSummary {
    /// Total invariant violations across every kind.
    pub fn violations_total(&self) -> u64 {
        self.invariant_violations.iter().sum()
    }

    /// Stamps `shard` onto the top-k entries (called once per shard
    /// before merging, so merged entries stay attributable).
    pub fn set_shard(&mut self, shard: u32) {
        topk::stamp_shard(&mut self.top, shard);
    }

    /// Folds `other` into `self`. Counts add, sketches merge losslessly,
    /// and the top-k lists combine under the canonical ordering — so
    /// folding shard summaries in shard order yields byte-identical
    /// serialized output at any thread count.
    pub fn merge(&mut self, other: &SpanSummary) {
        self.arrived += other.arrived;
        self.completed += other.completed;
        self.failed += other.failed;
        self.unfinished += other.unfinished;
        self.client_retries += other.client_retries;
        self.admission_retries += other.admission_retries;
        self.admission_rejections += other.admission_rejections;
        self.queue_enters += other.queue_enters;
        self.slices += other.slices;
        self.migrations += other.migrations;
        self.queue_us.merge(&other.queue_us);
        self.service_us.merge(&other.service_us);
        self.backoff_us.merge(&other.backoff_us);
        self.other_us.merge(&other.other_us);
        self.client_visible_us.merge(&other.client_visible_us);
        self.invariant_checks += other.invariant_checks;
        for (mine, theirs) in self
            .invariant_violations
            .iter_mut()
            .zip(other.invariant_violations)
        {
            *mine += theirs;
        }
        if self.first_violation.is_none() {
            self.first_violation = other.first_violation.clone();
        }
        topk::merge(&mut self.top, &other.top);
    }

    /// Serializes the summary with a fixed member order (the serve
    /// ledger's byte-identity depends on it).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::str("rbv-trace/v1")),
            ("arrived".into(), Json::Num(self.arrived as f64)),
            ("completed".into(), Json::Num(self.completed as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("unfinished".into(), Json::Num(self.unfinished as f64)),
            (
                "client_retries".into(),
                Json::Num(self.client_retries as f64),
            ),
            (
                "admission_retries".into(),
                Json::Num(self.admission_retries as f64),
            ),
            (
                "admission_rejections".into(),
                Json::Num(self.admission_rejections as f64),
            ),
            ("queue_enters".into(), Json::Num(self.queue_enters as f64)),
            ("slices".into(), Json::Num(self.slices as f64)),
            ("migrations".into(), Json::Num(self.migrations as f64)),
            (
                "latency_us".into(),
                Json::Obj(vec![
                    ("queue".into(), self.queue_us.to_json()),
                    ("service".into(), self.service_us.to_json()),
                    ("backoff".into(), self.backoff_us.to_json()),
                    ("other".into(), self.other_us.to_json()),
                    ("client_visible".into(), self.client_visible_us.to_json()),
                ]),
            ),
            (
                "invariants".into(),
                Json::Obj(vec![
                    ("checks".into(), Json::Num(self.invariant_checks as f64)),
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
                                        Json::Num(self.invariant_violations[k.index()] as f64),
                                    )
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ),
            (
                "top".into(),
                Json::Arr(
                    self.top
                        .iter()
                        .map(|t| {
                            Json::Obj(vec![
                                ("shard".into(), Json::Num(f64::from(t.shard))),
                                ("rid".into(), Json::Num(t.rid as f64)),
                                ("attempts".into(), Json::Num(f64::from(t.attempts))),
                                ("total_cycles".into(), Json::Num(t.total as f64)),
                                ("queue_cycles".into(), Json::Num(t.queue as f64)),
                                ("service_cycles".into(), Json::Num(t.service as f64)),
                                ("backoff_cycles".into(), Json::Num(t.backoff as f64)),
                                ("other_cycles".into(), Json::Num(t.other as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a summary serialized by [`SpanSummary::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed member.
    pub fn from_json(json: &Json) -> Result<SpanSummary, String> {
        let schema = json
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("trace: missing schema")?;
        if schema != "rbv-trace/v1" {
            return Err(format!("trace: schema {schema:?} != \"rbv-trace/v1\""));
        }
        let num = |key: &str| -> Result<f64, String> {
            json.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("trace: missing number {key:?}"))
        };
        let latency = json.get("latency_us").ok_or("trace: missing latency_us")?;
        let sketch = |key: &str| -> Result<QuantileSketch, String> {
            QuantileSketch::from_json(
                latency
                    .get(key)
                    .ok_or_else(|| format!("trace: missing sketch {key:?}"))?,
            )
        };
        let inv = json.get("invariants").ok_or("trace: missing invariants")?;
        let by_kind = inv.get("by_kind").ok_or("trace: missing by_kind")?;
        let mut invariant_violations = [0u64; InvariantKind::ALL.len()];
        for kind in InvariantKind::ALL {
            invariant_violations[kind.index()] = by_kind
                .get(kind.label())
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("trace: missing kind {:?}", kind.label()))?
                as u64;
        }
        let mut top = Vec::new();
        for item in json
            .get("top")
            .and_then(Json::as_array)
            .ok_or("trace: missing top")?
        {
            let field = |key: &str| -> Result<f64, String> {
                item.get(key)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("trace: top entry missing {key:?}"))
            };
            top.push(TopSpan {
                shard: field("shard")? as u32,
                rid: field("rid")? as u64,
                attempts: field("attempts")? as u32,
                total: field("total_cycles")? as u64,
                queue: field("queue_cycles")? as u64,
                service: field("service_cycles")? as u64,
                backoff: field("backoff_cycles")? as u64,
                other: field("other_cycles")? as u64,
            });
        }
        Ok(SpanSummary {
            arrived: num("arrived")? as u64,
            completed: num("completed")? as u64,
            failed: num("failed")? as u64,
            unfinished: num("unfinished")? as u64,
            client_retries: num("client_retries")? as u64,
            admission_retries: num("admission_retries")? as u64,
            admission_rejections: num("admission_rejections")? as u64,
            queue_enters: num("queue_enters")? as u64,
            slices: num("slices")? as u64,
            migrations: num("migrations")? as u64,
            queue_us: sketch("queue")?,
            service_us: sketch("service")?,
            backoff_us: sketch("backoff")?,
            other_us: sketch("other")?,
            client_visible_us: sketch("client_visible")?,
            invariant_checks: inv
                .get("checks")
                .and_then(Json::as_f64)
                .ok_or("trace: missing invariant checks")? as u64,
            invariant_violations,
            first_violation: None,
            top,
        })
    }
}

/// Streaming span reconstructor: a [`TraceSink`] holding one small state
/// record per *live* request and folding each finished request into the
/// aggregate [`SpanSummary`] (plus an optional [`SpanRecord`] when
/// retention is on).
#[derive(Debug, Default)]
pub struct SpanCollector {
    live: HashMap<u64, LiveSpan>,
    summary: SpanSummary,
    monitor: InvariantMonitor,
    retain: bool,
    spans: Vec<SpanRecord>,
}

impl SpanCollector {
    /// A collector that keeps only the bounded-memory decomposition.
    pub fn new() -> SpanCollector {
        SpanCollector::default()
    }

    /// A collector that additionally retains one compact [`SpanRecord`]
    /// per finished request (memory ∝ total requests) for Perfetto
    /// export.
    pub fn retaining() -> SpanCollector {
        SpanCollector {
            retain: true,
            ..SpanCollector::default()
        }
    }

    /// Folds every event in `events` through a fresh collector
    /// (convenience for tests and post-hoc reconstruction).
    pub fn collect(events: &[TraceEvent]) -> SpanCollector {
        let mut c = SpanCollector::new();
        for e in events {
            c.record(e.clone());
        }
        c.finish();
        c
    }

    /// Requests currently being reconstructed.
    pub fn live_len(&self) -> usize {
        self.live.len()
    }

    /// The retained span records (empty unless built with
    /// [`SpanCollector::retaining`]).
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Finalizes and returns the summary, counting still-live requests
    /// as unfinished. Call after the run (or let openloop do it).
    pub fn into_summary(mut self) -> SpanSummary {
        self.seal();
        self.summary
    }

    /// Finalizes and splits the collector into its summary and retained
    /// spans.
    pub fn into_parts(mut self) -> (SpanSummary, Vec<SpanRecord>) {
        self.seal();
        (self.summary, self.spans)
    }

    fn seal(&mut self) {
        self.summary.unfinished = self.live.len() as u64;
        self.summary.invariant_checks = self.monitor.checks();
        self.summary.invariant_violations = self.monitor.violations();
        self.summary.first_violation = self.monitor.first_violation().map(str::to_string);
    }

    /// Closes out a finished request: exact-sum invariant, sketch
    /// observations, top-k maintenance, optional retention.
    fn finish_request(&mut self, rid: u64, now: u64, completed: bool) {
        let Some(mut span) = self.live.remove(&rid) else {
            return;
        };
        span.charge(now);
        let total = now.saturating_sub(span.arrived);
        self.monitor.check_span_accounting(
            rid,
            span.queue,
            span.service,
            span.backoff,
            span.other,
            total,
        );
        self.summary
            .queue_us
            .observe(Cycles::new(span.queue).as_micros_f64());
        self.summary
            .service_us
            .observe(Cycles::new(span.service).as_micros_f64());
        self.summary
            .backoff_us
            .observe(Cycles::new(span.backoff).as_micros_f64());
        self.summary
            .other_us
            .observe(Cycles::new(span.other).as_micros_f64());
        if completed {
            self.summary.completed += 1;
            self.summary
                .client_visible_us
                .observe(Cycles::new(total).as_micros_f64());
            topk::insert(
                &mut self.summary.top,
                TopSpan {
                    shard: 0,
                    rid,
                    attempts: span.gen + 1,
                    total,
                    queue: span.queue,
                    service: span.service,
                    backoff: span.backoff,
                    other: span.other,
                },
            );
        } else {
            self.summary.failed += 1;
        }
        if self.retain {
            self.spans.push(SpanRecord {
                rid,
                arrived: span.arrived,
                finished: now,
                completed,
                queue: span.queue,
                service: span.service,
                backoff: span.backoff,
                other: span.other,
                attempts: span.attempts,
            });
        }
    }
}

impl TraceSink for SpanCollector {
    fn record(&mut self, event: TraceEvent) {
        let now = event.ts().get();
        match event {
            TraceEvent::RequestBegin { rid, .. } => {
                self.summary.arrived += 1;
                self.live.insert(rid, LiveSpan::new(now));
            }
            TraceEvent::QueueEnter { rid, attempt, .. } => {
                self.summary.queue_enters += 1;
                if let Some(span) = self.live.get_mut(&rid) {
                    span.charge(now);
                    self.monitor
                        .check_attempt_conservation(rid, "queue_enter", span.gen, attempt);
                    if span.awaiting_resume {
                        span.awaiting_resume = false;
                        if let Some(last) = span.attempts.last_mut() {
                            last.1 = now;
                        }
                    }
                    span.phase = Phase::Queued;
                }
            }
            TraceEvent::SliceBegin { rid, .. } => {
                if let Some(span) = self.live.get_mut(&rid) {
                    span.charge(now);
                    span.phase = Phase::Running;
                    span.slices += 1;
                    self.summary.slices += 1;
                }
            }
            TraceEvent::SliceEnd { rid, .. } => {
                if let Some(span) = self.live.get_mut(&rid) {
                    span.charge(now);
                    span.phase = Phase::Limbo;
                }
            }
            TraceEvent::AdmissionRejected { rid, .. } => {
                self.summary.admission_rejections += 1;
                if let Some(span) = self.live.get_mut(&rid) {
                    span.charge(now);
                    span.phase = Phase::Admitting;
                }
            }
            TraceEvent::RetryScheduled {
                rid,
                attempt,
                client,
                ..
            } => {
                if let Some(span) = self.live.get_mut(&rid) {
                    span.charge(now);
                    if client {
                        self.monitor.check_attempt_conservation(
                            rid,
                            "client_retry",
                            span.gen + 1,
                            attempt,
                        );
                        span.gen += 1;
                        span.attempts.push((now, now));
                        span.awaiting_resume = true;
                        self.summary.client_retries += 1;
                    } else {
                        self.summary.admission_retries += 1;
                    }
                    span.phase = Phase::Backoff;
                }
            }
            TraceEvent::Migration { rid, .. } if self.live.contains_key(&rid) => {
                self.summary.migrations += 1;
            }
            TraceEvent::RequestEnd { rid, .. } => {
                self.finish_request(rid, now, true);
            }
            TraceEvent::RequestFailed { rid, .. } => {
                self.finish_request(rid, now, false);
            }
            // Samples, syscalls, scheduler gates, governor/ladder moves,
            // and campaign markers carry no span boundary.
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(c: u64) -> Cycles {
        Cycles::new(c)
    }

    /// One request: queued 100, runs 200, hops 50, queued 30, runs 70.
    fn simple_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::RequestBegin {
                ts: t(0),
                rid: 1,
                app: "web".into(),
                class: "static".into(),
            },
            TraceEvent::QueueEnter {
                ts: t(0),
                rid: 1,
                queue: 0,
                attempt: 0,
            },
            TraceEvent::SliceBegin {
                ts: t(100),
                core: 0,
                rid: 1,
                stage: 0,
                component: "standalone".into(),
            },
            TraceEvent::SliceEnd {
                ts: t(300),
                core: 0,
                rid: 1,
            },
            TraceEvent::QueueEnter {
                ts: t(350),
                rid: 1,
                queue: 1,
                attempt: 0,
            },
            TraceEvent::SliceBegin {
                ts: t(380),
                core: 1,
                rid: 1,
                stage: 1,
                component: "db".into(),
            },
            TraceEvent::SliceEnd {
                ts: t(450),
                core: 1,
                rid: 1,
            },
            TraceEvent::RequestEnd { ts: t(450), rid: 1 },
        ]
    }

    #[test]
    fn stage_buckets_partition_the_lifetime() {
        let c = SpanCollector::collect(&simple_events());
        let s = c.into_summary();
        assert_eq!(s.arrived, 1);
        assert_eq!(s.completed, 1);
        assert_eq!(s.unfinished, 0);
        assert_eq!(s.top.len(), 1);
        let top = &s.top[0];
        assert_eq!(top.queue, 130); // 100 + 30
        assert_eq!(top.service, 270); // 200 + 70
        assert_eq!(top.backoff, 0);
        assert_eq!(top.other, 50); // the network hop
        assert_eq!(top.total, 450);
        assert_eq!(top.attempts, 1);
        assert_eq!(s.violations_total(), 0);
        assert!(s.invariant_checks >= 3); // 2 queue enters + span accounting
    }

    /// A client retry: attempt 0 is abandoned mid-queue, attempt 1 runs.
    fn retry_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::RequestBegin {
                ts: t(0),
                rid: 7,
                app: "web".into(),
                class: "static".into(),
            },
            TraceEvent::QueueEnter {
                ts: t(0),
                rid: 7,
                queue: 0,
                attempt: 0,
            },
            TraceEvent::RetryScheduled {
                ts: t(500),
                rid: 7,
                attempt: 1,
                backoff: Cycles::new(200),
                client: true,
            },
            TraceEvent::QueueEnter {
                ts: t(700),
                rid: 7,
                queue: 2,
                attempt: 1,
            },
            TraceEvent::SliceBegin {
                ts: t(750),
                core: 2,
                rid: 7,
                stage: 0,
                component: "standalone".into(),
            },
            TraceEvent::SliceEnd {
                ts: t(900),
                core: 2,
                rid: 7,
            },
            TraceEvent::RequestEnd { ts: t(900), rid: 7 },
        ]
    }

    #[test]
    fn client_retries_split_queue_and_backoff() {
        let c = SpanCollector::collect(&retry_events());
        assert_eq!(c.live_len(), 0);
        let s = c.into_summary();
        assert_eq!(s.client_retries, 1);
        let top = &s.top[0];
        assert_eq!(top.attempts, 2);
        assert_eq!(top.queue, 550); // 500 on attempt 0 + 50 on attempt 1
        assert_eq!(top.backoff, 200);
        assert_eq!(top.service, 150);
        assert_eq!(top.other, 0);
        assert_eq!(top.total, 900);
        assert_eq!(s.violations_total(), 0, "{:?}", s.first_violation);
    }

    #[test]
    fn attempt_mismatch_trips_the_invariant() {
        let mut events = retry_events();
        // Corrupt the resumption queue entry's generation.
        if let TraceEvent::QueueEnter { attempt, .. } = &mut events[3] {
            *attempt = 9;
        }
        let s = SpanCollector::collect(&events).into_summary();
        assert_eq!(
            s.invariant_violations[InvariantKind::AttemptConservation.index()],
            1
        );
        assert!(s
            .first_violation
            .as_deref()
            .is_some_and(|d| d.contains("queue_enter")));
    }

    #[test]
    fn failed_requests_skip_client_visible_but_keep_accounting() {
        let events = vec![
            TraceEvent::RequestBegin {
                ts: t(0),
                rid: 3,
                app: "web".into(),
                class: "static".into(),
            },
            TraceEvent::QueueEnter {
                ts: t(0),
                rid: 3,
                queue: 0,
                attempt: 0,
            },
            TraceEvent::RequestFailed {
                ts: t(400),
                rid: 3,
                reason: "shed".into(),
            },
        ];
        let s = SpanCollector::collect(&events).into_summary();
        assert_eq!(s.failed, 1);
        assert_eq!(s.completed, 0);
        assert!(s.client_visible_us.is_empty());
        assert_eq!(s.queue_us.count(), 1);
        assert!(s.top.is_empty());
        assert_eq!(s.violations_total(), 0);
    }

    #[test]
    fn merge_matches_concatenated_stream() {
        let a = SpanCollector::collect(&simple_events()).into_summary();
        let b = SpanCollector::collect(&retry_events()).into_summary();
        let mut merged = a.clone();
        merged.merge(&b);
        let concat: Vec<TraceEvent> = simple_events().into_iter().chain(retry_events()).collect();
        let whole = SpanCollector::collect(&concat).into_summary();
        assert_eq!(
            merged.to_json().to_string_compact(),
            whole.to_json().to_string_compact()
        );
    }

    #[test]
    fn summary_json_round_trips() {
        let mut s = SpanCollector::collect(&retry_events()).into_summary();
        s.set_shard(3);
        let text = s.to_json().to_string_compact();
        let back = SpanSummary::from_json(&Json::parse(&text).expect("valid")).expect("parses");
        assert_eq!(back.to_json().to_string_compact(), text);
        assert_eq!(back.top[0].shard, 3);
    }

    #[test]
    fn retaining_collector_keeps_span_records() {
        let mut c = SpanCollector::retaining();
        for e in retry_events() {
            c.record(e);
        }
        let (summary, spans) = c.into_parts();
        assert_eq!(summary.completed, 1);
        assert_eq!(spans.len(), 1);
        let span = &spans[0];
        assert_eq!(span.attempts, vec![(500, 700)]);
        assert!(span.completed);
        assert_eq!(
            span.queue + span.service + span.backoff + span.other,
            span.finished - span.arrived
        );
    }

    #[test]
    fn top_k_is_bounded_and_sorted() {
        let mut events = Vec::new();
        for rid in 0..20u64 {
            events.push(TraceEvent::RequestBegin {
                ts: t(0),
                rid,
                app: "web".into(),
                class: "static".into(),
            });
            events.push(TraceEvent::QueueEnter {
                ts: t(0),
                rid,
                queue: 0,
                attempt: 0,
            });
            events.push(TraceEvent::RequestEnd {
                ts: t(100 + rid),
                rid,
            });
        }
        let s = SpanCollector::collect(&events).into_summary();
        assert_eq!(s.top.len(), TOP_K);
        assert_eq!(s.top[0].total, 119);
        assert!(s.top.windows(2).all(|w| w[0].total >= w[1].total));
    }
}
