//! Chrome trace-event / Perfetto JSON export.
//!
//! Produces the JSON Array Format that both `chrome://tracing` and
//! [ui.perfetto.dev](https://ui.perfetto.dev) load directly:
//!
//! * one *thread track per simulated core* (`pid` 1, `tid` = core + 1)
//!   carrying balanced `B`/`E` duration slices for every scheduled
//!   execution interval, plus instant events for samples, syscalls, and
//!   contention-easing decisions on the core that took them;
//! * one *async track per completed request* (`id` = request id) with the
//!   request's end-to-end span (`cat` `"request"`) and its per-slice
//!   execution sub-spans nested inside (`cat` `"request_exec"`);
//! * a counter track (`C`) for the number of cores simultaneously in
//!   high-L2-usage periods (the Figure 12 measure).
//!
//! Timestamps are simulated microseconds (fractional), converted from
//! [`Cycles`](rbv_sim::Cycles) at the machine's clock rate. Slices still open when the
//! trace ends are closed at the final timestamp, so `B`/`E` events are
//! balanced per track by construction; requests that never completed get
//! no request span (the acceptance check counts request spans against
//! completed requests).

use std::collections::{HashMap, HashSet};
use std::io::Write as _;
use std::path::Path;

use crate::event::TraceEvent;
use crate::json::Json;

/// The simulated machine's process id in the trace.
const PID: f64 = 1.0;

/// A fully assembled trace, ready to serialize.
#[derive(Debug, Clone)]
pub struct PerfettoTrace {
    events: Vec<Json>,
}

/// `tid` of a core's thread track (tid 0 is reserved by some viewers).
fn tid_of(core: u32) -> f64 {
    f64::from(core) + 1.0
}

fn base(name: &str, cat: &str, ph: &str, ts: f64, tid: f64) -> Vec<(String, Json)> {
    vec![
        ("name".into(), Json::str(name)),
        ("cat".into(), Json::str(cat)),
        ("ph".into(), Json::str(ph)),
        ("ts".into(), Json::Num(ts)),
        ("pid".into(), Json::Num(PID)),
        ("tid".into(), Json::Num(tid)),
    ]
}

fn with_args(mut members: Vec<(String, Json)>, args: Vec<(String, Json)>) -> Json {
    members.push(("args".into(), Json::Obj(args)));
    Json::Obj(members)
}

/// Async events additionally carry the request id.
fn with_id(mut members: Vec<(String, Json)>, rid: u64) -> Vec<(String, Json)> {
    members.push(("id".into(), Json::str(format!("{rid:#x}"))));
    members
}

impl PerfettoTrace {
    /// Wraps pre-built trace-event objects (e.g. the span documents
    /// assembled by rbv-trace) so they share this exporter's document
    /// envelope, serializer, and writer.
    pub fn from_raw_events(events: Vec<Json>) -> PerfettoTrace {
        PerfettoTrace { events }
    }

    /// Assembles a trace from engine events (in emission order) for a
    /// machine with `cores` cores.
    pub fn from_events(events: &[TraceEvent], cores: usize) -> PerfettoTrace {
        let mut out = Vec::with_capacity(events.len() + cores + 2);

        // Track-naming metadata.
        out.push(with_args(
            base("process_name", "__metadata", "M", 0.0, 0.0),
            vec![("name".into(), Json::str("rbv simulated machine"))],
        ));
        for core in 0..cores as u32 {
            out.push(with_args(
                base("thread_name", "__metadata", "M", 0.0, tid_of(core)),
                vec![("name".into(), Json::str(format!("core {core}")))],
            ));
        }

        // Only completed requests get async request spans.
        let finished: HashSet<u64> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::RequestEnd { rid, .. } => Some(*rid),
                _ => None,
            })
            .collect();

        let mut open_slices: HashMap<u32, (u64, String)> = HashMap::new();
        let mut end_ts = 0.0f64;

        for event in events {
            let ts = event.ts().as_micros_f64();
            end_ts = end_ts.max(ts);
            match event {
                TraceEvent::RequestBegin {
                    rid, app, class, ..
                } => {
                    if finished.contains(rid) {
                        out.push(with_args(
                            with_id(
                                base(
                                    &format!("{app} {class} #{rid}"),
                                    "request",
                                    "b",
                                    ts,
                                    tid_of(0),
                                ),
                                *rid,
                            ),
                            vec![
                                ("app".into(), Json::str(app.clone())),
                                ("class".into(), Json::str(class.clone())),
                            ],
                        ));
                    }
                }
                TraceEvent::RequestEnd { rid, .. } => {
                    out.push(Json::Obj(with_id(
                        base(&format!("request #{rid}"), "request", "e", ts, tid_of(0)),
                        *rid,
                    )));
                }
                TraceEvent::SliceBegin {
                    core,
                    rid,
                    stage,
                    component,
                    ..
                } => {
                    let name = format!("req {rid} {component} s{stage}");
                    out.push(with_args(
                        base(&name, "exec", "B", ts, tid_of(*core)),
                        vec![
                            ("rid".into(), Json::Num(*rid as f64)),
                            ("stage".into(), Json::Num(f64::from(*stage))),
                        ],
                    ));
                    if finished.contains(rid) {
                        out.push(Json::Obj(with_id(
                            base(&name, "request_exec", "b", ts, tid_of(*core)),
                            *rid,
                        )));
                    }
                    open_slices.insert(*core, (*rid, name));
                }
                TraceEvent::SliceEnd { core, rid, .. } => {
                    if let Some((open_rid, name)) = open_slices.remove(core) {
                        debug_assert_eq!(open_rid, *rid, "slice nesting per core");
                        out.push(Json::Obj(base(&name, "exec", "E", ts, tid_of(*core))));
                        if finished.contains(rid) {
                            out.push(Json::Obj(with_id(
                                base(&name, "request_exec", "e", ts, tid_of(*core)),
                                *rid,
                            )));
                        }
                    }
                }
                TraceEvent::ContextSwitch {
                    core, from, reason, ..
                } => {
                    out.push(with_args(
                        base("context_switch", "sched", "i", ts, tid_of(*core)),
                        vec![
                            ("from".into(), Json::Num(*from as f64)),
                            ("reason".into(), Json::str(reason.label())),
                        ],
                    ));
                }
                TraceEvent::SamplingInstant {
                    core,
                    rid,
                    origin,
                    syscall,
                    cycles,
                    instructions,
                    l2_refs,
                    l2_misses,
                    ..
                } => {
                    let mut args = vec![
                        ("rid".into(), Json::Num(*rid as f64)),
                        ("origin".into(), Json::str(origin.label())),
                        ("cycles".into(), Json::Num(*cycles)),
                        ("instructions".into(), Json::Num(*instructions)),
                        ("l2_refs".into(), Json::Num(*l2_refs)),
                        ("l2_misses".into(), Json::Num(*l2_misses)),
                    ];
                    if let Some(name) = syscall {
                        args.push(("syscall".into(), Json::str(name.clone())));
                    }
                    out.push(with_args(
                        base("sample", "sampling", "i", ts, tid_of(*core)),
                        args,
                    ));
                }
                TraceEvent::SyscallEntry {
                    core, rid, name, ..
                } => {
                    out.push(with_args(
                        base(
                            &format!("syscall {name}"),
                            "syscall",
                            "i",
                            ts,
                            tid_of(*core),
                        ),
                        vec![("rid".into(), Json::Num(*rid as f64))],
                    ));
                }
                TraceEvent::ContentionEasing {
                    core,
                    displaced,
                    chosen,
                    ..
                } => {
                    out.push(with_args(
                        base("contention_easing", "sched", "i", ts, tid_of(*core)),
                        vec![
                            ("displaced".into(), Json::Num(*displaced as f64)),
                            ("chosen".into(), Json::Num(*chosen as f64)),
                        ],
                    ));
                }
                TraceEvent::Migration {
                    rid,
                    from_core,
                    to_core,
                    ..
                } => {
                    out.push(with_args(
                        base("migration", "sched", "i", ts, tid_of(*to_core)),
                        vec![
                            ("rid".into(), Json::Num(*rid as f64)),
                            ("from_core".into(), Json::Num(f64::from(*from_core))),
                            ("to_core".into(), Json::Num(f64::from(*to_core))),
                        ],
                    ));
                }
                TraceEvent::L2Pressure { high_cores, .. } => {
                    out.push(with_args(
                        base("high_usage_cores", "l2", "C", ts, 0.0),
                        vec![("cores".into(), Json::Num(f64::from(*high_cores)))],
                    ));
                }
                TraceEvent::SampleLost { core, .. } => {
                    out.push(with_args(
                        base("sample_lost", "fault", "i", ts, tid_of(*core)),
                        vec![],
                    ));
                }
                TraceEvent::LowConfidenceSample {
                    core, rid, reason, ..
                } => {
                    out.push(with_args(
                        base("low_confidence_sample", "fault", "i", ts, tid_of(*core)),
                        vec![
                            ("rid".into(), Json::Num(*rid as f64)),
                            ("reason".into(), Json::str(reason.clone())),
                        ],
                    ));
                }
                TraceEvent::SamplingStarved { core, until, .. } => {
                    out.push(with_args(
                        base("sampling_starved", "fault", "i", ts, tid_of(*core)),
                        vec![("until_us".into(), Json::Num(until.as_micros_f64()))],
                    ));
                }
                TraceEvent::QueueEnter {
                    rid,
                    queue,
                    attempt,
                    ..
                } => {
                    out.push(with_args(
                        base("queue_enter", "overload", "i", ts, tid_of(*queue)),
                        vec![
                            ("rid".into(), Json::Num(*rid as f64)),
                            ("queue".into(), Json::Num(f64::from(*queue))),
                            ("attempt".into(), Json::Num(f64::from(*attempt))),
                        ],
                    ));
                }
                TraceEvent::AdmissionRejected {
                    rid, core, attempt, ..
                } => {
                    out.push(with_args(
                        base("admission_rejected", "overload", "i", ts, tid_of(*core)),
                        vec![
                            ("rid".into(), Json::Num(*rid as f64)),
                            ("attempt".into(), Json::Num(f64::from(*attempt))),
                        ],
                    ));
                }
                TraceEvent::RetryScheduled {
                    rid,
                    attempt,
                    backoff,
                    client,
                    ..
                } => {
                    out.push(with_args(
                        base("retry_scheduled", "overload", "i", ts, tid_of(0)),
                        vec![
                            ("rid".into(), Json::Num(*rid as f64)),
                            ("attempt".into(), Json::Num(f64::from(*attempt))),
                            ("backoff_us".into(), Json::Num(backoff.as_micros_f64())),
                            ("client".into(), Json::Bool(*client)),
                        ],
                    ));
                }
                TraceEvent::RequestFailed { rid, reason, .. } => {
                    out.push(with_args(
                        base("request_failed", "overload", "i", ts, tid_of(0)),
                        vec![
                            ("rid".into(), Json::Num(*rid as f64)),
                            ("reason".into(), Json::str(reason.clone())),
                        ],
                    ));
                }
                TraceEvent::EasingGate { engaged, error, .. } => {
                    out.push(with_args(
                        base("easing_gate", "sched", "i", ts, tid_of(0)),
                        vec![
                            ("engaged".into(), Json::Bool(*engaged)),
                            ("error".into(), Json::Num(*error)),
                        ],
                    ));
                }
                TraceEvent::GovernorAdjust {
                    action,
                    scale,
                    overhead_frac,
                    budget_frac,
                    ..
                } => {
                    out.push(with_args(
                        base("governor_adjust", "guard", "i", ts, tid_of(0)),
                        vec![
                            ("action".into(), Json::str(action.clone())),
                            ("scale".into(), Json::Num(*scale)),
                            ("overhead_frac".into(), Json::Num(*overhead_frac)),
                            ("budget_frac".into(), Json::Num(*budget_frac)),
                        ],
                    ));
                }
                TraceEvent::HealthTransition {
                    from, to, score, ..
                } => {
                    out.push(with_args(
                        base("health_transition", "guard", "i", ts, tid_of(0)),
                        vec![
                            ("from".into(), Json::str(from.clone())),
                            ("to".into(), Json::str(to.clone())),
                            ("score".into(), Json::Num(*score)),
                        ],
                    ));
                }
                TraceEvent::InvariantViolation {
                    invariant, detail, ..
                } => {
                    out.push(with_args(
                        base("invariant_violation", "guard", "i", ts, tid_of(0)),
                        vec![
                            ("invariant".into(), Json::str(invariant.clone())),
                            ("detail".into(), Json::str(detail.clone())),
                        ],
                    ));
                }
                TraceEvent::CampaignShard {
                    shard,
                    epoch,
                    requests,
                    drifted,
                    ..
                } => {
                    out.push(with_args(
                        base("campaign_shard", "campaign", "i", ts, tid_of(0)),
                        vec![
                            ("shard".into(), Json::str(shard.clone())),
                            ("epoch".into(), Json::Num(f64::from(*epoch))),
                            ("requests".into(), Json::Num(*requests as f64)),
                            ("drifted".into(), Json::Bool(*drifted)),
                        ],
                    ));
                }
                TraceEvent::CampaignMerge {
                    app, epoch, shards, ..
                } => {
                    out.push(with_args(
                        base("campaign_merge", "campaign", "i", ts, tid_of(0)),
                        vec![
                            ("app".into(), Json::str(app.clone())),
                            ("epoch".into(), Json::Num(f64::from(*epoch))),
                            ("shards".into(), Json::Num(*shards as f64)),
                        ],
                    ));
                }
                TraceEvent::DvfsTransition {
                    core,
                    from_pstate,
                    to_pstate,
                    ratio_milli,
                    ..
                } => {
                    out.push(with_args(
                        base("dvfs_transition", "power", "i", ts, tid_of(*core)),
                        vec![
                            ("from_pstate".into(), Json::Num(f64::from(*from_pstate))),
                            ("to_pstate".into(), Json::Num(f64::from(*to_pstate))),
                            ("ratio_milli".into(), Json::Num(f64::from(*ratio_milli))),
                        ],
                    ));
                }
                TraceEvent::ThermalThrottle {
                    core,
                    engaged,
                    temp_milli_c,
                    ..
                } => {
                    out.push(with_args(
                        base("thermal_throttle", "power", "i", ts, tid_of(*core)),
                        vec![
                            ("engaged".into(), Json::Bool(*engaged)),
                            ("temp_milli_c".into(), Json::Num(*temp_milli_c as f64)),
                        ],
                    ));
                }
            }
        }

        // Close slices still open when the trace ends so every track's
        // B/E events balance.
        let mut dangling: Vec<(u32, (u64, String))> = open_slices.into_iter().collect();
        dangling.sort_by_key(|(core, _)| *core);
        for (core, (rid, name)) in dangling {
            out.push(Json::Obj(base(&name, "exec", "E", end_ts, tid_of(core))));
            debug_assert!(
                !finished.contains(&rid),
                "completed requests close their own slices"
            );
        }

        PerfettoTrace { events: out }
    }

    /// Number of trace-event objects (including metadata).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The full document: `{"traceEvents": [...], "displayTimeUnit": "ms"}`.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("traceEvents".into(), Json::Arr(self.events.clone())),
            ("displayTimeUnit".into(), Json::str("ms")),
        ])
    }

    /// Serializes the document compactly.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string_compact()
    }

    /// Writes the document to `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-creation and write errors.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        let mut file = std::fs::File::create(path)?;
        file.write_all(self.to_json_string().as_bytes())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{SampleOrigin, SwitchReason};
    use rbv_sim::Cycles;

    /// A tiny synthetic run: request 1 completes, request 2 does not.
    fn synthetic_events() -> Vec<TraceEvent> {
        let t = |us: u64| Cycles::from_micros(us);
        vec![
            TraceEvent::RequestBegin {
                ts: t(0),
                rid: 1,
                app: "TPC-C".into(),
                class: "NewOrder".into(),
            },
            TraceEvent::SliceBegin {
                ts: t(0),
                core: 0,
                rid: 1,
                stage: 0,
                component: "standalone".into(),
            },
            TraceEvent::RequestBegin {
                ts: t(1),
                rid: 2,
                app: "TPC-C".into(),
                class: "Payment".into(),
            },
            TraceEvent::SliceBegin {
                ts: t(1),
                core: 1,
                rid: 2,
                stage: 0,
                component: "standalone".into(),
            },
            TraceEvent::SyscallEntry {
                ts: t(2),
                core: 0,
                rid: 1,
                name: "read".into(),
            },
            TraceEvent::SamplingInstant {
                ts: t(2),
                core: 0,
                rid: 1,
                origin: SampleOrigin::InKernel,
                syscall: Some("read".into()),
                cycles: 6000.0,
                instructions: 3000.0,
                l2_refs: 10.0,
                l2_misses: 2.0,
            },
            TraceEvent::ContextSwitch {
                ts: t(3),
                core: 0,
                from: 1,
                reason: SwitchReason::StageEnd,
            },
            TraceEvent::SliceEnd {
                ts: t(3),
                core: 0,
                rid: 1,
            },
            TraceEvent::RequestEnd { ts: t(3), rid: 1 },
            TraceEvent::L2Pressure {
                ts: t(3),
                high_cores: 1,
            },
            // Request 2's slice stays open: the run stopped here.
        ]
    }

    fn trace_events(doc: &Json) -> &[Json] {
        doc.get("traceEvents").unwrap().as_array().unwrap()
    }

    #[test]
    fn document_round_trips_through_the_parser() {
        let trace = PerfettoTrace::from_events(&synthetic_events(), 2);
        let text = trace.to_json_string();
        let parsed = Json::parse(&text).expect("valid JSON");
        assert_eq!(parsed.get("displayTimeUnit").unwrap().as_str(), Some("ms"));
        assert!(!trace_events(&parsed).is_empty());
    }

    #[test]
    fn duration_events_balance_per_track() {
        let trace = PerfettoTrace::from_events(&synthetic_events(), 2);
        let doc = trace.to_json();
        let mut depth: HashMap<i64, i64> = HashMap::new();
        for e in trace_events(&doc) {
            let tid = e.get("tid").unwrap().as_f64().unwrap() as i64;
            match e.get("ph").unwrap().as_str().unwrap() {
                "B" => *depth.entry(tid).or_insert(0) += 1,
                "E" => {
                    let d = depth.entry(tid).or_insert(0);
                    *d -= 1;
                    assert!(*d >= 0, "E without B on tid {tid}");
                }
                _ => {}
            }
        }
        assert!(depth.values().all(|&d| d == 0), "unbalanced: {depth:?}");
    }

    #[test]
    fn request_spans_cover_only_completed_requests() {
        let trace = PerfettoTrace::from_events(&synthetic_events(), 2);
        let doc = trace.to_json();
        let spans: Vec<&Json> = trace_events(&doc)
            .iter()
            .filter(|e| {
                e.get("cat").unwrap().as_str() == Some("request")
                    && e.get("ph").unwrap().as_str() == Some("b")
            })
            .collect();
        assert_eq!(spans.len(), 1, "only request 1 completed");
        assert_eq!(spans[0].get("id").unwrap().as_str(), Some("0x1"));
        // Its nested exec sub-span is present and balanced.
        let nested: Vec<&str> = trace_events(&doc)
            .iter()
            .filter(|e| e.get("cat").unwrap().as_str() == Some("request_exec"))
            .map(|e| e.get("ph").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(nested, vec!["b", "e"]);
    }

    #[test]
    fn timestamps_are_monotone_per_track() {
        let trace = PerfettoTrace::from_events(&synthetic_events(), 2);
        let doc = trace.to_json();
        let mut last: HashMap<i64, f64> = HashMap::new();
        for e in trace_events(&doc) {
            let tid = e.get("tid").unwrap().as_f64().unwrap() as i64;
            let ts = e.get("ts").unwrap().as_f64().unwrap();
            let prev = last.insert(tid, ts).unwrap_or(f64::NEG_INFINITY);
            assert!(ts >= prev, "tid {tid} went backwards: {prev} -> {ts}");
        }
    }

    #[test]
    fn dangling_slices_close_at_the_final_timestamp() {
        let trace = PerfettoTrace::from_events(&synthetic_events(), 2);
        let doc = trace.to_json();
        let closes: Vec<&Json> = trace_events(&doc)
            .iter()
            .filter(|e| {
                e.get("ph").unwrap().as_str() == Some("E")
                    && e.get("tid").unwrap().as_f64() == Some(2.0)
            })
            .collect();
        assert_eq!(closes.len(), 1);
        assert_eq!(closes[0].get("ts").unwrap().as_f64(), Some(3.0));
    }

    #[test]
    fn counter_and_instant_events_survive_export() {
        let trace = PerfettoTrace::from_events(&synthetic_events(), 2);
        let doc = trace.to_json();
        let phases: Vec<&str> = trace_events(&doc)
            .iter()
            .map(|e| e.get("ph").unwrap().as_str().unwrap())
            .collect();
        assert!(phases.contains(&"C"));
        assert!(phases.contains(&"i"));
        assert!(phases.contains(&"M"));
        let sample = trace_events(&doc)
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("sample"))
            .unwrap();
        let args = sample.get("args").unwrap();
        assert_eq!(args.get("cycles").unwrap().as_f64(), Some(6000.0));
        assert_eq!(args.get("syscall").unwrap().as_str(), Some("read"));
    }

    /// The overload rungs added below `stock` reach the exporter through
    /// the same string-label path as the original three rungs.
    #[test]
    fn health_transitions_carry_overload_rung_labels() {
        let events = vec![
            TraceEvent::HealthTransition {
                ts: Cycles::from_micros(1),
                from: "stock".into(),
                to: "shed".into(),
                score: 0.3,
            },
            TraceEvent::HealthTransition {
                ts: Cycles::from_micros(2),
                from: "shed".into(),
                to: "brownout".into(),
                score: 0.1,
            },
        ];
        let doc = PerfettoTrace::from_events(&events, 1).to_json();
        let transitions: Vec<&Json> = trace_events(&doc)
            .iter()
            .filter(|e| e.get("name").unwrap().as_str() == Some("health_transition"))
            .collect();
        assert_eq!(transitions.len(), 2);
        let pair = |e: &Json| {
            let args = e.get("args").unwrap();
            (
                args.get("from").unwrap().as_str().unwrap().to_string(),
                args.get("to").unwrap().as_str().unwrap().to_string(),
            )
        };
        assert_eq!(pair(transitions[0]), ("stock".into(), "shed".into()));
        assert_eq!(pair(transitions[1]), ("shed".into(), "brownout".into()));
        assert_eq!(
            transitions[0].get("cat").unwrap().as_str(),
            Some("guard"),
            "ladder moves stay on the guard track"
        );
    }

    #[test]
    fn power_events_export_on_their_core_track() {
        let events = vec![
            TraceEvent::DvfsTransition {
                ts: Cycles::from_micros(1),
                core: 1,
                from_pstate: 0,
                to_pstate: 2,
                ratio_milli: 800,
            },
            TraceEvent::ThermalThrottle {
                ts: Cycles::from_micros(2),
                core: 1,
                engaged: true,
                temp_milli_c: 95_200,
            },
        ];
        let doc = PerfettoTrace::from_events(&events, 2).to_json();
        let powered: Vec<&Json> = trace_events(&doc)
            .iter()
            .filter(|e| e.get("cat").unwrap().as_str() == Some("power"))
            .collect();
        assert_eq!(powered.len(), 2);
        assert_eq!(
            powered[0].get("name").unwrap().as_str(),
            Some("dvfs_transition")
        );
        let args = powered[0].get("args").unwrap();
        assert_eq!(args.get("to_pstate").unwrap().as_f64(), Some(2.0));
        assert_eq!(args.get("ratio_milli").unwrap().as_f64(), Some(800.0));
        let throttle = powered[1];
        assert_eq!(
            throttle.get("name").unwrap().as_str(),
            Some("thermal_throttle")
        );
        assert_eq!(
            throttle.get("args").unwrap().get("engaged"),
            Some(&Json::Bool(true))
        );
        assert_eq!(
            powered[0].get("tid"),
            powered[1].get("tid"),
            "both land on core 1's track"
        );
    }
}
