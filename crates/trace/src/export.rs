//! Perfetto span export: retained [`SpanRecord`]s rendered as async
//! request spans with per-attempt sub-spans and flow arrows linking the
//! retry chain.
//!
//! Each serve shard becomes its own process (`pid` = shard + 1) so a
//! multi-shard run loads as side-by-side tracks; within a shard every
//! request is one async track (`id` = request id) holding:
//!
//! * the end-to-end client-visible span (`cat` `"request"`, with the
//!   stage decomposition in `args`);
//! * one `"attempt"` sub-span per client attempt, bounded by the retry
//!   and resumption instants;
//! * a flow arrow (`ph` `"s"` → `"f"`) from each abandoned attempt's
//!   retry instant to the next attempt's first queue entry, so the
//!   viewer draws the causal chain across the backoff gap.

use rbv_sim::Cycles;
use rbv_telemetry::{Json, PerfettoTrace};

use crate::span::SpanRecord;

/// One async/flow trace-event object's members (`ts` in cycles), in the
/// fixed order both span exporters serialize; callers append `args` or
/// `bp`.
pub(crate) fn event(
    name: &str,
    cat: &str,
    ph: &str,
    ts: u64,
    pid: f64,
    tid: f64,
    id: &str,
) -> Vec<(String, Json)> {
    vec![
        ("name".into(), Json::str(name)),
        ("cat".into(), Json::str(cat)),
        ("ph".into(), Json::str(ph)),
        ("ts".into(), Json::Num(Cycles::new(ts).as_micros_f64())),
        ("pid".into(), Json::Num(pid)),
        ("tid".into(), Json::Num(tid)),
        ("id".into(), Json::str(id)),
    ]
}

/// The `process_name` metadata event labelling process `pid`.
pub(crate) fn process_name(pid: f64, name: String) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::str("process_name")),
        ("cat".into(), Json::str("__metadata")),
        ("ph".into(), Json::str("M")),
        ("ts".into(), Json::Num(0.0)),
        ("pid".into(), Json::Num(pid)),
        ("tid".into(), Json::Num(0.0)),
        (
            "args".into(),
            Json::Obj(vec![("name".into(), Json::str(name))]),
        ),
    ])
}

/// Renders retained spans — one `(shard, spans)` pair per serve shard,
/// in shard order — as a Perfetto trace.
pub fn spans_to_perfetto(shards: &[(u32, Vec<SpanRecord>)]) -> PerfettoTrace {
    let mut out = Vec::new();
    for (shard, spans) in shards {
        let pid = f64::from(*shard) + 1.0;
        out.push(process_name(pid, format!("serve shard {shard}")));
        for span in spans {
            let id = format!("{:#x}", span.rid);
            let name = format!("req #{}", span.rid);
            let mut begin = event(&name, "request", "b", span.arrived, pid, 1.0, &id);
            begin.push((
                "args".into(),
                Json::Obj(vec![
                    ("completed".into(), Json::Bool(span.completed)),
                    (
                        "queue_us".into(),
                        Json::Num(Cycles::new(span.queue).as_micros_f64()),
                    ),
                    (
                        "service_us".into(),
                        Json::Num(Cycles::new(span.service).as_micros_f64()),
                    ),
                    (
                        "backoff_us".into(),
                        Json::Num(Cycles::new(span.backoff).as_micros_f64()),
                    ),
                    (
                        "other_us".into(),
                        Json::Num(Cycles::new(span.other).as_micros_f64()),
                    ),
                    (
                        "attempts".into(),
                        Json::Num(span.attempts.len() as f64 + 1.0),
                    ),
                ]),
            ));
            out.push(Json::Obj(begin));
            // Per-attempt sub-spans: attempt g runs from its resumption
            // (or first arrival) to its abandonment (or the finish).
            let attempts = span.attempts.len();
            for g in 0..=attempts {
                let start = if g == 0 {
                    span.arrived
                } else {
                    span.attempts[g - 1].1
                };
                let end = if g < attempts {
                    span.attempts[g].0
                } else {
                    span.finished
                };
                out.push(Json::Obj(event(
                    &format!("attempt {g}"),
                    "request_attempt",
                    "b",
                    start,
                    pid,
                    1.0,
                    &id,
                )));
                out.push(Json::Obj(event(
                    &format!("attempt {g}"),
                    "request_attempt",
                    "e",
                    end,
                    pid,
                    1.0,
                    &id,
                )));
            }
            // Flow arrows across each backoff gap.
            for (g, &(retry_ts, resume_ts)) in span.attempts.iter().enumerate() {
                let flow_id = format!("{:#x}.{g}", span.rid);
                out.push(Json::Obj(event(
                    "retry",
                    "retry_flow",
                    "s",
                    retry_ts,
                    pid,
                    1.0,
                    &flow_id,
                )));
                let mut finish = event("retry", "retry_flow", "f", resume_ts, pid, 1.0, &flow_id);
                finish.push(("bp".into(), Json::str("e")));
                out.push(Json::Obj(finish));
            }
            out.push(Json::Obj(event(
                &name,
                "request",
                "e",
                span.finished,
                pid,
                1.0,
                &id,
            )));
        }
    }
    PerfettoTrace::from_raw_events(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn sample_shards() -> Vec<(u32, Vec<SpanRecord>)> {
        vec![
            (
                0,
                vec![SpanRecord {
                    rid: 1,
                    arrived: 0,
                    finished: 900,
                    completed: true,
                    queue: 550,
                    service: 150,
                    backoff: 200,
                    other: 0,
                    attempts: vec![(500, 700)],
                }],
            ),
            (
                1,
                vec![SpanRecord {
                    rid: 1,
                    arrived: 30,
                    finished: 430,
                    completed: false,
                    queue: 400,
                    service: 0,
                    backoff: 0,
                    other: 0,
                    attempts: vec![],
                }],
            ),
        ]
    }

    fn events(doc: &Json) -> &[Json] {
        doc.get("traceEvents").unwrap().as_array().unwrap()
    }

    #[test]
    fn export_round_trips_through_the_parser() {
        let trace = spans_to_perfetto(&sample_shards());
        let text = trace.to_json_string();
        let parsed = Json::parse(&text).expect("valid JSON");
        assert!(!events(&parsed).is_empty());
        assert_eq!(parsed.get("displayTimeUnit").unwrap().as_str(), Some("ms"));
    }

    #[test]
    fn async_spans_balance_per_pid_and_id() {
        let doc = spans_to_perfetto(&sample_shards()).to_json();
        let mut depth: HashMap<(i64, String), i64> = HashMap::new();
        for e in events(&doc) {
            let ph = e.get("ph").unwrap().as_str().unwrap();
            if ph != "b" && ph != "e" {
                continue;
            }
            let key = (
                e.get("pid").unwrap().as_f64().unwrap() as i64,
                e.get("id").unwrap().as_str().unwrap().to_string(),
            );
            *depth.entry(key).or_insert(0) += if ph == "b" { 1 } else { -1 };
        }
        assert!(depth.values().all(|&d| d == 0), "unbalanced: {depth:?}");
    }

    #[test]
    fn flow_arrows_pair_start_and_finish() {
        let doc = spans_to_perfetto(&sample_shards()).to_json();
        let starts = events(&doc)
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("s"))
            .count();
        let finishes = events(&doc)
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("f"))
            .count();
        assert_eq!(starts, 1, "one retry in the sample");
        assert_eq!(starts, finishes);
    }

    #[test]
    fn shards_map_to_distinct_pids() {
        let doc = spans_to_perfetto(&sample_shards()).to_json();
        let pids: std::collections::BTreeSet<i64> = events(&doc)
            .iter()
            .map(|e| e.get("pid").unwrap().as_f64().unwrap() as i64)
            .collect();
        assert_eq!(pids.into_iter().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn attempt_subspans_cover_every_generation() {
        let doc = spans_to_perfetto(&sample_shards()).to_json();
        let attempt_begins = events(&doc)
            .iter()
            .filter(|e| {
                e.get("cat").unwrap().as_str() == Some("request_attempt")
                    && e.get("ph").unwrap().as_str() == Some("b")
            })
            .count();
        // Shard 0's request has 2 attempts; shard 1's has 1.
        assert_eq!(attempt_begins, 3);
    }
}
