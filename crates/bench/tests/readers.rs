//! The document readers on bad input. Every prefix (at a stride) and
//! seeded single-byte mutations of the committed documents, plus seeded
//! value-level mutations of their parsed trees, go through `Json::parse`,
//! `RunLedger::from_json`, `SpanSummary::from_json` and
//! `Warehouse::from_json`. Each reader must return `Ok` or `Err`; none
//! may panic. Every quantile sketch in the corpus is also mutated into
//! each shape no sketch serializes to (a negative or fractional count,
//! buckets and tails that miss `count`, `min > max`, a bucket index off
//! the layout or listed twice), and `QuantileSketch::from_json` and the
//! run-ledger reader must reject every one. The run-ledger reader must
//! also reject every change of a node's JSON type inside the per-app
//! members it holds to their writers' shapes, and the span-summary reader
//! every negative, fractional or oversized count in a traced serve
//! ledger's `trace` member.

use std::path::PathBuf;

use rbv_ledger::RunLedger;
use rbv_openloop::{serve, ServeSpec};
use rbv_par::Pool;
use rbv_sim::rng::mix64;
use rbv_telemetry::{Json, QuantileSketch, SelfProfiler};
use rbv_trace::SpanSummary;
use rbv_warehouse::{run_campaign, CampaignSpec, MixId, SchedVariant, Warehouse};
use rbv_workloads::AppId;

/// Prefix lengths are taken every `PREFIX_STRIDE` bytes (plus the last).
const PREFIX_STRIDE: usize = 13;
/// Single-byte mutations per document.
const BYTE_MUTATIONS: u64 = 400;
/// Value-level mutations per document.
const TREE_MUTATIONS: u64 = 400;

/// A document of the corpus: its name, its text, and how many of the
/// tree readers accept it unmutated (a ledger, span summary or warehouse
/// is read by its own reader only; the serve and cluster ledgers by none).
type Doc = (String, String, usize);

fn committed(name: &str, readers: usize) -> Doc {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../bench")
        .join(name);
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    (name.to_string(), text, readers)
}

/// The `rbv-serve/v1` ledger of a small traced serve run; its `trace`
/// member is what `SpanSummary::from_json` reads.
fn traced_serve() -> Doc {
    let mut spec = ServeSpec::new(AppId::WebServer, 200, 42);
    spec.overload = 2.0;
    spec.trace = true;
    let report = serve(&spec, &Pool::serial()).expect("traced serve runs");
    assert!(report.trace.is_some(), "traced serve carries a trace");
    (
        "traced serve".into(),
        report.to_json().to_string_compact(),
        1,
    )
}

/// The `rbv-warehouse/v1` document of a two-shard campaign.
fn tiny_campaign() -> Doc {
    let spec = CampaignSpec {
        label: "readers".into(),
        seed: 42,
        apps: vec![AppId::WebServer],
        seeds: 1,
        mixes: vec![MixId::Nominal],
        scheds: vec![SchedVariant::Stock],
        epochs: 2,
        day_requests: 10,
        drift: None,
    };
    let warehouse = run_campaign(
        &spec,
        &Pool::serial(),
        false,
        &mut SelfProfiler::new(),
        None,
    )
    .expect("campaign runs");
    (
        "tiny campaign".into(),
        warehouse.to_json().to_string_compact(),
        1,
    )
}

fn corpus() -> Vec<Doc> {
    vec![
        committed("baseline.json", 1),
        committed("cluster_rubis_easing_600.json", 0),
        committed("serve_web_power_thermal_2000.json", 0),
        traced_serve(),
        tiny_campaign(),
    ]
}

/// Runs every tree reader on `json`; `SpanSummary` reads the `trace`
/// member when there is one. Returns how many readers accepted it.
fn read_tree(json: &Json) -> usize {
    let spans = json.get("trace").unwrap_or(json);
    usize::from(RunLedger::from_json(json).is_ok())
        + usize::from(SpanSummary::from_json(spans).is_ok())
        + usize::from(Warehouse::from_json(json).is_ok())
}

/// Parses `text` and, when it parses, runs the tree readers on it.
fn read_text(text: &str) -> Option<usize> {
    Json::parse(text).ok().map(|json| read_tree(&json))
}

/// Bytes a mutation writes: JSON punctuation, digits, letters of the
/// literals, whitespace, and control characters.
const MUTANTS: &[u8] = b"{}[]\":,\\/0123456789-+.eEntrufalsx \n\t\x00\x01\x7f";

#[test]
fn committed_documents_are_read_whole() {
    for (name, text, readers) in corpus() {
        let accepted = read_text(&text).unwrap_or_else(|| panic!("{name} parses"));
        assert_eq!(accepted, readers, "{name}: readers accepting it");
    }
}

#[test]
fn every_prefix_is_an_error_or_a_document() {
    for (name, text, _) in corpus() {
        let bytes = text.as_bytes();
        let mut cuts: Vec<usize> = (0..bytes.len()).step_by(PREFIX_STRIDE).collect();
        cuts.push(bytes.len() - 1);
        for cut in cuts {
            // Every document here is ASCII, so any cut is a `str`.
            let prefix = std::str::from_utf8(&bytes[..cut]).expect("ASCII document");
            if read_text(prefix).is_some() {
                assert!(
                    text[cut..].trim().is_empty(),
                    "{name}: the {cut}-byte prefix parsed"
                );
            }
        }
    }
}

#[test]
fn single_byte_mutations_never_panic() {
    for (name, text, readers) in corpus() {
        let mut accepted = 0;
        for k in 0..BYTE_MUTATIONS {
            let h = mix64(k ^ 0xB17E_F11B);
            let mut bytes = text.clone().into_bytes();
            let at = (h % bytes.len() as u64) as usize;
            if k % 4 == 3 {
                bytes.remove(at);
            } else {
                bytes[at] = MUTANTS[(mix64(h) % MUTANTS.len() as u64) as usize];
            }
            let mutated = String::from_utf8(bytes).expect("ASCII stays UTF-8");
            accepted += read_text(&mutated).unwrap_or(0);
        }
        // Some mutations (a digit for a digit) leave a readable document.
        assert!(
            readers == 0 || accepted > 0,
            "{name}: no mutation was read back"
        );
    }
}

/// Replaces the `target`-th node (pre-order) of `json` with `with`,
/// counting the nodes visited in `seen`.
fn replace_nth(json: &mut Json, target: usize, with: &Json, seen: &mut usize) {
    if *seen == target {
        *json = with.clone();
        *seen += 1;
        return;
    }
    *seen += 1;
    match json {
        Json::Arr(items) => {
            for item in items {
                replace_nth(item, target, with, seen);
            }
        }
        Json::Obj(members) => {
            for (_, value) in members {
                replace_nth(value, target, with, seen);
            }
        }
        _ => {}
    }
}

#[test]
fn value_mutations_never_panic() {
    let replacements = [
        Json::Null,
        Json::Bool(true),
        Json::Num(-1.0),
        Json::Num(0.0),
        Json::Num(1e300),
        Json::Num(0.5),
        Json::Str(String::new()),
        Json::Str("log2x32".into()),
        Json::Arr(vec![]),
        Json::Arr(vec![Json::Num(-1.0)]),
        Json::Obj(vec![]),
    ];
    for (_, text, _) in corpus() {
        let original = Json::parse(&text).expect("committed document parses");
        let mut nodes = 0;
        replace_nth(&mut original.clone(), usize::MAX, &Json::Null, &mut nodes);
        for k in 0..TREE_MUTATIONS {
            let h = mix64(k ^ 0x7EE5_0B5E);
            let mut mutated = original.clone();
            let with = &replacements[(mix64(h) % replacements.len() as u64) as usize];
            replace_nth(&mut mutated, (h % nodes as u64) as usize, with, &mut 0);
            read_tree(&mutated);
        }
    }
}

/// Pre-order paths of every node of `json`, itself first under `path`,
/// numbered as [`replace_nth`] counts them.
fn node_paths(json: &Json, path: String, out: &mut Vec<String>) {
    out.push(path.clone());
    match json {
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                node_paths(item, format!("{path}[{i}]"), out);
            }
        }
        Json::Obj(members) => {
            for (key, value) in members {
                node_paths(value, format!("{path}.{key}"), out);
            }
        }
        _ => {}
    }
}

#[test]
fn trace_member_value_mutations_never_read_back_a_count_out_of_range() {
    let (_, text, _) = traced_serve();
    let ledger = Json::parse(&text).expect("traced serve ledger parses");
    let trace = ledger.get("trace").expect("trace member").clone();
    let mut paths = Vec::new();
    node_paths(&trace, "trace".into(), &mut paths);
    let replacements = [
        Json::Null,
        Json::Bool(true),
        Json::Num(-1.0),
        Json::Num(0.0),
        Json::Num(1e300),
        Json::Num(0.5),
        Json::Str(String::new()),
        Json::Arr(vec![]),
        Json::Obj(vec![]),
    ];
    let out_of_range = [Json::Num(-1.0), Json::Num(1e300), Json::Num(0.5)];
    let mut accepted = 0;
    for k in 0..TREE_MUTATIONS {
        let h = mix64(k ^ 0x5A4E_7ACE);
        let node = (h % paths.len() as u64) as usize;
        let with = &replacements[(mix64(h) % replacements.len() as u64) as usize];
        let mut mutated = trace.clone();
        replace_nth(&mut mutated, node, with, &mut 0);
        if SpanSummary::from_json(&mutated).is_ok() {
            accepted += 1;
            // Outside the sketches (whose sums and extremes are any
            // finite number) every number the summary holds is a count.
            let path = &paths[node];
            assert!(
                path.starts_with("trace.latency_us.") || !out_of_range.contains(with),
                "{path} = {with:?} was read back"
            );
        }
    }
    eprintln!("{accepted} of {TREE_MUTATIONS} trace-member value mutations read back");
}

/// Pre-order indices of the quantile sketches in `json`.
fn sketch_nodes(json: &Json, seen: &mut usize, out: &mut Vec<usize>) {
    if json.get("layout").and_then(Json::as_str) == Some("log2x32") {
        out.push(*seen);
    }
    *seen += 1;
    match json {
        Json::Arr(items) => items.iter().for_each(|item| sketch_nodes(item, seen, out)),
        Json::Obj(members) => members
            .iter()
            .for_each(|(_, value)| sketch_nodes(value, seen, out)),
        _ => {}
    }
}

/// The `target`-th node (pre-order) of `json`.
fn nth_mut<'a>(json: &'a mut Json, target: usize, seen: &mut usize) -> Option<&'a mut Json> {
    if *seen == target {
        return Some(json);
    }
    *seen += 1;
    match json {
        Json::Arr(items) => items
            .iter_mut()
            .find_map(|item| nth_mut(item, target, seen)),
        Json::Obj(members) => members
            .iter_mut()
            .find_map(|(_, value)| nth_mut(value, target, seen)),
        _ => None,
    }
}

/// Sets `key` of the sketch object `sketch` to `value`.
fn set(sketch: &mut Json, key: &str, value: Json) {
    if let Json::Obj(members) = sketch {
        for (k, v) in members.iter_mut() {
            if k == key {
                *v = value;
                return;
            }
        }
    }
    panic!("sketch has no {key:?}");
}

/// The bucket list of the sketch object `sketch`.
fn buckets(sketch: &mut Json) -> &mut Vec<Json> {
    match sketch {
        Json::Obj(members) => match members.iter_mut().find(|(k, _)| k == "buckets") {
            Some((_, Json::Arr(items))) => items,
            _ => panic!("sketch has no bucket list"),
        },
        _ => panic!("sketch is not an object"),
    }
}

/// Every malformed variant of `sketch` this test feeds the readers.
fn sketch_mutations(sketch: &Json) -> Vec<(String, Json)> {
    let num = |key: &str| {
        sketch
            .get(key)
            .and_then(Json::as_f64)
            .expect("sketch number")
    };
    let mut out = Vec::new();
    let mut mutate = |label: String, edit: &dyn Fn(&mut Json)| {
        let mut mutated = sketch.clone();
        edit(&mut mutated);
        out.push((label, mutated));
    };
    for key in ["count", "zero", "low", "high"] {
        let v = num(key);
        mutate(format!("{key} -1"), &|s| set(s, key, Json::Num(-1.0)));
        mutate(format!("{key} + 0.5"), &|s| set(s, key, Json::Num(v + 0.5)));
        mutate(format!("{key} + 1"), &|s| set(s, key, Json::Num(v + 1.0)));
    }
    let mut probe = sketch.clone();
    if let Some(first) = buckets(&mut probe).first().cloned() {
        let pair = first.as_array().expect("bucket pair").to_vec();
        let (idx, count) = (pair[0].clone(), pair[1].as_f64().expect("bucket count"));
        let with_count = |c: f64| Json::Arr(vec![idx.clone(), Json::Num(c)]);
        for (label, c) in [("-1", -1.0), ("+ 0.5", count + 0.5), ("+ 1", count + 1.0)] {
            let bucket = with_count(c);
            mutate(format!("bucket count {label}"), &|s| {
                buckets(s)[0] = bucket.clone();
            });
        }
        mutate("bucket listed twice".into(), &|s| {
            let b = buckets(s);
            b.push(b[0].clone());
        });
        for bad in [-16_385.0, 16_384.0, 0.5] {
            let bucket = Json::Arr(vec![Json::Num(bad), Json::Num(count)]);
            mutate(format!("bucket index {bad}"), &|s| {
                buckets(s)[0] = bucket.clone();
            });
        }
    }
    if num("count") > 0.0 {
        let max = num("max");
        mutate("min > max".into(), &|s| {
            set(s, "min", Json::Num(max * 2.0 + 1.0));
        });
    }
    out
}

#[test]
fn malformed_sketches_are_rejected() {
    for (name, text, readers) in corpus() {
        let original = Json::parse(&text).expect("committed document parses");
        let mut nodes = Vec::new();
        sketch_nodes(&original, &mut 0, &mut nodes);
        assert!(!nodes.is_empty(), "{name} holds sketches");
        for node in nodes {
            let sketch = nth_mut(&mut original.clone(), node, &mut 0)
                .expect("the node exists")
                .clone();
            assert!(
                QuantileSketch::from_json(&sketch).is_ok(),
                "{name}: node {node}"
            );
            for (label, mutated) in sketch_mutations(&sketch) {
                assert!(
                    QuantileSketch::from_json(&mutated).is_err(),
                    "{name}: node {node}: {label} was read"
                );
                // The run ledger reads every sketch it holds.
                if readers == 1 && RunLedger::from_json(&original).is_ok() {
                    let mut doc = original.clone();
                    *nth_mut(&mut doc, node, &mut 0).expect("the node exists") = mutated;
                    assert!(
                        RunLedger::from_json(&doc).is_err(),
                        "{name}: node {node}: {label} was read by the ledger reader"
                    );
                }
            }
        }
    }
}

/// The per-app ledger members `AppLedger::from_json` holds to the node
/// types their writers emit.
const TYPED_MEMBERS: [&str; 6] = [
    "observer",
    "syscall_observer",
    "kernel",
    "chaos",
    "guard",
    "energy",
];

/// Nodes in the tree `json`, itself included.
fn node_count(json: &Json) -> usize {
    1 + match json {
        Json::Arr(items) => items.iter().map(node_count).sum(),
        Json::Obj(members) => members.iter().map(|(_, v)| node_count(v)).sum(),
        _ => 0,
    }
}

/// Pre-order index and node count of every [`TYPED_MEMBERS`] value.
fn typed_member_roots(json: &Json, seen: &mut usize, out: &mut Vec<(usize, usize)>) {
    *seen += 1;
    match json {
        Json::Arr(items) => items
            .iter()
            .for_each(|item| typed_member_roots(item, seen, out)),
        Json::Obj(members) => {
            for (key, value) in members {
                if TYPED_MEMBERS.contains(&key.as_str()) {
                    out.push((*seen, node_count(value)));
                }
                typed_member_roots(value, seen, out);
            }
        }
        _ => {}
    }
}

/// A node's JSON type.
fn json_type(json: &Json) -> u8 {
    match json {
        Json::Null => 0,
        Json::Bool(_) => 1,
        Json::Num(_) => 2,
        Json::Str(_) => 3,
        Json::Arr(_) => 4,
        Json::Obj(_) => 5,
    }
}

#[test]
fn type_changes_inside_typed_members_are_rejected() {
    let (_, text, _) = committed("baseline.json", 1);
    let doc = Json::parse(&text).expect("baseline parses");
    let apps = doc
        .get("apps")
        .and_then(Json::as_array)
        .expect("apps")
        .len();
    let mut roots = Vec::new();
    typed_member_roots(&doc, &mut 0, &mut roots);
    assert_eq!(roots.len(), TYPED_MEMBERS.len() * apps);
    let one_of_each = [
        Json::Null,
        Json::Bool(true),
        Json::Num(-1.0),
        Json::Str(String::new()),
        Json::Arr(vec![]),
        Json::Obj(vec![]),
    ];
    for (root, size) in roots {
        for node in root..root + size {
            let mut probe = doc.clone();
            let found = nth_mut(&mut probe, node, &mut 0).expect("the node exists");
            let ty = json_type(found);
            for with in one_of_each.iter().filter(|with| json_type(with) != ty) {
                let mut mutated = doc.clone();
                *nth_mut(&mut mutated, node, &mut 0).expect("the node exists") = with.clone();
                assert!(
                    RunLedger::from_json(&mutated).is_err(),
                    "node {node} (type {ty}) as {with:?} was accepted"
                );
            }
        }
    }
}
