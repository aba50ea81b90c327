//! The document readers on bad input. Every prefix (at a stride) and
//! seeded single-byte mutations of the committed documents, plus seeded
//! value-level mutations of their parsed trees, go through `Json::parse`,
//! `RunLedger::from_json`, `SpanSummary::from_json` and
//! `Warehouse::from_json`. Each reader must return `Ok` or `Err`; none
//! may panic.

use std::path::PathBuf;

use rbv_ledger::RunLedger;
use rbv_openloop::{serve, ServeSpec};
use rbv_par::Pool;
use rbv_sim::rng::mix64;
use rbv_telemetry::{Json, SelfProfiler};
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
