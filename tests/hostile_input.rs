//! Hostile input for the decoders of bytes this repository reads back: WAL
//! records, snapshots, `meta.json` and scenario packs — and for the parsers
//! of text a client sends: XACML XML and user filter conditions.
//!
//! Seeded mutations — bit flips, truncations, splices, duplicated ranges and
//! deep nesting — of the golden store payloads
//! (`crates/durable/tests/golden/`) and the committed packs
//! (`crates/workload/packs/*.json`) go to each decoder on a thread with a
//! small stack. Every input must give an `Err` or a value that re-encodes
//! and decodes to itself; a panic fails the test and a stack overflow aborts
//! it. The seed and the number of mutants are fixed, so every run feeds the
//! same inputs. The text parsers get nesting far past their bound, on the
//! same stack and through every backend shape.

mod common;

use exacml::exacml_dsms::Schema;
use exacml::exacml_durable::record::{self, Record};
use exacml::exacml_durable::server::{decode_meta, encode_meta};
use exacml::exacml_durable::snapshot::{decode_snapshot, encode_snapshot};
use exacml::exacml_expr::{parse_expr, ExprError};
use exacml::exacml_plus::AuditEventKind;
use exacml::exacml_workload::scenario::ScenarioPack;
use exacml::exacml_xacml::{xml, XacmlError};
use exacml::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::MAX_DEPTH;
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

const SEED: u64 = 0x0BAD_5EED;
/// Mutants fed to each of the four decoders.
const MUTANTS: usize = 1_000;
/// The decoders' thread stack: small enough that unbounded recursion on
/// any input would overflow it on every host.
const STACK_BYTES: usize = 256 * 1024;

const RECORDS: &str = include_str!("../crates/durable/tests/golden/record_payloads.jsonl");
const SNAPSHOT: &str = include_str!("../crates/durable/tests/golden/snapshot_payload.json");
const META: &str = include_str!("../crates/durable/tests/golden/meta_payload.json");

fn packs() -> Vec<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/workload/packs");
    let mut paths: Vec<_> =
        std::fs::read_dir(dir).unwrap().map(|entry| entry.unwrap().path()).collect();
    paths.sort();
    paths.iter().map(|path| std::fs::read_to_string(path).unwrap()).collect()
}

/// Nesting depths for the deep-nest mutation: shallow, either side of the
/// parser's limit, and far past it.
const DEPTHS: [usize; 6] = [6, MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1, 5_000, 100_000];

/// Splice material besides the corpus itself: values at the edges of what
/// JSON, `f64` and the decoders' types can hold.
const TOKENS: [&str; 12] = [
    "1e999",
    "-1e400",
    "-0",
    "18446744073709551616",
    "1.5",
    "[1]",
    "{}",
    "{\"a\":[]}",
    "null",
    "true",
    "\"\\ud800\"",
    "\"\\u0000\"",
];

/// One seeded mutation of `input`, with `donor` (or a [`TOKENS`] entry) as
/// splice material. Byte edits may break UTF-8; the result is read lossily,
/// as a `&str` decoder would receive it.
fn mutate(rng: &mut StdRng, input: &str, donor: &str) -> (String, &'static str) {
    let mut bytes = input.as_bytes().to_vec();
    let cut = |rng: &mut StdRng, len: usize| {
        let a = rng.gen_range(0..=len);
        let b = rng.gen_range(0..=len);
        (a.min(b), a.max(b))
    };
    let kind = match rng.gen_range(0..5u32) {
        0 => {
            for _ in 0..rng.gen_range(1..=4usize) {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] ^= 1 << rng.gen_range(0..8u32);
            }
            "flip"
        }
        1 => {
            bytes.truncate(rng.gen_range(0..bytes.len()));
            "truncate"
        }
        2 => {
            let material = if rng.gen_bool(0.5) {
                let (from, to) = cut(rng, donor.len());
                &donor.as_bytes()[from..to]
            } else {
                TOKENS[rng.gen_range(0..TOKENS.len())].as_bytes()
            };
            // Overwrite the bare scalar (number or literal) around a random
            // byte, if there is one, so the result often still parses and
            // reaches the decoder proper.
            let scalar = |b: &u8| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'+' | b'-');
            let at = rng.gen_range(0..=bytes.len());
            let start = bytes[..at].iter().rposition(|b| !scalar(b)).map_or(0, |i| i + 1);
            let end = bytes[at..].iter().position(|b| !scalar(b)).map_or(bytes.len(), |i| at + i);
            bytes.splice(start..end, material.iter().copied());
            "splice"
        }
        3 => {
            let (a, b) = cut(rng, bytes.len());
            let copy = bytes[a..b].to_vec();
            bytes.splice(b..b, copy);
            "duplicate"
        }
        _ => {
            let depth = DEPTHS[rng.gen_range(0..DEPTHS.len())];
            let (open, close) = if rng.gen_bool(0.5) { ("[", "]") } else { ("{\"a\":", "}") };
            let closed = rng.gen_bool(0.5);
            let nest = format!(
                "{}0{}",
                open.repeat(depth),
                if closed { close.repeat(depth) } else { String::new() }
            );
            let at = rng.gen_range(0..=bytes.len());
            bytes.splice(at..at, nest.bytes());
            "deep-nest"
        }
    };
    (String::from_utf8_lossy(&bytes).into_owned(), kind)
}

/// The property: `input` is refused (`Ok(false)`), or it decodes to a value
/// that re-encodes to text decoding to that same value (`Ok(true)`).
fn refused_or_round_trips<T: PartialEq + Debug>(
    input: &str,
    decode: impl Fn(&str) -> Result<T, String>,
    encode: impl Fn(&T) -> Result<String, String>,
) -> Result<bool, String> {
    let Ok(value) = decode(input) else { return Ok(false) };
    let encoded = encode(&value).map_err(|e| format!("accepted, but does not re-encode: {e}"))?;
    match decode(&encoded) {
        Ok(again) if again == value => Ok(true),
        Ok(again) => Err(format!("re-encoding decodes to {again:?}, not {value:?}")),
        Err(e) => Err(format!("re-encoding {encoded} is refused: {e}")),
    }
}

fn parse(text: &str) -> Result<serde_json::Value, String> {
    serde_json::from_str(text).map_err(|e| e.to_string())
}

fn check_record(input: &str) -> Result<bool, String> {
    refused_or_round_trips(
        input,
        |text| record::decode(&parse(text)?),
        |record: &Record| record.encode(0).map_err(|e| e.to_string()),
    )
}

fn check_snapshot(input: &str) -> Result<bool, String> {
    refused_or_round_trips(
        input,
        |text| decode_snapshot(&parse(text)?),
        |snapshot| Ok(encode_snapshot(snapshot)),
    )
}

fn check_meta(input: &str) -> Result<bool, String> {
    refused_or_round_trips(
        input,
        |text| decode_meta(&parse(text)?),
        |config| Ok(encode_meta(config)),
    )
}

fn check_pack(input: &str) -> Result<bool, String> {
    refused_or_round_trips(input, ScenarioPack::from_json_str, ScenarioPack::to_json_string)
}

/// Run `f` on a thread with a [`STACK_BYTES`] stack.
fn on_small_stack<T: Send + 'static>(name: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .name(format!("hostile-{name}"))
        .stack_size(STACK_BYTES)
        .spawn(f)
        .unwrap()
        .join()
        .unwrap()
}

/// Feed `corpus` and [`MUTANTS`] seeded mutants of it to `check` on a small
/// stack, and assert the property held for all of them and that every
/// original was accepted.
fn feed(name: &'static str, corpus: Vec<String>, check: fn(&str) -> Result<bool, String>) {
    let violations = on_small_stack(name, move || {
        let mut violations = Vec::new();
        let mut run = |label: String, input: &str, must_accept: bool| match catch_unwind(
            AssertUnwindSafe(|| check(input)),
        ) {
            Ok(Ok(accepted)) if accepted || !must_accept => {}
            Ok(Ok(_)) => violations.push(format!("{label}: refused")),
            Ok(Err(violation)) => violations.push(format!("{label}: {violation}")),
            Err(_) => violations.push(format!("{label}: panicked on {input:?}")),
        };
        for (i, original) in corpus.iter().enumerate() {
            run(format!("original {i}"), original, true);
        }
        let mut rng = StdRng::seed_from_u64(SEED);
        for n in 0..MUTANTS {
            let source = &corpus[rng.gen_range(0..corpus.len())];
            let donor = &corpus[rng.gen_range(0..corpus.len())];
            let (mutant, kind) = mutate(&mut rng, source, donor);
            run(format!("mutant {n} ({kind})"), &mutant, false);
        }
        violations
    });
    assert!(
        violations.is_empty(),
        "{} {name} input(s) broke the property:\n{}",
        violations.len(),
        violations.iter().take(10).cloned().collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn hostile_wal_records_are_refused_or_round_trip() {
    feed("record", RECORDS.lines().map(str::to_string).collect(), check_record);
}

#[test]
fn hostile_snapshots_are_refused_or_round_trip() {
    feed("snapshot", vec![SNAPSHOT.trim_end().to_string()], check_snapshot);
}

#[test]
fn hostile_meta_files_are_refused_or_round_trip() {
    feed("meta", vec![META.trim_end().to_string()], check_meta);
}

#[test]
fn hostile_scenario_packs_are_refused_or_round_trip() {
    feed("pack", packs(), check_pack);
}

/// Nesting far past [`MAX_DEPTH`]: deep enough to overflow any stack a
/// parser that recursed once per level would run on.
const DEEP: usize = 100_000;

/// `inner` wrapped in `depth` levels of `open` … `close`.
fn nest(open: &str, inner: &str, close: &str, depth: usize) -> String {
    format!("{}{inner}{}", open.repeat(depth), close.repeat(depth))
}

#[test]
fn deeply_nested_xml_is_refused_by_every_xml_entry_point() {
    on_small_stack("xml", || {
        let deep = nest("<A>", "", "</A>", DEEP);
        assert!(matches!(xml::parse_document(&deep), Err(XacmlError::XmlParse { .. })));
        assert!(matches!(xml::parse_policy(&deep), Err(XacmlError::XmlParse { .. })));
        let refused = UserQuery::from_xml(&deep).unwrap_err().to_string();
        assert!(refused.contains("nest deeper than 128"), "{refused}");

        let past = nest("<A>", "", "</A>", MAX_DEPTH + 1);
        assert!(matches!(xml::parse_document(&past), Err(XacmlError::XmlParse { .. })));
        let mut element = xml::parse_document(&nest("<A>", "", "</A>", MAX_DEPTH)).unwrap();
        let mut depth = 1;
        while let Some(child) = element.children.pop() {
            (element, depth) = (child, depth + 1);
        }
        assert_eq!(depth, MAX_DEPTH);
    });
}

#[test]
fn deeply_nested_filters_are_refused_by_the_expression_parser() {
    // The text parsers share the JSON decoder's bound.
    assert_eq!(exacml::exacml_expr::MAX_DEPTH, MAX_DEPTH);
    on_small_stack("expr", || {
        for (open, close) in [("NOT ", ""), ("(", ")")] {
            let nested = |depth| nest(open, "rainrate > 5", close, depth);
            for depth in [DEEP, MAX_DEPTH + 1] {
                let refused = parse_expr(&nested(depth));
                assert!(
                    matches!(refused, Err(ExprError::TooDeep { max: MAX_DEPTH, .. })),
                    "{open}"
                );
            }
            assert!(parse_expr(&nested(MAX_DEPTH)).is_ok(), "{open}x{MAX_DEPTH} parses");
        }
        let mixed = nest("NOT (", "rainrate > 5", ")", MAX_DEPTH / 2 + 1);
        assert!(matches!(parse_expr(&mixed), Err(ExprError::TooDeep { .. })));
    });
}

/// A request whose user filter nests [`DEEP`] parentheses is refused and
/// audited on every backend shape, and the node goes on serving: the next
/// plain request of the same subject is granted.
#[test]
fn a_deeply_nested_user_filter_is_refused_and_audited_on_every_shape() {
    let (durable, _durable_store) = common::temp_store("hostile");
    let (replicated, _replicated_store) = common::temp_store("hostile");
    let shapes = [
        BackendBuilder::local().build(),
        BackendBuilder::fabric(3).build(),
        BackendBuilder::durable(durable).build(),
        BackendBuilder::replicated(3, replicated).build(),
    ];
    for backend in shapes {
        let kind = backend.backend_kind();
        backend.register_stream("weather", Schema::weather_example()).unwrap();
        let policy =
            StreamPolicyBuilder::new("p", "weather").subject("LTA").filter("rainrate > 5").build();
        backend.load_policy(policy).unwrap();

        let refused = on_small_stack("request", {
            let backend = Arc::clone(&backend);
            move || {
                let filter = nest("(", "rainrate > 10", ")", DEEP);
                let query = UserQuery::for_stream("weather").with_filter(filter);
                backend.handle_request(&Request::subscribe("LTA", "weather"), Some(&query)).err()
            }
        });
        let refused = refused.unwrap_or_else(|| panic!("{kind}: a {DEEP}-deep filter granted"));
        assert!(refused.to_string().contains("nesting deeper than 128"), "{kind}: {refused}");
        let audited = backend.audit_events_for_subject("LTA");
        let last = &audited.last().expect("the refusal is audited").event;
        assert_eq!(last.kind, AuditEventKind::Denied, "{kind}");
        assert!(last.detail.contains("nesting deeper than 128"), "{kind}: {}", last.detail);

        let granted = backend.handle_request(&Request::subscribe("LTA", "weather"), None);
        assert!(granted.is_ok(), "{kind}: the next plain request: {granted:?}");
    }
}
