//! Golden byte-identity of the store format.
//!
//! `golden/record_payloads.jsonl`, `golden/ingest_payload.json`,
//! `golden/snapshot_payload.json` and `golden/meta_payload.json` hold the
//! exact payloads the store writes for the sample values below. Every
//! encoder must reproduce them byte for byte and every decoder must read
//! them back to the values they came from: a change to either side that
//! would alter what an existing store holds on disk fails here first. The
//! payloads were captured from the encoders of format version 2, which
//! journal one event record per control operation; `ingest_payload.json`
//! is unchanged since version 1.

use exacml_dsms::{DataType, Schema, Tuple, Value as DsmsValue};
use exacml_durable::record::{decode, decode_row, encode_ingest, GrantRecord, Payload, Record};
use exacml_durable::{
    decode_meta, decode_snapshot, encode_meta, encode_snapshot, read_snapshot, wal, write_snapshot,
    DurableConfig, DurableServer, Snapshot, StreamEntry,
};
use exacml_plus::{AuditEvent, AuditEventKind};
use serde_json::Value;
use std::path::PathBuf;

const RECORDS: &str = include_str!("golden/record_payloads.jsonl");
const INGEST: &str = include_str!("golden/ingest_payload.json");
const SNAPSHOT: &str = include_str!("golden/snapshot_payload.json");
const META: &str = include_str!("golden/meta_payload.json");
const RECOVERY_DOC: &str = include_str!("../../../docs/RECOVERY.md");

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("exacml-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const POLICY_XML: &str = "<Policy PolicyId=\"nea-weather-for-lta\">\n  <Target/>\n</Policy>";

fn grant(query_xml: Option<&str>, deployment: u64) -> GrantRecord {
    GrantRecord {
        subject: "LTA".into(),
        stream: "weather".into(),
        query_xml: query_xml.map(str::to_string),
        deployment,
        handle: format!("exacml://dsms/streams/{deployment}"),
    }
}

fn audit(sequence: u64, kind: AuditEventKind) -> AuditEvent {
    let full = kind == AuditEventKind::Granted;
    AuditEvent {
        sequence,
        timestamp_ms: 1_753_852_800_123,
        kind,
        subject: Some("LTA".into()),
        stream: Some("weather".into()),
        policy_id: full.then(|| "nea-weather-for-lta".into()),
        detail: if full { "handle exacml://dsms/streams/0".into() } else { format!("{kind}") },
    }
}

/// An event record as the journal writes it for an operation of `kind`:
/// the event with the fields that operation fills, plus its payload.
fn event(sequence: u64, kind: AuditEventKind, payload: Payload) -> Record {
    use AuditEventKind as K;
    let mut event = audit(sequence, kind);
    match kind {
        K::StreamRegistered => event.subject = None,
        K::PolicyLoaded | K::PolicyUpdated | K::PolicyRemoved => {
            event.subject = None;
            event.stream = None;
            event.policy_id = Some("nea-weather-for-lta".into());
        }
        _ => {}
    }
    Record::Event { event, payload }
}

/// An event record of every kind, with its payload — the grant with and
/// without a user query — and an ingest record; line `i` of the golden file
/// is the record journaled at sequence `i`.
fn sample_records() -> Vec<Record> {
    use AuditEventKind as K;
    let policy = || Payload::Policy(POLICY_XML.into());
    let granted = |query_xml, deployment| Payload::Grant(grant(query_xml, deployment));
    vec![
        event(0, K::StreamRegistered, Payload::Schema(Schema::weather_example())),
        event(1, K::PolicyLoaded, policy()),
        event(2, K::PolicyUpdated, policy()),
        event(3, K::PolicyRemoved, Payload::None),
        event(4, K::Granted, granted(None, 0)),
        event(5, K::Granted, granted(Some("<UserQuery Stream=\"weather\"/>"), 1)),
        event(6, K::Reused, Payload::None),
        event(7, K::Denied, Payload::None),
        event(8, K::Conflict, Payload::None),
        event(9, K::MultipleAccessBlocked, Payload::None),
        event(10, K::AccessReleased, Payload::None),
        Record::Ingest {
            stream: "weather".into(),
            rows: vec![
                vec![Value::Number(30_000.0), Value::Number(7.25), Value::Null],
                vec![Value::Bool(true), Value::String("a\"b\\c\n".into())],
            ],
        },
    ]
}

fn sample_snapshot() -> Snapshot {
    Snapshot {
        wal_horizon: 42,
        store_revision: 7,
        next_deployment_id: 12,
        next_handle_serial: 25,
        streams: vec![
            StreamEntry { name: "gps".into(), schema: Schema::gps_example() },
            StreamEntry {
                name: "weather".into(),
                schema: Schema::from_pairs([("t", DataType::Timestamp), ("ok", DataType::Bool)]),
            },
        ],
        policies: vec![POLICY_XML.into(), "<Policy PolicyId=\"q\"/>".into()],
        grants: vec![grant(None, 0), grant(Some("<UserQuery Stream=\"weather\"/>"), 11)],
        audit: vec![
            audit(1, AuditEventKind::PolicyLoaded),
            audit(2, AuditEventKind::Granted),
            audit(3, AuditEventKind::MultipleAccessBlocked),
        ],
    }
}

fn parse(payload: &str) -> Value {
    serde_json::from_str(payload).unwrap_or_else(|e| panic!("{e}: {payload}"))
}

#[test]
fn every_record_encodes_to_its_golden_payload_and_decodes_back() {
    let records = sample_records();
    let golden: Vec<&str> = RECORDS.lines().collect();
    assert_eq!(golden.len(), records.len(), "one golden line per sample record");
    for kind in AuditEventKind::ALL {
        let sampled =
            records.iter().any(|r| matches!(r, Record::Event { event, .. } if event.kind == kind));
        assert!(sampled, "no golden record of kind {kind}");
    }
    for ((seq, record), line) in (0..).zip(&records).zip(golden) {
        assert_eq!(record.encode(seq).unwrap(), line, "record {seq} ({})", record.op());
        assert_eq!(&decode(&parse(line)).unwrap(), record, "record {seq} ({})", record.op());
    }
}

/// A weather batch as sensors send it: timestamps, readings with one and
/// two decimals, integral, negative and ≥ 1e9 readings, a three- and a
/// four-decimal one, and a missing one.
fn sample_weather_batch() -> Vec<Tuple> {
    use DsmsValue::{Double as D, Int, Null, Timestamp as T};
    let schema = Schema::weather_example().shared();
    [
        [T(1_753_852_800_000), D(29.85), D(84.5), D(0.0), D(12.75), D(3.5), Int(225), D(1009.25)],
        [
            T(1_753_852_830_000),
            D(-0.25),
            D(100.0),
            D(1_234_567_890.125),
            D(0.1),
            D(-3.5),
            Int(-45),
            D(1e9),
        ],
        [T(1_753_852_860_000), D(-12.0), D(99.99), D(0.001), D(1.0625), Null, Int(0), D(-1009.9)],
    ]
    .into_iter()
    .map(|row| Tuple::new(schema.clone(), row.to_vec()).unwrap())
    .collect()
}

/// The ingest hot path (`encode_ingest`, not the generic `Record::encode`
/// that the ingest line of `record_payloads.jsonl` pins) writes the golden
/// payload, and the journal's reader gives back every cell of the batch.
#[test]
fn the_ingest_fast_path_encodes_its_golden_payload_and_decodes_back() {
    let batch = sample_weather_batch();
    let golden = INGEST.trim_end_matches('\n');
    assert_eq!(encode_ingest(42, "weather", &batch).unwrap(), golden);
    let Record::Ingest { stream, rows } = decode(&parse(golden)).unwrap() else {
        panic!("expected an ingest record");
    };
    assert_eq!(stream, "weather");
    assert_eq!(rows.len(), batch.len());
    for (row, tuple) in rows.iter().zip(&batch) {
        assert_eq!(decode_row(tuple.schema(), row).unwrap(), tuple.values());
    }
}

#[test]
fn the_snapshot_encodes_to_its_golden_payload_and_decodes_back() {
    let snapshot = sample_snapshot();
    let golden = SNAPSHOT.trim_end_matches('\n');
    assert_eq!(encode_snapshot(&snapshot), golden);
    assert_eq!(decode_snapshot(&parse(golden)).unwrap(), snapshot);

    // On disk it is the golden payload in the WAL's framing.
    let dir = temp_dir("snapshot");
    let path = dir.join("snapshot.json");
    write_snapshot(&path, &snapshot).unwrap();
    assert_eq!(std::fs::read_to_string(&path).unwrap(), wal::frame(golden));
    assert_eq!(read_snapshot(&path).unwrap(), Some(snapshot));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn meta_encodes_to_its_golden_payload_and_create_writes_it() {
    let config = DurableConfig::local();
    let golden = META.trim_end_matches('\n');
    assert_eq!(encode_meta(&config), golden);
    assert_eq!(decode_meta(&parse(golden)).unwrap(), config);

    let dir = temp_dir("meta");
    let store = dir.join("store");
    drop(DurableServer::create(&store, config.clone()).unwrap());
    let meta = std::fs::read_to_string(store.join("meta.json")).unwrap();
    assert_eq!(meta, wal::frame(golden));
    assert_eq!(DurableServer::recover(&store).unwrap().config(), &config);
    let _ = std::fs::remove_dir_all(dir);
}

/// The example WAL lines in `docs/RECOVERY.md` are real: correctly framed,
/// and byte for byte the golden records at their sequence numbers.
#[test]
fn the_recovery_doc_examples_are_golden_records() {
    let golden: Vec<&str> = RECORDS.lines().collect();
    let example = RECOVERY_DOC
        .split("`crates/durable/tests/golden.rs`):\n\n```text\n")
        .nth(1)
        .and_then(|rest| rest.split("```").next())
        .expect("RECOVERY.md has the example block");
    let lines: Vec<&str> = example.lines().collect();
    assert_eq!(lines.len(), 2);
    for line in lines {
        let payload = wal::unframe(line).unwrap_or_else(|| panic!("badly framed: {line}"));
        let seq = parse(payload).get("seq").and_then(Value::as_f64).unwrap() as usize;
        assert_eq!(payload, golden[seq]);
    }
}
