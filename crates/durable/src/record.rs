//! The WAL record vocabulary: every state-mutating operation of a data
//! server, as a JSON payload that replays deterministically.
//!
//! One record is one compact JSON object with a `"seq"` (journal sequence
//! number) and an `"op"` discriminator; the remaining fields depend on the
//! operation. Policies and user queries are journaled in their *wire*
//! forms — the XACML policy document and the Figure 4(a) user-query XML —
//! so the journal depends only on formats the system already round-trips,
//! not on Rust struct layouts. Stream schemas and audit events use the
//! workspace's `serde` encoding; ingest rows are positional JSON scalars
//! typed by the stream schema at replay time ([`decode_row`]).
//! `docs/RECOVERY.md` documents every shape with examples.
//!
//! Decoding is defensive: a record that does not match the vocabulary is
//! reported as an error string (recovery treats it like a corrupt tail)
//! rather than panicking.

use exacml_dsms::{DataType, Field, Schema, Tuple, Value as DsmsValue};
use exacml_plus::{AuditEvent, AuditEventKind};
use serde::{Content, Serialize};
use serde_json::Value;

/// A live access grant, as journaled and as carried in snapshots.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GrantRecord {
    /// The requesting subject.
    pub subject: String,
    /// The stream access was granted on.
    pub stream: String,
    /// The customised user query, in its Figure 4(a) XML form (absent when
    /// the request carried none).
    pub query_xml: Option<String>,
    /// The engine deployment id the grant minted. Replay resumes the
    /// engine's id counter here so the same deployment id — and therefore
    /// the same handle URI — is minted again.
    pub deployment: u64,
    /// The handle URI the consumer holds; replay verifies it re-minted
    /// identically.
    pub handle: String,
}

/// One journaled state-mutating operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// An input stream was registered.
    RegisterStream {
        /// The stream name.
        name: String,
        /// Its schema.
        schema: Schema,
    },
    /// A policy was loaded (journaled as its XACML document).
    LoadPolicy {
        /// The policy's XML wire form.
        xml: String,
    },
    /// A policy was removed (its query graphs withdrawn).
    RemovePolicy {
        /// The removed policy id.
        id: String,
    },
    /// A policy was replaced (the old version's graphs withdrawn).
    UpdatePolicy {
        /// The new version's XML wire form.
        xml: String,
    },
    /// An access request was granted and a query graph deployed.
    Grant(GrantRecord),
    /// A live access was explicitly released.
    Release {
        /// The releasing subject.
        subject: String,
        /// The stream released.
        stream: String,
    },
    /// An audit event, journaled verbatim so the trail survives restarts
    /// with its original timestamps and sequence numbers (replaying the
    /// operations would regenerate it with fresh ones).
    Audit(AuditEvent),
    /// A batch of source tuples pushed into a stream.
    ///
    /// Rows are journaled *positionally and untagged*: each cell is a plain
    /// JSON scalar, typed during replay by the stream's schema (see
    /// [`decode_row`]). This keeps the ingest hot path allocation-light; the
    /// trade-off is that replayed cells are schema-canonical — an integer
    /// literal sitting in a floating-point field comes back as a double.
    Ingest {
        /// The stream the batch was pushed into.
        stream: String,
        /// The raw JSON cells, decoded against the schema at replay time.
        rows: Vec<Vec<Value>>,
    },
}

impl Record {
    /// The record's `"op"` discriminator.
    #[must_use]
    pub fn op(&self) -> &'static str {
        match self {
            Record::RegisterStream { .. } => "register_stream",
            Record::LoadPolicy { .. } => "load_policy",
            Record::RemovePolicy { .. } => "remove_policy",
            Record::UpdatePolicy { .. } => "update_policy",
            Record::Grant(_) => "grant",
            Record::Release { .. } => "release",
            Record::Audit(_) => "audit",
            Record::Ingest { .. } => "ingest",
        }
    }

    fn content(&self, seq: u64) -> Content {
        let mut entries = vec![
            ("seq".to_string(), Content::U64(seq)),
            ("op".to_string(), Content::Str(self.op().to_string())),
        ];
        let mut push = |key: &str, content: Content| entries.push((key.to_string(), content));
        match self {
            Record::RegisterStream { name, schema } => {
                push("name", name.to_content());
                push("schema", schema.to_content());
            }
            Record::LoadPolicy { xml } | Record::UpdatePolicy { xml } => {
                push("xml", xml.to_content());
            }
            Record::RemovePolicy { id } => push("id", id.to_content()),
            Record::Grant(grant) => push("grant", grant.to_content()),
            Record::Release { subject, stream } => {
                push("subject", subject.to_content());
                push("stream", stream.to_content());
            }
            Record::Audit(event) => push("event", event.to_content()),
            Record::Ingest { stream, rows } => {
                push("stream", stream.to_content());
                push(
                    "rows",
                    Content::Seq(
                        rows.iter()
                            .map(|row| Content::Seq(row.iter().map(raw_cell_content).collect()))
                            .collect(),
                    ),
                );
            }
        }
        Content::Map(entries)
    }

    /// Encode the record as its JSON payload (framing — checksum and
    /// newline — is the WAL's job).
    ///
    /// # Errors
    /// Fails only when a journaled float is NaN or infinite, which JSON
    /// cannot represent.
    pub fn encode(&self, seq: u64) -> Result<String, serde_json::Error> {
        serde_json::content_to_string(&self.content(seq))
    }
}

/// A raw ingest cell (as parsed back from the journal) rendered as
/// [`Content`] for the generic record encoder.
fn raw_cell_content(cell: &Value) -> Content {
    match cell {
        Value::Null => Content::Null,
        Value::Bool(b) => Content::Bool(*b),
        Value::Number(n) => Content::F64(*n),
        Value::String(s) => Content::Str(s.clone()),
        // Rows never carry containers; encode defensively as null.
        Value::Array(_) | Value::Object(_) => Content::Null,
    }
}

fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[i..]).expect("ASCII digits"));
}

fn push_i64(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    push_u64(out, v.unsigned_abs());
}

/// The decimal digits and place count of `abs` when it is one of the short
/// fixed-point values sensors emit: below 1e9 with at most four decimals.
/// `digits / 10^places` is then exactly the decimal the shortest-round-trip
/// formatter (`{}`) prints: below 1e9 a double's neighbours are < 1e-4
/// apart, so at most one decimal of `places` digits parses back to `abs`,
/// and trying the place counts in ascending order finds the shortest.
fn fixed_point(abs: f64) -> Option<(u64, usize)> {
    if abs >= 1e9 {
        return None;
    }
    [10.0, 100.0, 1e3, 1e4].iter().zip(1..).find_map(|(&scale, places)| {
        // Both operations are correctly rounded and `digits` < 2^53, so the
        // division is the value a parser assigns to the printed decimal.
        let digits = (abs * scale).round();
        (digits / scale == abs).then_some((digits as u64, places))
    })
}

fn push_f64(out: &mut String, f: f64) -> Result<(), serde_json::Error> {
    if !f.is_finite() {
        // Delegate to the shared serializer for its canonical error.
        serde_json::content_to_string(&Content::F64(f))?;
    }
    if f == f.trunc() && f.abs() < 1e15 {
        // The common case (timestamps, counters, sensor defaults) without
        // the float formatting machinery; matches serde_json's `{f:.1}`.
        push_i64(out, f as i64);
        out.push_str(".0");
    } else if let Some((digits, places)) = fixed_point(f.abs()) {
        // Sensor readings, byte for byte what `{f}` prints (pinned by
        // `push_f64_is_byte_identical_to_display`) at a fraction of its cost.
        const POW10: [u64; 5] = [1, 10, 100, 1_000, 10_000];
        if f < 0.0 {
            out.push('-');
        }
        push_u64(out, digits / POW10[places]);
        out.push('.');
        let fraction = digits % POW10[places];
        for place in (0..places).rev() {
            out.push(char::from(b'0' + (fraction / POW10[place] % 10) as u8));
        }
    } else {
        use std::fmt::Write;
        let _ = write!(out, "{f}");
    }
    Ok(())
}

fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    // Copy escape-free runs whole. Every byte that needs escaping is ASCII,
    // so the cuts always fall on character boundaries.
    let mut run_start = 0;
    for (i, byte) in s.bytes().enumerate() {
        if byte >= 0x20 && byte != b'"' && byte != b'\\' {
            continue;
        }
        out.push_str(&s[run_start..i]);
        run_start = i + 1;
        match byte {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            control => {
                use std::fmt::Write;
                let _ = write!(out, "\\u{control:04x}");
            }
        }
    }
    out.push_str(&s[run_start..]);
    out.push('"');
}

/// Encode an ingest record straight from the tuple batch into `out`
/// (cleared first), bypassing the `Content` tree entirely — this runs once
/// per acknowledged push, concurrent with stream processing, so it is the
/// one encoder that matters for ingest throughput.
///
/// # Errors
/// Fails only when a tuple carries a NaN or infinite float.
pub fn encode_ingest_into(
    out: &mut String,
    seq: u64,
    stream: &str,
    tuples: &[Tuple],
) -> Result<(), serde_json::Error> {
    out.clear();
    let width = tuples.first().map_or(0, |t| t.values().len());
    out.reserve(48 + stream.len() + tuples.len() * (2 + 8 * width));
    out.push_str("{\"seq\":");
    push_u64(out, seq);
    out.push_str(",\"op\":\"ingest\",\"stream\":");
    push_json_string(out, stream);
    out.push_str(",\"rows\":[");
    for (i, tuple) in tuples.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, value) in tuple.values().iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            match value {
                DsmsValue::Null => out.push_str("null"),
                DsmsValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                DsmsValue::Int(v) | DsmsValue::Timestamp(v) => push_i64(out, *v),
                DsmsValue::Double(f) => push_f64(out, *f)?,
                DsmsValue::Text(s) => push_json_string(out, s),
            }
        }
        out.push(']');
    }
    out.push_str("]}");
    Ok(())
}

/// [`encode_ingest_into`] into a fresh string (tests, small paths).
///
/// # Errors
/// As [`encode_ingest_into`].
pub fn encode_ingest(
    seq: u64,
    stream: &str,
    tuples: &[Tuple],
) -> Result<String, serde_json::Error> {
    let mut out = String::new();
    encode_ingest_into(&mut out, seq, stream, tuples)?;
    Ok(out)
}

/// Decode one positional row against the stream's schema: numbers become
/// the field's declared type (`Int`, `Double` or `Timestamp`), `null` is
/// [`DsmsValue::Null`], booleans and strings map to their only homes.
/// Integer cells are exact up to ±2^53 (JSON numbers travel as `f64`),
/// far beyond any epoch-milliseconds timestamp or sensor counter.
///
/// # Errors
/// Reports arity mismatches and cells incompatible with their field type.
pub fn decode_row(schema: &Schema, cells: &[Value]) -> Result<Vec<DsmsValue>, String> {
    if cells.len() != schema.len() {
        return Err(format!(
            "row arity {} does not match schema arity {}",
            cells.len(),
            schema.len()
        ));
    }
    schema
        .fields()
        .iter()
        .zip(cells)
        .map(|(field, cell)| match (cell, field.data_type) {
            (Value::Null, _) => Ok(DsmsValue::Null),
            (Value::Number(n), DataType::Int) => Ok(DsmsValue::Int(*n as i64)),
            (Value::Number(n), DataType::Timestamp) => Ok(DsmsValue::Timestamp(*n as i64)),
            (Value::Number(n), DataType::Double) => Ok(DsmsValue::Double(*n)),
            (Value::Bool(b), DataType::Bool) => Ok(DsmsValue::Bool(*b)),
            (Value::String(s), DataType::Text) => Ok(DsmsValue::Text(s.clone())),
            (other, ty) => {
                Err(format!("cell {other:?} is incompatible with field '{}': {ty}", field.name))
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Member lookup that reports *which* field was missing.
fn field<'v>(value: &'v Value, key: &str) -> Result<&'v Value, String> {
    value.get(key).ok_or_else(|| format!("record is missing '{key}'"))
}

fn str_field(value: &Value, key: &str) -> Result<String, String> {
    field(value, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("'{key}' is not a string"))
}

/// Integers travel as JSON numbers (f64 in the vendored parser); they are
/// exact up to 2^53, far beyond any sequence or id this store mints.
fn u64_field(value: &Value, key: &str) -> Result<u64, String> {
    field(value, key)?.as_f64().map(|f| f as u64).ok_or_else(|| format!("'{key}' is not a number"))
}

fn opt_str_field(value: &Value, key: &str) -> Result<Option<String>, String> {
    match value.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::String(s)) => Ok(Some(s.clone())),
        Some(_) => Err(format!("'{key}' is neither null nor a string")),
    }
}

fn decode_data_type(name: &str) -> Result<DataType, String> {
    match name {
        "Int" => Ok(DataType::Int),
        "Double" => Ok(DataType::Double),
        "Bool" => Ok(DataType::Bool),
        "Text" => Ok(DataType::Text),
        "Timestamp" => Ok(DataType::Timestamp),
        other => Err(format!("unknown data type '{other}'")),
    }
}

/// Decode a schema from its serde encoding
/// (`{"fields":[{"name":…,"data_type":…},…]}`).
pub fn decode_schema(value: &Value) -> Result<Schema, String> {
    let fields =
        field(value, "fields")?.as_array().ok_or_else(|| "'fields' is not an array".to_string())?;
    let mut decoded = Vec::with_capacity(fields.len());
    for f in fields {
        let name = str_field(f, "name")?;
        let data_type = decode_data_type(&str_field(f, "data_type")?)?;
        decoded.push(Field::new(name, data_type));
    }
    Ok(Schema::new(decoded))
}

/// The journal's name for an audit-event kind — the serde derive's
/// unit-variant encoding (the variant name). Exhaustive on purpose: adding
/// a kind fails compilation here, forcing the decode match below (and the
/// recovery path with it) to learn the new name *before* a live server can
/// journal events an older `recover()` would choke on.
fn audit_kind_name(kind: AuditEventKind) -> &'static str {
    match kind {
        AuditEventKind::Granted => "Granted",
        AuditEventKind::Reused => "Reused",
        AuditEventKind::Denied => "Denied",
        AuditEventKind::Conflict => "Conflict",
        AuditEventKind::MultipleAccessBlocked => "MultipleAccessBlocked",
        AuditEventKind::PolicyLoaded => "PolicyLoaded",
        AuditEventKind::PolicyRemoved => "PolicyRemoved",
        AuditEventKind::PolicyUpdated => "PolicyUpdated",
        AuditEventKind::AccessReleased => "AccessReleased",
    }
}

fn decode_audit_kind(name: &str) -> Result<AuditEventKind, String> {
    AuditEventKind::ALL
        .into_iter()
        .find(|kind| audit_kind_name(*kind) == name)
        .ok_or_else(|| format!("unknown audit event kind '{name}'"))
}

/// Decode an audit event from its serde encoding.
pub fn decode_audit_event(value: &Value) -> Result<AuditEvent, String> {
    Ok(AuditEvent {
        sequence: u64_field(value, "sequence")?,
        timestamp_ms: u64_field(value, "timestamp_ms")?,
        kind: decode_audit_kind(&str_field(value, "kind")?)?,
        subject: opt_str_field(value, "subject")?,
        stream: opt_str_field(value, "stream")?,
        policy_id: opt_str_field(value, "policy_id")?,
        detail: str_field(value, "detail")?,
    })
}

/// Decode a grant from its serde encoding.
pub fn decode_grant(value: &Value) -> Result<GrantRecord, String> {
    Ok(GrantRecord {
        subject: str_field(value, "subject")?,
        stream: str_field(value, "stream")?,
        query_xml: opt_str_field(value, "query_xml")?,
        deployment: u64_field(value, "deployment")?,
        handle: str_field(value, "handle")?,
    })
}

/// Decode one parsed WAL payload back into its [`Record`].
///
/// # Errors
/// Returns a description of the first mismatch against the vocabulary.
pub fn decode(value: &Value) -> Result<Record, String> {
    let op = str_field(value, "op")?;
    match op.as_str() {
        "register_stream" => Ok(Record::RegisterStream {
            name: str_field(value, "name")?,
            schema: decode_schema(field(value, "schema")?)?,
        }),
        "load_policy" => Ok(Record::LoadPolicy { xml: str_field(value, "xml")? }),
        "remove_policy" => Ok(Record::RemovePolicy { id: str_field(value, "id")? }),
        "update_policy" => Ok(Record::UpdatePolicy { xml: str_field(value, "xml")? }),
        "grant" => Ok(Record::Grant(decode_grant(field(value, "grant")?)?)),
        "release" => Ok(Record::Release {
            subject: str_field(value, "subject")?,
            stream: str_field(value, "stream")?,
        }),
        "audit" => Ok(Record::Audit(decode_audit_event(field(value, "event")?)?)),
        "ingest" => {
            let stream = str_field(value, "stream")?;
            let rows = field(value, "rows")?
                .as_array()
                .ok_or_else(|| "'rows' is not an array".to_string())?;
            let mut decoded = Vec::with_capacity(rows.len());
            for row in rows {
                let cells =
                    row.as_array().ok_or_else(|| "ingest row is not an array".to_string())?;
                decoded.push(cells.to_vec());
            }
            Ok(Record::Ingest { stream, rows: decoded })
        }
        other => Err(format!("unknown op '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(record: &Record) -> Record {
        let encoded = record.encode(9).unwrap();
        let value = serde_json::from_str(&encoded).unwrap();
        assert_eq!(value.get("seq").and_then(Value::as_f64), Some(9.0));
        decode(&value).unwrap()
    }

    #[test]
    fn every_record_kind_round_trips() {
        let records = [
            Record::RegisterStream { name: "weather".into(), schema: Schema::weather_example() },
            Record::LoadPolicy { xml: "<Policy PolicyId=\"p\"/>".into() },
            Record::RemovePolicy { id: "p".into() },
            Record::UpdatePolicy { xml: "<Policy PolicyId=\"p\"/>".into() },
            Record::Grant(GrantRecord {
                subject: "LTA".into(),
                stream: "weather".into(),
                query_xml: Some("<UserQuery/>".into()),
                deployment: 4,
                handle: "exacml://dsms/streams/4".into(),
            }),
            Record::Grant(GrantRecord {
                subject: "LTA".into(),
                stream: "weather".into(),
                query_xml: None,
                deployment: 5,
                handle: "exacml://dsms/streams/5".into(),
            }),
            Record::Release { subject: "LTA".into(), stream: "weather".into() },
            Record::Audit(AuditEvent {
                sequence: 17,
                timestamp_ms: 1_700_000_000_123,
                kind: AuditEventKind::MultipleAccessBlocked,
                subject: Some("LTA".into()),
                stream: Some("weather".into()),
                policy_id: None,
                detail: "blocked".into(),
            }),
            Record::Ingest {
                stream: "weather".into(),
                rows: vec![
                    vec![
                        Value::Number(30_000.0),
                        Value::Number(7.5),
                        Value::Bool(true),
                        Value::String("n\"e\na".into()),
                        Value::Null,
                    ],
                    vec![Value::Number(60_000.0)],
                ],
            },
        ];
        for record in &records {
            assert_eq!(&round_trip(record), record, "round trip of {}", record.op());
        }
    }

    #[test]
    fn ingest_fast_path_round_trips_schema_typed_rows() {
        let schema = Schema::weather_example().shared();
        let tuples: Vec<Tuple> = (0..3)
            .map(|i| {
                Tuple::builder_shared(&schema)
                    .set("samplingtime", DsmsValue::Timestamp(i * 30_000))
                    .set("rainrate", 6.5)
                    .finish_with_defaults()
            })
            .collect();
        let fast = encode_ingest(3, "weather", &tuples).unwrap();
        match decode(&serde_json::from_str(&fast).unwrap()).unwrap() {
            Record::Ingest { stream, rows } => {
                assert_eq!(stream, "weather");
                assert_eq!(rows.len(), 3);
                let decoded = decode_row(&schema, &rows[1]).unwrap();
                assert_eq!(decoded[0], DsmsValue::Timestamp(30_000));
                assert_eq!(decoded[schema.index_of("rainrate").unwrap()], DsmsValue::Double(6.5));
                // The replayed row rebuilds a valid tuple for this schema.
                assert!(Tuple::new(schema.clone(), decoded).is_ok());
            }
            other => panic!("expected ingest, got {other:?}"),
        }
    }

    #[test]
    fn fast_encoder_handles_every_scalar_shape() {
        let schema = Schema::from_pairs([
            ("t", exacml_dsms::DataType::Timestamp),
            ("d", exacml_dsms::DataType::Double),
            ("i", exacml_dsms::DataType::Int),
            ("b", exacml_dsms::DataType::Bool),
            ("s", exacml_dsms::DataType::Text),
        ])
        .shared();
        let tuple = Tuple::new(
            schema.clone(),
            vec![
                DsmsValue::Timestamp(-7),
                DsmsValue::Double(0.125),
                // Integers are exact through the journal up to ±2^53 (JSON
                // numbers travel as f64 in the vendored parser).
                DsmsValue::Int(-(1 << 53) + 1),
                DsmsValue::Bool(false),
                DsmsValue::Text("tab\t\"q\" ☂".into()),
            ],
        )
        .unwrap();
        let encoded = encode_ingest(0, "s", std::slice::from_ref(&tuple)).unwrap();
        let parsed = serde_json::from_str(&encoded).unwrap();
        let Record::Ingest { rows, .. } = decode(&parsed).unwrap() else {
            panic!("expected ingest");
        };
        assert_eq!(decode_row(&schema, &rows[0]).unwrap(), tuple.values().to_vec());
        // NaN is unencodable, reported as an error not a corrupt record.
        let nan = Tuple::new(
            schema.clone(),
            vec![
                DsmsValue::Timestamp(0),
                DsmsValue::Double(f64::NAN),
                DsmsValue::Int(0),
                DsmsValue::Bool(false),
                DsmsValue::Text(String::new()),
            ],
        )
        .unwrap();
        assert!(encode_ingest(0, "s", std::slice::from_ref(&nan)).is_err());
    }

    #[test]
    fn every_audit_kind_survives_the_journal() {
        // The name table must agree with the serde derive's encoding for
        // every kind, or recovery would reject valid journals.
        for kind in AuditEventKind::ALL {
            assert_eq!(audit_kind_name(kind), format!("{kind:?}"), "name table drifted");
            let event = AuditEvent {
                sequence: 0,
                timestamp_ms: 1,
                kind,
                subject: None,
                stream: None,
                policy_id: None,
                detail: String::new(),
            };
            let encoded = Record::Audit(event.clone()).encode(0).unwrap();
            match decode(&serde_json::from_str(&encoded).unwrap()).unwrap() {
                Record::Audit(decoded) => assert_eq!(decoded, event),
                other => panic!("expected audit, got {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_payloads_are_reported_not_panicked() {
        for bad in [
            r#"{"seq":0}"#,
            r#"{"seq":0,"op":"warp"}"#,
            r#"{"seq":0,"op":"grant","grant":{"subject":"s"}}"#,
            r#"{"seq":0,"op":"register_stream","name":"s","schema":{"fields":[{"name":"a","data_type":"Quat"}]}}"#,
            r#"{"seq":0,"op":"ingest","stream":"s","rows":[7]}"#,
            r#"{"seq":0,"op":"audit","event":{"sequence":1,"timestamp_ms":2,"kind":"Nope","detail":""}}"#,
        ] {
            let value = serde_json::from_str(bad).unwrap();
            assert!(decode(&value).is_err(), "accepted {bad}");
        }
        // Schema-typed row decoding rejects arity and type mismatches.
        let schema = Schema::weather_example();
        assert!(decode_row(&schema, &[Value::Number(1.0)]).is_err());
        let mut row = vec![Value::Null; schema.len()];
        row[0] = Value::String("not a timestamp".into());
        assert!(decode_row(&schema, &row).is_err());
    }
}
