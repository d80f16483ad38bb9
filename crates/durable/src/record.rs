//! The WAL record vocabulary: every state-mutating operation of a data
//! server, as a JSON payload that replays deterministically.
//!
//! One record is one compact JSON object with a `"seq"` (journal sequence
//! number) and an `"op"` discriminator. There are two kinds. A control
//! operation is one `event` record: its audit event, plus what replay needs
//! for that event's kind ([`Payload`]). A pushed batch is one `ingest`
//! record. Policies and user queries are journaled in their *wire* forms —
//! the XACML policy document and the Figure 4(a) user-query XML — so the
//! journal depends only on formats the system already round-trips, not on
//! Rust struct layouts. Stream schemas, grants and audit events are
//! written by the hand encoders in this module, each next to its decoder,
//! so renaming a Rust field never changes what a store holds; ingest rows
//! are positional JSON scalars typed by the stream schema at replay time
//! ([`decode_row`]). `docs/RECOVERY.md` documents every shape with
//! examples, and this crate's `tests/golden.rs` pins the bytes.
//!
//! Decoding is defensive: a record that does not match the vocabulary is
//! reported as an error string (recovery treats it like a corrupt tail)
//! rather than panicking.

use exacml_dsms::{DataType, Field, Schema, Tuple, Value as DsmsValue};
use exacml_plus::{AuditEvent, AuditEventKind, Grant, UserQuery};
use serde::Content;
use serde_json::Value;

/// A live access grant, as journaled and as carried in snapshots.
#[derive(Debug, Clone, PartialEq)]
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

impl GrantRecord {
    /// The record of a grant as the grant table holds it.
    #[must_use]
    pub fn of(grant: &Grant) -> Self {
        GrantRecord {
            subject: grant.subject.clone(),
            stream: grant.stream.clone(),
            query_xml: grant.user_query.as_ref().map(UserQuery::to_xml),
            deployment: grant.deployment.0,
            handle: grant.handle.uri().to_string(),
        }
    }
}

/// What replay needs beyond an event's own fields, chosen by its kind.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Nothing: `policy-removed` and `access-released` replay from the
    /// event's policy, subject and stream; replay skips the decision kinds.
    None,
    /// `stream-registered`: the stream's schema.
    Schema(Schema),
    /// `policy-loaded` and `policy-updated`: the XACML document.
    Policy(String),
    /// `granted`: the grant. Its subject and stream are the event's and
    /// are written once, in the event; the record adds the user query, the
    /// deployment id and the handle URI.
    Grant(GrantRecord),
}

/// One journaled state-mutating operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A control operation: its audit event, verbatim, so the trail
    /// survives restarts with its original timestamps and sequence
    /// numbers, plus what replay needs for the event's kind.
    Event {
        /// The event the operation recorded.
        event: AuditEvent,
        /// What replay needs for `event.kind`.
        payload: Payload,
    },
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
            Record::Event { .. } => "event",
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
            Record::Event { event, payload } => {
                push("event", audit_event_content(event));
                match payload {
                    Payload::None => {}
                    Payload::Schema(schema) => push("schema", schema_content(schema)),
                    Payload::Policy(xml) => push("xml", text(xml)),
                    Payload::Grant(grant) => {
                        push("query_xml", opt_text(grant.query_xml.as_deref()));
                        push("deployment", Content::U64(grant.deployment));
                        push("handle", text(&grant.handle));
                    }
                }
            }
            Record::Ingest { stream, rows } => {
                push("stream", text(stream));
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

// ---------------------------------------------------------------------------
// Encoding: the store's own shapes, each the mirror of its decoder below
// ---------------------------------------------------------------------------

/// A JSON object with its keys in the given order.
pub(crate) fn object<const N: usize>(entries: [(&str, Content); N]) -> Content {
    Content::Map(entries.into_iter().map(|(key, value)| (key.to_string(), value)).collect())
}

pub(crate) fn text(s: &str) -> Content {
    Content::Str(s.to_string())
}

fn opt_text(s: Option<&str>) -> Content {
    s.map_or(Content::Null, text)
}

/// The journal's name for a data type: its variant name, which
/// [`decode_data_type`] reads back. Exhaustive, so a new type must be named
/// here before a store can hold it.
fn data_type_name(data_type: DataType) -> &'static str {
    match data_type {
        DataType::Int => "Int",
        DataType::Double => "Double",
        DataType::Bool => "Bool",
        DataType::Text => "Text",
        DataType::Timestamp => "Timestamp",
    }
}

/// Encode a schema as `{"fields":[{"name":…,"data_type":…},…]}`.
pub fn schema_content(schema: &Schema) -> Content {
    let fields = schema.fields().iter().map(|f| {
        object([("name", text(&f.name)), ("data_type", text(data_type_name(f.data_type)))])
    });
    object([("fields", Content::Seq(fields.collect()))])
}

/// Encode an audit event, its fields in declaration order.
pub fn audit_event_content(event: &AuditEvent) -> Content {
    object([
        ("sequence", Content::U64(event.sequence)),
        ("timestamp_ms", Content::U64(event.timestamp_ms)),
        ("kind", text(audit_kind_name(event.kind))),
        ("subject", opt_text(event.subject.as_deref())),
        ("stream", opt_text(event.stream.as_deref())),
        ("policy_id", opt_text(event.policy_id.as_deref())),
        ("detail", text(&event.detail)),
    ])
}

/// Encode a grant; an absent user query is written as `null`.
pub fn grant_content(grant: &GrantRecord) -> Content {
    object([
        ("subject", text(&grant.subject)),
        ("stream", text(&grant.stream)),
        ("query_xml", opt_text(grant.query_xml.as_deref())),
        ("deployment", Content::U64(grant.deployment)),
        ("handle", text(&grant.handle)),
    ])
}

/// A raw ingest cell (as parsed back from the journal) rendered as
/// [`Content`] for the generic record encoder.
fn raw_cell_content(cell: &Value) -> Content {
    match cell {
        Value::Null => Content::Null,
        Value::Bool(b) => Content::Bool(*b),
        Value::Number(n) => Content::F64(*n),
        Value::String(s) => Content::Str(s.clone()),
        // Rows never carry containers and `decode` refuses them; encode
        // defensively as null.
        Value::Array(_) | Value::Object(_) => Content::Null,
    }
}

/// `"00"`, `"01"`, …, `"99"`: the encoder writes two decimal digits per
/// table lookup.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0u8; 200];
    let mut n = 0;
    while n < 100 {
        pairs[2 * n] = b'0' + (n / 10) as u8;
        pairs[2 * n + 1] = b'0' + (n % 10) as u8;
        n += 1;
    }
    pairs
};

/// The two digits of `n` (< 100).
fn pair(n: u64) -> &'static [u8] {
    let at = 2 * n as usize;
    &DIGIT_PAIRS[at..at + 2]
}

/// Write `v` (< 100) without a leading zero.
fn push_below_100(out: &mut Vec<u8>, v: u64) {
    if v < 10 {
        out.push(b'0' + v as u8);
    } else {
        out.extend_from_slice(pair(v));
    }
}

/// Write `v` in decimal. Up to four digits go straight from the pair table
/// into `out`; longer numbers are built backwards on the stack and copied
/// out once. This and [`push_decimal`] are forced inline into the cell
/// loop: as calls, they cost the encoder about a tenth of its time.
#[inline(always)]
fn push_u64(out: &mut Vec<u8>, v: u64) {
    if v < 100 {
        push_below_100(out, v);
    } else if v < 10_000 {
        push_below_100(out, v / 100);
        out.extend_from_slice(pair(v % 100));
    } else {
        let mut text = [0u8; 18];
        let mut start = text.len();
        let mut rest = v;
        while rest >= 100 {
            start -= 2;
            text[start..start + 2].copy_from_slice(pair(rest % 100));
            rest /= 100;
        }
        push_below_100(out, rest);
        out.extend_from_slice(&text[start..]);
    }
}

/// Write `digits / 10^places` in decimal with exactly `places` (0–4)
/// fraction digits, minus-signed when `negative`. Every arm divides by a
/// constant, which compiles to a multiply.
#[inline(always)]
fn push_decimal(out: &mut Vec<u8>, negative: bool, digits: u64, places: usize) {
    if negative {
        out.push(b'-');
    }
    match places {
        0 => push_u64(out, digits),
        1 => {
            push_u64(out, digits / 10);
            out.push(b'.');
            out.push(b'0' + (digits % 10) as u8);
        }
        2 => {
            push_u64(out, digits / 100);
            out.push(b'.');
            out.extend_from_slice(pair(digits % 100));
        }
        3 => {
            push_u64(out, digits / 1_000);
            out.push(b'.');
            out.push(b'0' + (digits % 1_000 / 100) as u8);
            out.extend_from_slice(pair(digits % 100));
        }
        _ => {
            push_u64(out, digits / 10_000);
            out.push(b'.');
            out.extend_from_slice(pair(digits % 10_000 / 100));
            out.extend_from_slice(pair(digits % 100));
        }
    }
}

/// The decimal digits and place count of `abs` when it is below 1e9 with
/// at most four decimals, the shape of sensor readings and counters. For a
/// non-integral `abs`, `digits / 10^places` is exactly the decimal the
/// shortest-round-trip formatter (`{}`) prints: below 1e9 a double's
/// neighbours are < 1e-4 apart, so at most one decimal of `places` digits
/// parses back to `abs`, and trying the place counts in ascending order
/// finds the shortest. An integral `abs` comes back with one place, which
/// writes the journal's `N.0` form for it.
///
/// One and two places are decided together, by one multiply-add, one
/// divide and one compare on the hundredths. That is exact: when one
/// decimal reproduces `abs`, so do its digits with a zero appended, and
/// hundredths ending in zero are that one decimal; so the check passes
/// exactly when trying one place, then two, would. The check can only pass
/// when `abs * 100.0` lies within rounding error of an integer, and there
/// adding 0.5 and truncating is rounding to nearest. The hundredths go
/// through `i64` on purpose: `f64::round` is a libm call on the baseline
/// x86-64 target, and `u64`↔`f64` conversions take several instructions
/// there. Three and four places, rare in sensor data, keep the plain loop.
fn fixed_point(abs: f64) -> Option<(u64, usize)> {
    if abs >= 1e9 {
        return None;
    }
    let hundredths = (abs * 100.0 + 0.5) as i64;
    if hundredths as f64 / 100.0 == abs {
        let hundredths = hundredths as u64;
        return Some(if hundredths.is_multiple_of(10) {
            (hundredths / 10, 1)
        } else {
            (hundredths, 2)
        });
    }
    [1e3, 1e4].iter().zip(3..).find_map(|(&scale, places)| {
        // Both operations are correctly rounded and `digits` < 2^53, so the
        // division is the value a parser assigns to the printed decimal.
        let digits = (abs * scale).round();
        (digits / scale == abs).then_some((digits as u64, places))
    })
}

/// Write a double as the journal always has: integral values below 1e15 in
/// serde_json's `N.0` form (`-0.0` as `0.0`), everything else byte for byte
/// what `{f}` prints (pinned by `push_f64_is_byte_identical_to_display`).
/// Values [`fixed_point`] takes, and integral ones up to 1e15, skip the
/// float formatter and libm alike: integrality is a round trip through
/// `i64`, because `f64::trunc` is a libm call on the baseline x86-64 target.
fn push_f64(out: &mut Vec<u8>, f: f64) -> Result<(), serde_json::Error> {
    let abs = f.abs();
    if let Some((digits, places)) = fixed_point(abs) {
        push_decimal(out, f < 0.0, digits, places);
    } else if abs < 1e15 && (abs as i64) as f64 == abs {
        // `N.0` is N tenths; `abs` < 1e15, so they fit.
        push_decimal(out, f < 0.0, 10 * (abs as i64 as u64), 1);
    } else if f.is_finite() {
        use std::io::Write;
        let _ = write!(out, "{f}");
    } else {
        // The shared serializer's canonical error for NaN and infinities.
        return Err(serde_json::content_to_string(&Content::F64(f))
            .expect_err("JSON has no non-finite numbers"));
    }
    Ok(())
}

fn push_json_string(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push(b'"');
    // Copy escape-free runs whole. Every byte that needs escaping is ASCII,
    // so the cuts always fall on character boundaries.
    let bytes = s.as_bytes();
    let mut run_start = 0;
    for (i, &byte) in bytes.iter().enumerate() {
        if byte >= 0x20 && byte != b'"' && byte != b'\\' {
            continue;
        }
        out.extend_from_slice(&bytes[run_start..i]);
        run_start = i + 1;
        match byte {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            control => {
                out.extend_from_slice(b"\\u00");
                out.push(HEX[usize::from(control >> 4)]);
                out.push(HEX[usize::from(control & 0xf)]);
            }
        }
    }
    out.extend_from_slice(&bytes[run_start..]);
    out.push(b'"');
}

/// Encode an ingest record straight from the tuple batch into `out`
/// (cleared first), bypassing the `Content` tree entirely — this runs once
/// per acknowledged push, concurrent with stream processing, so it is the
/// one encoder that matters for ingest throughput. It writes bytes into
/// `out`'s own buffer and checks them as UTF-8 once, at the end.
///
/// # Errors
/// Fails only when a tuple carries a NaN or infinite float; `out` is then
/// left empty.
pub fn encode_ingest_into(
    out: &mut String,
    seq: u64,
    stream: &str,
    tuples: &[Tuple],
) -> Result<(), serde_json::Error> {
    let mut buf = std::mem::take(out).into_bytes();
    buf.clear();
    let width = tuples.first().map_or(0, |t| t.values().len());
    buf.reserve(48 + stream.len() + tuples.len() * (2 + 8 * width));
    buf.extend_from_slice(b"{\"seq\":");
    push_u64(&mut buf, seq);
    buf.extend_from_slice(b",\"op\":\"ingest\",\"stream\":");
    push_json_string(&mut buf, stream);
    buf.extend_from_slice(b",\"rows\":[");
    for (i, tuple) in tuples.iter().enumerate() {
        if i > 0 {
            buf.push(b',');
        }
        buf.push(b'[');
        for (j, value) in tuple.values().iter().enumerate() {
            if j > 0 {
                buf.push(b',');
            }
            match value {
                DsmsValue::Null => buf.extend_from_slice(b"null"),
                DsmsValue::Bool(b) => buf.extend_from_slice(if *b { b"true" } else { b"false" }),
                DsmsValue::Int(v) | DsmsValue::Timestamp(v) => {
                    push_decimal(&mut buf, *v < 0, v.unsigned_abs(), 0);
                }
                DsmsValue::Double(f) => push_f64(&mut buf, *f)?,
                DsmsValue::Text(s) => push_json_string(&mut buf, s),
            }
        }
        buf.push(b']');
    }
    buf.extend_from_slice(b"]}");
    // Every byte is ASCII or was copied whole from a `&str`.
    *out = String::from_utf8(buf).expect("the ingest encoder writes UTF-8");
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

/// The largest `u64` a JSON number carries exactly: integers travel as
/// numbers, which the vendored parser reads as `f64`, and every integer up
/// to 2^53 survives that — far beyond any sequence or id this store mints.
pub const MAX_EXACT_U64: u64 = 1 << 53;

/// A JSON number as the `u64` it was written from, or `None` when no `u64`
/// up to [`MAX_EXACT_U64`] writes it: a non-number, or a negative,
/// fractional or larger number, is refused instead of cast.
#[must_use]
pub fn exact_u64(value: &Value) -> Option<u64> {
    let number = value.as_f64()?;
    let exact = number >= 0.0 && number.fract() == 0.0 && number <= MAX_EXACT_U64 as f64;
    exact.then_some(number as u64)
}

fn u64_field(value: &Value, key: &str) -> Result<u64, String> {
    exact_u64(field(value, key)?)
        .ok_or_else(|| format!("'{key}' is not a whole number in 0..=2^53"))
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

/// Decode a schema written by [`schema_content`].
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

/// The journal's name for an audit-event kind: its variant name. Exhaustive
/// on purpose: adding a kind fails compilation here, forcing the decode
/// match below (and the recovery path with it) to learn the new name
/// *before* a live server can journal events an older `recover()` would
/// choke on.
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
        AuditEventKind::StreamRegistered => "StreamRegistered",
    }
}

fn decode_audit_kind(name: &str) -> Result<AuditEventKind, String> {
    AuditEventKind::ALL
        .into_iter()
        .find(|kind| audit_kind_name(*kind) == name)
        .ok_or_else(|| format!("unknown audit event kind '{name}'"))
}

/// Decode an audit event written by [`audit_event_content`].
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

/// Decode a grant written by [`grant_content`].
pub fn decode_grant(value: &Value) -> Result<GrantRecord, String> {
    Ok(GrantRecord {
        subject: str_field(value, "subject")?,
        stream: str_field(value, "stream")?,
        query_xml: opt_str_field(value, "query_xml")?,
        deployment: u64_field(value, "deployment")?,
        handle: str_field(value, "handle")?,
    })
}

/// Decode the payload an event of `event`'s kind carries in `record`, and
/// refuse an event without a field its replay reads.
fn decode_payload(event: &AuditEvent, record: &Value) -> Result<Payload, String> {
    use AuditEventKind as K;
    let reads_subject = matches!(event.kind, K::Granted | K::AccessReleased);
    let reads_stream = reads_subject || event.kind == K::StreamRegistered;
    if (reads_subject && event.subject.is_none())
        || (reads_stream && event.stream.is_none())
        || (event.kind == K::PolicyRemoved && event.policy_id.is_none())
    {
        return Err(format!(
            "'{}' event without the subject, stream or policy it replays",
            event.kind
        ));
    }
    Ok(match event.kind {
        K::StreamRegistered => Payload::Schema(decode_schema(field(record, "schema")?)?),
        K::PolicyLoaded | K::PolicyUpdated => Payload::Policy(str_field(record, "xml")?),
        K::Granted => Payload::Grant(GrantRecord {
            subject: event.subject.clone().unwrap_or_default(),
            stream: event.stream.clone().unwrap_or_default(),
            query_xml: opt_str_field(record, "query_xml")?,
            deployment: u64_field(record, "deployment")?,
            handle: str_field(record, "handle")?,
        }),
        _ => Payload::None,
    })
}

/// Decode one parsed WAL payload back into its [`Record`].
///
/// # Errors
/// Returns a description of the first mismatch against the vocabulary.
pub fn decode(value: &Value) -> Result<Record, String> {
    let op = str_field(value, "op")?;
    match op.as_str() {
        "event" => {
            let event = decode_audit_event(field(value, "event")?)?;
            let payload = decode_payload(&event, value)?;
            Ok(Record::Event { event, payload })
        }
        "ingest" => {
            let stream = str_field(value, "stream")?;
            let rows = field(value, "rows")?
                .as_array()
                .ok_or_else(|| "'rows' is not an array".to_string())?;
            let mut decoded = Vec::with_capacity(rows.len());
            for row in rows {
                let cells =
                    row.as_array().ok_or_else(|| "ingest row is not an array".to_string())?;
                if cells.iter().any(|cell| matches!(cell, Value::Array(_) | Value::Object(_))) {
                    return Err("ingest cell is not a scalar".to_string());
                }
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

    fn event(kind: AuditEventKind, payload: Payload) -> Record {
        let event = AuditEvent {
            sequence: 17,
            timestamp_ms: 1_700_000_000_123,
            kind,
            subject: Some("LTA".into()),
            stream: Some("weather".into()),
            policy_id: Some("p".into()),
            detail: "detail".into(),
        };
        Record::Event { event, payload }
    }

    #[test]
    fn every_record_kind_round_trips() {
        let grant = |query_xml: Option<&str>, deployment: u64| {
            Payload::Grant(GrantRecord {
                subject: "LTA".into(),
                stream: "weather".into(),
                query_xml: query_xml.map(str::to_string),
                deployment,
                handle: format!("exacml://dsms/streams/{deployment}"),
            })
        };
        let records = [
            event(AuditEventKind::StreamRegistered, Payload::Schema(Schema::weather_example())),
            event(AuditEventKind::PolicyLoaded, Payload::Policy("<Policy PolicyId=\"p\"/>".into())),
            event(AuditEventKind::PolicyRemoved, Payload::None),
            event(
                AuditEventKind::PolicyUpdated,
                Payload::Policy("<Policy PolicyId=\"p\"/>".into()),
            ),
            event(AuditEventKind::Granted, grant(Some("<UserQuery/>"), 4)),
            event(AuditEventKind::Granted, grant(None, 5)),
            event(AuditEventKind::AccessReleased, Payload::None),
            event(AuditEventKind::MultipleAccessBlocked, Payload::None),
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
    fn integers_print_as_display_does_across_every_digit_count() {
        let mut out = Vec::new();
        let powers = (0..20).map(|e| 10u64.pow(e));
        let edges = powers.flat_map(|p| [p - 1, p, p + 1]);
        for v in (0..=100_000).chain(edges).chain([u64::MAX - 1, u64::MAX]) {
            out.clear();
            push_u64(&mut out, v);
            assert_eq!(out, v.to_string().as_bytes());
        }
    }

    #[test]
    fn every_audit_kind_survives_the_journal() {
        // Stores hold each kind under its variant name; the table must keep
        // writing those names, or recovery would reject valid journals.
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
            let encoded = serde_json::content_to_string(&audit_event_content(&event)).unwrap();
            assert_eq!(decode_audit_event(&serde_json::from_str(&encoded).unwrap()), Ok(event));
        }
    }

    #[test]
    fn malformed_payloads_are_reported_not_panicked() {
        for bad in [
            r#"{"seq":0}"#,
            r#"{"seq":0,"op":"warp"}"#,
            r#"{"seq":0,"op":"grant","grant":{"subject":"s"}}"#,
            r#"{"seq":0,"op":"event","event":{"sequence":1,"timestamp_ms":2,"kind":"StreamRegistered","subject":null,"stream":"s","policy_id":null,"detail":""},"schema":{"fields":[{"name":"a","data_type":"Quat"}]}}"#,
            r#"{"seq":0,"op":"event","event":{"sequence":1,"timestamp_ms":2,"kind":"Granted","subject":null,"stream":"s","policy_id":null,"detail":""},"query_xml":null,"deployment":0,"handle":"h"}"#,
            r#"{"seq":0,"op":"event","event":{"sequence":1,"timestamp_ms":2,"kind":"Granted","subject":"u","stream":"s","policy_id":null,"detail":""},"query_xml":null,"handle":"h"}"#,
            r#"{"seq":0,"op":"event","event":{"sequence":1,"timestamp_ms":2,"kind":"PolicyRemoved","subject":null,"stream":null,"policy_id":null,"detail":""}}"#,
            r#"{"seq":0,"op":"event","event":{"sequence":1,"timestamp_ms":2,"kind":"PolicyLoaded","subject":null,"stream":null,"policy_id":"p","detail":""}}"#,
            r#"{"seq":0,"op":"ingest","stream":"s","rows":[7]}"#,
            r#"{"seq":0,"op":"ingest","stream":"s","rows":[[[1]]]}"#,
            r#"{"seq":0,"op":"ingest","stream":"s","rows":[[{"a":1}]]}"#,
            r#"{"seq":0,"op":"event","event":{"sequence":1,"timestamp_ms":2,"kind":"Nope","detail":""}}"#,
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
