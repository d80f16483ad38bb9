//! Snapshots: the compacted logical state of a durable server.
//!
//! A snapshot folds the whole journal history into the state that still
//! matters — registered streams, the loaded policies in store order, the
//! *live* grants, the audit trail, and the counters replay must resume
//! (journal sequence, store revision, deployment ids). Everything released,
//! removed or superseded before the snapshot is simply absent, which is
//! what keeps replay bounded: recovery cost is proportional to the live
//! state plus the WAL tail since the last snapshot, never to the server's
//! lifetime.
//!
//! The snapshot is one framed line (the WAL's checksum framing) written to
//! a temporary file, fsynced, and atomically renamed over `snapshot.json` —
//! a crash leaves either the old snapshot or the new one, never a torn mix.
//! The WAL is reset only *after* the rename; a crash in between is safe
//! because every WAL record's sequence number is compared against the
//! snapshot's [`Snapshot::wal_horizon`] during replay, so already-folded
//! records are skipped, not applied twice.
//!
//! [`encode_snapshot`] and [`decode_snapshot`] define the snapshot's bytes,
//! from the same per-type encoders and decoders the WAL records use
//! ([`crate::record`]). The payload carries the store's
//! [`FORMAT_VERSION`], and a snapshot at any other version is refused.

use crate::record::{
    audit_event_content, decode_audit_event, decode_grant, decode_schema, exact_u64, grant_content,
    object, schema_content, text, GrantRecord,
};
use crate::wal::{frame, unframe};
use crate::{check_format_version, FORMAT_VERSION};
use exacml_dsms::Schema;
use exacml_plus::AuditEvent;
use serde::Content;
use serde_json::Value;
use std::path::Path;

/// A registered input stream, as carried in snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamEntry {
    /// The stream name.
    pub name: String,
    /// Its schema.
    pub schema: Schema,
}

/// The compacted logical state of a durable server.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// The journal horizon: every WAL record with `seq < wal_horizon` is
    /// already folded into this snapshot and is skipped during replay.
    pub wal_horizon: u64,
    /// The policy store's revision counter at snapshot time (restored so
    /// decision caches built before the crash stay invalidated).
    pub store_revision: u64,
    /// One past the largest deployment id ever minted (so released handles
    /// are never re-issued after recovery).
    pub next_deployment_id: u64,
    /// One past the largest handle serial ever journaled — including
    /// grants released before this snapshot. Recovery adopts live grants'
    /// URIs verbatim, so the serial counter must clear every serial that
    /// was ever handed out or a fresh mint could resurrect a retired URI.
    pub next_handle_serial: u64,
    /// Registered input streams, sorted by name.
    pub streams: Vec<StreamEntry>,
    /// Loaded policies in store order (first-applicable combining is order
    /// dependent), each as its XACML document.
    pub policies: Vec<String>,
    /// Live grants in grant order (replay order). Under plan sharing
    /// several grants may carry the same deployment id.
    pub grants: Vec<GrantRecord>,
    /// The audit trail, verbatim.
    pub audit: Vec<AuditEvent>,
}

/// Encode a snapshot as its JSON payload (framing is the WAL's), stamped
/// with [`FORMAT_VERSION`].
#[must_use]
pub fn encode_snapshot(snapshot: &Snapshot) -> String {
    let streams = snapshot.streams.iter().map(|entry| {
        object([("name", text(&entry.name)), ("schema", schema_content(&entry.schema))])
    });
    serde_json::content_to_string(&object([
        ("version", Content::U64(FORMAT_VERSION)),
        ("wal_horizon", Content::U64(snapshot.wal_horizon)),
        ("store_revision", Content::U64(snapshot.store_revision)),
        ("next_deployment_id", Content::U64(snapshot.next_deployment_id)),
        ("next_handle_serial", Content::U64(snapshot.next_handle_serial)),
        ("streams", Content::Seq(streams.collect())),
        ("policies", Content::Seq(snapshot.policies.iter().map(|xml| text(xml)).collect())),
        ("grants", Content::Seq(snapshot.grants.iter().map(grant_content).collect())),
        ("audit", Content::Seq(snapshot.audit.iter().map(audit_event_content).collect())),
    ]))
    .expect("a snapshot holds no floats")
}

/// Write a snapshot atomically: temporary file, fsync, rename.
///
/// # Errors
/// Propagates I/O errors.
pub fn write_snapshot(path: &Path, snapshot: &Snapshot) -> Result<(), String> {
    let payload = encode_snapshot(snapshot);
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, frame(&payload)).map_err(|e| e.to_string())?;
    let file = std::fs::File::open(&tmp).map_err(|e| e.to_string())?;
    file.sync_all().map_err(|e| e.to_string())?;
    std::fs::rename(&tmp, path).map_err(|e| e.to_string())
}

/// Read a snapshot back. A missing file reads as `None` (genesis recovery);
/// a present but unreadable one is an error — unlike a torn WAL tail it
/// cannot be partially salvaged, and silently starting empty would violate
/// the durability promise.
///
/// # Errors
/// Fails on I/O errors, checksum mismatches, vocabulary mismatches and any
/// format version but [`FORMAT_VERSION`], naming the file.
pub fn read_snapshot(path: &Path) -> Result<Option<Snapshot>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.to_string()),
    };
    let payload = unframe(text.trim_end_matches('\n'))
        .ok_or_else(|| format!("{}: snapshot frame or checksum mismatch", path.display()))?;
    serde_json::from_str(payload)
        .map_err(|e| e.to_string())
        .and_then(|value| decode_snapshot(&value))
        .map(Some)
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn u64_of(value: &Value, key: &str) -> Result<u64, String> {
    value
        .get(key)
        .and_then(exact_u64)
        .ok_or_else(|| format!("snapshot is missing whole number '{key}' in 0..=2^53"))
}

fn seq_of<'v>(value: &'v Value, key: &str) -> Result<&'v [Value], String> {
    value
        .get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("snapshot is missing array '{key}'"))
}

/// Decode a parsed snapshot payload written by [`encode_snapshot`].
///
/// # Errors
/// Refuses a payload at any format version but [`FORMAT_VERSION`], and
/// describes the first other mismatch against the vocabulary.
pub fn decode_snapshot(value: &Value) -> Result<Snapshot, String> {
    check_format_version(value)?;
    let mut streams = Vec::new();
    for entry in seq_of(value, "streams")? {
        let name = entry
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| "stream entry without a name".to_string())?;
        let schema = decode_schema(
            entry.get("schema").ok_or_else(|| "stream entry without a schema".to_string())?,
        )?;
        streams.push(StreamEntry { name: name.to_string(), schema });
    }
    let policies = seq_of(value, "policies")?
        .iter()
        .map(|p| p.as_str().map(str::to_string).ok_or_else(|| "policy is not a string".to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let grants =
        seq_of(value, "grants")?.iter().map(decode_grant).collect::<Result<Vec<_>, _>>()?;
    let audit =
        seq_of(value, "audit")?.iter().map(decode_audit_event).collect::<Result<Vec<_>, _>>()?;
    Ok(Snapshot {
        wal_horizon: u64_of(value, "wal_horizon")?,
        store_revision: u64_of(value, "store_revision")?,
        next_deployment_id: u64_of(value, "next_deployment_id")?,
        next_handle_serial: u64_of(value, "next_handle_serial")?,
        streams,
        policies,
        grants,
        audit,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{temp_dir, RemoveOnDrop};
    use exacml_plus::AuditEventKind;
    use std::path::PathBuf;

    fn temp_snapshot(tag: &str) -> (PathBuf, RemoveOnDrop) {
        let (dir, guard) = temp_dir(&format!("snap-{tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        (dir.join("snapshot.json"), guard)
    }

    fn sample() -> Snapshot {
        Snapshot {
            wal_horizon: 42,
            store_revision: 7,
            next_deployment_id: 12,
            next_handle_serial: 25,
            streams: vec![StreamEntry {
                name: "weather".into(),
                schema: Schema::weather_example(),
            }],
            policies: vec!["<Policy PolicyId=\"p\"/>".into()],
            grants: vec![GrantRecord {
                subject: "LTA".into(),
                stream: "weather".into(),
                query_xml: None,
                deployment: 11,
                handle: "exacml://dsms/streams/11".into(),
            }],
            audit: vec![AuditEvent {
                sequence: 3,
                timestamp_ms: 123,
                kind: AuditEventKind::Granted,
                subject: Some("LTA".into()),
                stream: Some("weather".into()),
                policy_id: Some("p".into()),
                detail: "handle exacml://dsms/streams/11".into(),
            }],
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let (path, _guard) = temp_snapshot("rt");
        assert!(read_snapshot(&path).unwrap().is_none());
        let snapshot = sample();
        write_snapshot(&path, &snapshot).unwrap();
        assert_eq!(read_snapshot(&path).unwrap(), Some(snapshot));
        // No leftover temporary file.
        assert!(!path.with_extension("json.tmp").exists());
    }

    #[test]
    fn corrupt_snapshots_are_errors_not_empty_stores() {
        let (path, _guard) = temp_snapshot("bad");
        write_snapshot(&path, &sample()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_snapshot(&path).unwrap_err().contains("checksum"));
    }
}
