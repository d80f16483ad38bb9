//! Access audit trail.
//!
//! The paper's trust model assumes an honest cloud provider and names
//! "accountability mechanisms" as the primary next challenge (Section 6).
//! This module is a first step in that direction: an append-only, bounded
//! in-memory audit log of every access-control decision the data server
//! makes — grants, denials, conflicts, reuse of existing handles, policy
//! life-cycle events, releases and stream registrations — that owners can
//! query per subject, per stream or per policy. A durable server journals
//! each event as the write-ahead record of the operation that recorded it.

use std::collections::VecDeque;
use std::time::{SystemTime, UNIX_EPOCH};

/// The kind of event recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AuditEventKind {
    /// A request was granted and a new query graph deployed.
    Granted,
    /// A request was answered with an already-live handle.
    Reused,
    /// The PDP denied the request (or nothing applied).
    Denied,
    /// The request conflicted with the policy (NR/PR) and was not deployed.
    Conflict,
    /// The requester already held a different live query on the stream.
    MultipleAccessBlocked,
    /// A policy was loaded.
    PolicyLoaded,
    /// A policy was removed (its graphs withdrawn).
    PolicyRemoved,
    /// A policy was updated (its graphs withdrawn).
    PolicyUpdated,
    /// A consumer (or the server) released a live access.
    AccessReleased,
    /// An input stream was registered.
    StreamRegistered,
}

impl AuditEventKind {
    /// Every kind, in declaration order. A journal that writes kinds by
    /// name (the durable store writes the *variant* names, e.g.
    /// `"Granted"`) can parse them back by scanning this list.
    pub const ALL: [AuditEventKind; 10] = [
        AuditEventKind::Granted,
        AuditEventKind::Reused,
        AuditEventKind::Denied,
        AuditEventKind::Conflict,
        AuditEventKind::MultipleAccessBlocked,
        AuditEventKind::PolicyLoaded,
        AuditEventKind::PolicyRemoved,
        AuditEventKind::PolicyUpdated,
        AuditEventKind::AccessReleased,
        AuditEventKind::StreamRegistered,
    ];
}

impl AuditEventKind {
    /// Parse a kind from its display name (`granted`,
    /// `multiple-access-blocked`, …) — what scenario-pack oracles and other
    /// data-driven audit checks use.
    #[must_use]
    pub fn from_name(name: &str) -> Option<AuditEventKind> {
        AuditEventKind::ALL.into_iter().find(|kind| kind.to_string() == name)
    }
}

impl std::fmt::Display for AuditEventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AuditEventKind::Granted => "granted",
            AuditEventKind::Reused => "reused",
            AuditEventKind::Denied => "denied",
            AuditEventKind::Conflict => "conflict",
            AuditEventKind::MultipleAccessBlocked => "multiple-access-blocked",
            AuditEventKind::PolicyLoaded => "policy-loaded",
            AuditEventKind::PolicyRemoved => "policy-removed",
            AuditEventKind::PolicyUpdated => "policy-updated",
            AuditEventKind::AccessReleased => "access-released",
            AuditEventKind::StreamRegistered => "stream-registered",
        };
        f.write_str(s)
    }
}

/// One audit record.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditEvent {
    /// Monotonically increasing sequence number.
    pub sequence: u64,
    /// Wall-clock timestamp (milliseconds since the Unix epoch).
    pub timestamp_ms: u64,
    /// What happened.
    pub kind: AuditEventKind,
    /// The requesting subject, when applicable.
    pub subject: Option<String>,
    /// The stream involved, when applicable.
    pub stream: Option<String>,
    /// The policy involved, when applicable.
    pub policy_id: Option<String>,
    /// Free-form detail (e.g. the warning list or the denial reason).
    pub detail: String,
}

/// A bounded, append-only audit log.
#[derive(Debug)]
pub struct AuditLog {
    events: VecDeque<AuditEvent>,
    capacity: usize,
    next_sequence: u64,
    dropped: u64,
}

impl Default for AuditLog {
    fn default() -> Self {
        AuditLog::with_capacity(10_000)
    }
}

impl AuditLog {
    /// A log keeping at most `capacity` most-recent events.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        AuditLog {
            events: VecDeque::with_capacity(capacity.min(1024)),
            capacity: capacity.max(1),
            next_sequence: 0,
            dropped: 0,
        }
    }

    /// Append an event, evicting the oldest one if the log is full.
    pub fn record(
        &mut self,
        kind: AuditEventKind,
        subject: Option<&str>,
        stream: Option<&str>,
        policy_id: Option<&str>,
        detail: impl Into<String>,
    ) -> u64 {
        let sequence = self.next_sequence;
        self.next_sequence += 1;
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(AuditEvent {
            sequence,
            timestamp_ms: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0),
            kind,
            subject: subject.map(str::to_string),
            stream: stream.map(str::to_string),
            policy_id: policy_id.map(str::to_string),
            detail: detail.into(),
        });
        sequence
    }

    /// Take back the event `sequence` when it is still the newest one and
    /// forget its sequence number, as if it had never been recorded (an
    /// event evicted to make room for it stays evicted). A write-ahead
    /// operation whose record the journal refused retracts its event.
    pub fn retract(&mut self, sequence: u64) {
        if self.events.back().is_some_and(|e| e.sequence == sequence) {
            self.events.pop_back();
            self.next_sequence = sequence;
        }
    }

    /// Recovery hook: replace the log's contents with journaled events,
    /// preserving their original sequence numbers and timestamps. Only the
    /// `capacity` most-recent events are retained (older ones count as
    /// dropped, as if they had been evicted live); new recordings continue
    /// after the highest restored sequence number.
    pub fn restore(&mut self, mut events: Vec<AuditEvent>) {
        self.next_sequence =
            events.iter().map(|e| e.sequence + 1).max().unwrap_or(0).max(self.next_sequence);
        let overflow = events.len().saturating_sub(self.capacity);
        self.dropped += overflow as u64;
        self.events = events.drain(overflow..).collect();
    }

    /// Number of retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events evicted because of the capacity bound.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// All retained events, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<AuditEvent> {
        self.events.iter().cloned().collect()
    }

    /// Retained events with `sequence >= from`, oldest first. Incremental
    /// consumers (e.g. a journal tailing the log) pass one past the last
    /// sequence they saw and clone only the new tail, not the whole log.
    #[must_use]
    pub fn events_since(&self, from: u64) -> Vec<AuditEvent> {
        // Events are stored in sequence order; skip the already-seen prefix.
        let start = self.events.partition_point(|e| e.sequence < from);
        self.events.iter().skip(start).cloned().collect()
    }

    /// Retained events involving a subject.
    #[must_use]
    pub fn by_subject(&self, subject: &str) -> Vec<AuditEvent> {
        self.events.iter().filter(|e| e.subject.as_deref() == Some(subject)).cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_queries_events() {
        let mut log = AuditLog::with_capacity(100);
        log.record(AuditEventKind::PolicyLoaded, None, Some("weather"), Some("p1"), "loaded");
        log.record(AuditEventKind::Granted, Some("LTA"), Some("weather"), Some("p1"), "ok");
        log.record(AuditEventKind::Denied, Some("EMA"), Some("weather"), None, "no policy");
        assert_eq!(log.len(), 3);
        assert_eq!(log.by_subject("LTA").len(), 1);
        assert_eq!(log.by_subject("EMA")[0].kind, AuditEventKind::Denied);
        // Sequence numbers increase monotonically.
        let events = log.events();
        assert!(events.windows(2).all(|w| w[1].sequence > w[0].sequence));
        assert!(events[0].kind.to_string().contains("policy-loaded"));
    }

    #[test]
    fn events_since_returns_only_the_new_tail() {
        let mut log = AuditLog::with_capacity(100);
        for i in 0..6 {
            log.record(AuditEventKind::Granted, Some(&format!("u{i}")), None, None, "");
        }
        assert_eq!(log.events_since(0).len(), 6);
        let tail = log.events_since(4);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].sequence, 4);
        assert!(log.events_since(6).is_empty());
        assert!(log.events_since(999).is_empty());
    }

    #[test]
    fn retract_takes_back_only_the_newest_event() {
        let mut log = AuditLog::with_capacity(100);
        let first = log.record(AuditEventKind::Granted, Some("a"), None, None, "");
        let second = log.record(AuditEventKind::AccessReleased, Some("a"), None, None, "");
        log.retract(first);
        assert_eq!(log.len(), 2, "not the newest: kept");
        log.retract(second);
        assert_eq!(log.len(), 1);
        assert_eq!(log.record(AuditEventKind::Denied, None, None, None, ""), second);
    }

    #[test]
    fn capacity_bound_evicts_oldest() {
        let mut log = AuditLog::with_capacity(5);
        for i in 0..12 {
            log.record(AuditEventKind::Granted, Some(&format!("u{i}")), None, None, "");
        }
        assert_eq!(log.len(), 5);
        assert_eq!(log.dropped(), 7);
        // The oldest retained event is the 8th one recorded.
        assert_eq!(log.events()[0].subject.as_deref(), Some("u7"));
    }

    #[test]
    fn default_log_is_large_and_empty() {
        let log = AuditLog::default();
        assert!(log.is_empty());
        assert_eq!(log.dropped(), 0);
    }
}
