//! The commit point: where a [`DataServer`] hands each state change to a
//! durability sink.
//!
//! Every mutating operation of the data server — stream registration, the
//! policy plane of Section 3.3, the Section 3.2 workflow, release and
//! ingest — runs as one *record group* of an optional [`CommitLog`]. The
//! group opens before the operation acts; the operation stages the
//! [`Change`] it made; closing the group appends that record, then (for a
//! control-plane group) the audit events the operation recorded, and
//! flushes once. Release is the one write-ahead operation: its record is
//! appended before the grant is withdrawn, so a release the log refuses
//! withdraws nothing. Ingest stages its batch before the push (the push
//! consumes the tuples) and appends it only once the push succeeded.
//!
//! The server holds the log's mutex from the group's opening to its close,
//! so records reach the log in the order their operations were applied.
//! Lock order: commit log → grant table → engine shard. A server without a
//! log — every in-memory shape — skips all of this.

use crate::error::ExacmlError;
use crate::grant_table::Grant;
use crate::server::DataServer;
use exacml_dsms::Tuple;
use std::any::Any;

/// The kind of record group an operation opens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupKind {
    /// A control-plane operation: durable once the group closes.
    Control,
    /// An ingest batch: group-committed, flushed with later records.
    Ingest,
}

/// One state change, as the operation that made it hands it to the log.
/// Changes name what they touched; the log reads the applied state (a
/// stream's schema, a policy document) from the server it is given.
#[derive(Debug, Clone, Copy)]
pub enum Change<'a> {
    /// The stream of this name was registered.
    RegisterStream(&'a str),
    /// The policy of this id was loaded.
    LoadPolicy(&'a str),
    /// The policy of this id was replaced (its grants withdrawn).
    UpdatePolicy(&'a str),
    /// The policy of this id was removed (its grants withdrawn).
    RemovePolicy(&'a str),
    /// A fresh grant, exactly as the grant table records it.
    Grant(&'a Grant),
    /// `subject`'s grant on `stream` is about to be withdrawn.
    Release {
        /// The releasing subject.
        subject: &'a str,
        /// The released stream.
        stream: &'a str,
    },
    /// A batch about to be pushed into `stream`.
    Ingest {
        /// The target stream.
        stream: &'a str,
        /// The batch.
        tuples: &'a [Tuple],
    },
}

/// A durability sink attached to a [`DataServer`]
/// ([`DataServer::attach_commit_log`]). The server calls it under its own
/// lock, in this order per operation: [`CommitLog::begin`], then
/// [`CommitLog::stage`] for the operation's change (with
/// [`CommitLog::append`] at once when the change is written ahead), then
/// [`CommitLog::finish`]. An operation that fails before `finish` leaves
/// the group unclosed, and nothing it staged is appended.
pub trait CommitLog: Any + Send {
    /// The backend kind a server with this log reports.
    fn backend_kind(&self) -> &'static str;

    /// The sticky failure that makes the log refuse every further group,
    /// once one happened.
    fn failure(&self) -> Option<String>;

    /// Open a record group, dropping anything a previous unclosed group
    /// staged.
    ///
    /// # Errors
    /// When the log has failed; the operation must not act.
    fn begin(&mut self, server: &DataServer, kind: GroupKind) -> Result<(), ExacmlError>;

    /// Encode `change` as the group's pending record. Nothing is written.
    ///
    /// # Errors
    /// When the change cannot be encoded.
    fn stage(&mut self, server: &DataServer, change: Change<'_>) -> Result<(), ExacmlError>;

    /// Append the pending record now (write-ahead).
    ///
    /// # Errors
    /// When the write fails; the failure is sticky.
    fn append(&mut self, server: &DataServer) -> Result<(), ExacmlError>;

    /// Close the group: append the pending record, if any; for a control
    /// group, append the audit events recorded since the last group and
    /// flush once; then compact when due.
    ///
    /// # Errors
    /// When a write, the flush or the compaction fails; the failure is
    /// sticky.
    fn finish(&mut self, server: &DataServer) -> Result<(), ExacmlError>;
}
