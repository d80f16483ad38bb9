//! The commit point: where a [`DataServer`] hands each state change to a
//! durability sink.
//!
//! Every mutating operation of the data server — stream registration, the
//! policy plane of Section 3.3, the Section 3.2 workflow, release and
//! ingest — runs as one *record group* of an optional [`CommitLog`]. The
//! group opens before the operation acts and closes after it. A control
//! operation's record is its audit event: closing a control group journals
//! each event the operation recorded, as one record each, and flushes once.
//! Release is the one write-ahead operation: its event is journaled and
//! flushed before the grant is withdrawn, so a release the log refuses
//! withdraws nothing. Ingest hands its batch over before the push (the
//! push consumes the tuples), and the batch is appended only once the push
//! succeeded.
//!
//! The server holds the log's mutex from the group's opening to its close,
//! so records reach the log in the order their operations were applied.
//! Lock order: commit log → grant table → engine shard. A server without a
//! log — every in-memory shape — skips all of this.
//!
//! **One door.** The commit point sees every state change because there is
//! no other way to make one: each mutation is a method of [`DataServer`]
//! that opens a group, and a `&DataServer` lends only read-only views — no
//! engine, no policy store, no recovery hook. Only the rebuild type,
//! [`Replay`], attaches a log ([`Replay::finish`]): it owns the fresh
//! server it replays a journal into, so a log is never attached to a
//! server anyone else already holds, and the owner of a log type reaches
//! it again only through [`DataServer::with_commit_log`], which needs the
//! concrete type.
//!
//! [`Replay`]: crate::Replay
//! [`Replay::finish`]: crate::Replay::finish

use crate::error::ExacmlError;
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

/// A durability sink attached to a [`DataServer`] by [`Replay::finish`].
/// The server calls it under its own lock, in this order per operation:
/// [`CommitLog::begin`], then [`CommitLog::stage_ingest`] for an ingest
/// batch or [`CommitLog::write_ahead`] for a write-ahead event, then
/// [`CommitLog::finish`]. An operation that fails before `finish` leaves
/// the group unclosed, and its staged batch is never appended.
///
/// A log reads what replay needs for an event (a stream's schema, a policy
/// document, a grant) from the server it is given, under its own lock.
///
/// [`Replay::finish`]: crate::Replay::finish
pub trait CommitLog: Any + Send {
    /// The backend kind a server with this log reports.
    fn backend_kind(&self) -> &'static str;

    /// The sticky failure that makes the log refuse every further group,
    /// once one happened.
    fn failure(&self) -> Option<String>;

    /// Open a record group, dropping a batch a previous unclosed group
    /// staged.
    ///
    /// # Errors
    /// When the log has failed; the operation must not act.
    fn begin(&mut self, server: &DataServer, kind: GroupKind) -> Result<(), ExacmlError>;

    /// Encode the ingest batch about to be pushed into `stream` as the
    /// group's pending record. Nothing is written.
    ///
    /// # Errors
    /// When the batch cannot be encoded.
    fn stage_ingest(&mut self, stream: &str, tuples: &[Tuple]) -> Result<(), ExacmlError>;

    /// Journal the audit events recorded since the last group and flush
    /// them now, before the operation applies what they record.
    ///
    /// # Errors
    /// When a write or the flush fails; the failure is sticky.
    fn write_ahead(&mut self, server: &DataServer) -> Result<(), ExacmlError>;

    /// Close the group: append the staged ingest batch, if any; for a
    /// control group, journal the audit events recorded since the last
    /// group and flush once; then compact when due.
    ///
    /// # Errors
    /// When a write, the flush or the compaction fails; the failure is
    /// sticky.
    fn finish(&mut self, server: &DataServer) -> Result<(), ExacmlError>;
}
