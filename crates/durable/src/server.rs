//! [`DurableServer`]: a [`DataServer`] whose control-plane state survives a
//! crash.
//!
//! A durable server is a [`DataServer`] with a write-ahead log attached as
//! its [`CommitLog`]. The data server runs every operation once and hands
//! it to the log at its one commit point ([`exacml_plus::commit`]). Each
//! control operation — policy load / remove / update, stream registration,
//! a request (granted or refused), a release — lands in the WAL
//! ([`crate::wal`]) as one record, its audit event plus what replay needs;
//! each ingest batch as one ingest record. The WAL is periodically folded
//! into a compacted snapshot ([`crate::snapshot`]). [`DurableServer`]
//! itself only manages the store: creating and recovering it, snapshots,
//! its files, the failpoint, and the journal marks replication reads.
//! [`DurableServer::recover`] rebuilds the full server — PDP store
//! revision, live handles (with the *same* URIs), single-access-guard
//! state, routing-relevant stream registrations, and the audit trail with
//! its original timestamps — by loading the snapshot and replaying the WAL
//! tail's events, in order, through the ordinary Section 3.2/3.3 workflow,
//! then attaching the log.
//!
//! # Consistency contract
//!
//! * A **control-plane** operation (policies, registrations, grants,
//!   refusals, releases) is durable once its call returns: its record is
//!   framed, checksummed and flushed to the OS before the caller sees `Ok`
//!   (fsynced too when [`DurableConfig::sync_writes`] is set).
//! * **Data-plane** (ingest) records are group-committed: they enter the
//!   writer's 256 KiB buffer in order and drain when it fills, on the next
//!   control-plane record, on snapshot, and on drop. A crash loses at most
//!   that buffered window of *data* — never an acknowledged control-plane
//!   record, which is always flushed past the buffer.
//! * A crash *during* an operation loses at most that unacknowledged
//!   operation: recovery drops the torn tail and replays the longest valid
//!   prefix (see `docs/RECOVERY.md` for the walkthrough).
//! * Replay re-executes journaled operations through the real workflow, so
//!   recovery is, by construction, equivalent to an in-memory server that
//!   executed the same sequence — the property pinned by the equivalence
//!   proptest in `tests/durability.rs`.
//! * If the journal itself fails (disk full, permission lost), the failure
//!   is sticky: the failing operation returns
//!   [`ExacmlError::Durability`] and every later mutating operation is
//!   refused, so the store on disk never silently falls behind the state
//!   in memory.
//!
//! Subscriptions are deliberately *not* journaled: a subscriber channel
//! cannot outlive its process, so consumers re-subscribe with their
//! (recovered) handle after a restart. In-flight window contents are
//! restored only while their ingest records are still in the WAL tail —
//! compaction seals them, which the recovery document spells out.

use crate::record::{
    decode_row, encode_ingest_into, exact_u64, object, text, GrantRecord, Payload, Record,
    MAX_EXACT_U64,
};
use crate::snapshot::{read_snapshot, write_snapshot, Snapshot, StreamEntry};
use crate::wal::{framed_len, read_wal, truncate_to, unframe, FailMode, WalFailpoint, WalWriter};
use crate::{check_format_version, FORMAT_VERSION};
use exacml_dsms::{DeploymentId, StreamHandle, Tuple};
use exacml_plus::{
    AuditEvent, AuditEventKind, CommitLog, DataServer, ExacmlError, GroupKind, NodeServer, Replay,
    ServerConfig, UserQuery,
};
use exacml_simnet::Topology;
use exacml_telemetry::{Metric, Stage};
use exacml_xacml::xml::{parse_policy, write_policy};
use exacml_xacml::Request;
use serde::Content;
use serde_json::Value;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The deployment topologies a durable store can persist by name.
///
/// The simulated-network [`Topology`] is an arbitrary link table; the
/// durable layer persists the *named* presets the builders construct, so a
/// recovered server charges the same simulated hops as the original.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyPreset {
    /// Everything co-located in one process (loopback links).
    Local,
    /// The paper's coordinator/broker/server testbed.
    PaperTestbed,
    /// The "migrate to a commercial cloud" what-if (client crosses a WAN).
    PublicCloud,
}

impl TopologyPreset {
    /// The persisted name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TopologyPreset::Local => "local",
            TopologyPreset::PaperTestbed => "paper_testbed",
            TopologyPreset::PublicCloud => "public_cloud",
        }
    }

    /// Parse a persisted name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<TopologyPreset> {
        [TopologyPreset::Local, TopologyPreset::PaperTestbed, TopologyPreset::PublicCloud]
            .into_iter()
            .find(|preset| preset.name() == name)
    }

    /// Materialize the preset.
    #[must_use]
    pub fn topology(self) -> Topology {
        match self {
            TopologyPreset::Local => Topology::local(),
            TopologyPreset::PaperTestbed => Topology::paper_testbed(),
            TopologyPreset::PublicCloud => Topology::public_cloud(),
        }
    }
}

/// Configuration of a durable server: its data server's behaviour plus
/// the journaling knobs. Persisted to `meta.json` when the store is
/// created, so [`DurableServer::recover`] needs only the path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurableConfig {
    /// The simulated deployment topology (persisted by preset name).
    pub topology: TopologyPreset,
    /// Deploy even when merging raised partial-result warnings.
    pub deploy_on_partial_result: bool,
    /// Seed for the simulated-network sampling.
    pub seed: u64,
    /// Host name minted into stream-handle URIs. Recovery re-mints handles
    /// under the same host, which is what lets them survive verbatim.
    pub dsms_host: String,
    /// fsync every record instead of only flushing to the OS. Survives
    /// power loss, not just process crashes; much slower.
    pub sync_writes: bool,
    /// Fold the journal into a snapshot automatically every this many
    /// records (0 disables automatic compaction; [`DurableServer::snapshot`]
    /// always works). Keeps replay bounded.
    pub snapshot_every: u64,
}

impl Default for DurableConfig {
    fn default() -> Self {
        DurableConfig {
            topology: TopologyPreset::PaperTestbed,
            deploy_on_partial_result: false,
            seed: 42,
            dsms_host: "dsms".to_string(),
            sync_writes: false,
            snapshot_every: 50_000,
        }
    }
}

impl DurableConfig {
    /// A configuration with loopback links (tests, quickstarts).
    #[must_use]
    pub fn local() -> Self {
        DurableConfig { topology: TopologyPreset::Local, ..DurableConfig::default() }
    }

    /// The data server's configuration (plan sharing always on).
    #[must_use]
    pub fn server_config(&self) -> ServerConfig {
        ServerConfig {
            deploy_on_partial_result: self.deploy_on_partial_result,
            topology: self.topology.topology(),
            seed: self.seed,
            dsms_host: self.dsms_host.clone(),
            ..ServerConfig::default()
        }
    }
}

/// What [`DurableServer::recover`] found and did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Whether a snapshot was loaded (false = genesis or WAL-only).
    pub snapshot_loaded: bool,
    /// Live grants restored from the snapshot.
    pub snapshot_grants: usize,
    /// WAL-tail records replayed on top of the snapshot.
    pub wal_records_replayed: usize,
    /// Why the WAL tail was cut short, when it was (the torn bytes were
    /// truncated away so healthy appends can follow).
    pub torn_tail: Option<String>,
}

/// Where the journal stood at one instant ([`DurableServer::flush_journal`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalMark {
    /// How many times this server instance has compacted (folded the WAL
    /// into a snapshot and emptied it). `wal_len` is an offset into *this*
    /// generation's log only: a compaction followed by regrowth can pass an
    /// older offset again with entirely different bytes underneath.
    pub wal_generation: u64,
    /// Length in bytes of the flushed WAL file.
    pub wal_len: u64,
    /// The sequence number the next record will carry: everything below it
    /// is inside `wal_len` (or the snapshot the generation started from).
    pub seq: u64,
}

/// What one control-plane record group journaled: the event record of one
/// operation, appended under one journal lock hold, ending just below
/// `end_seq`. The replicated fabric's barrier ship waits until every mirror
/// acknowledged `end_seq` and charges its round trip for `bytes`, whichever
/// ship carried them.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ControlGroup {
    /// WAL bytes the group appended — its event record; 0 when it
    /// journaled nothing.
    pub(crate) bytes: u64,
    /// The journal sequence after the group's last record: a mirror that
    /// acknowledged it holds the whole group.
    pub(crate) end_seq: u64,
}

/// The write-ahead journal: the [`CommitLog`] a durable server's
/// [`DataServer`] carries. The server holds it under its commit-log mutex
/// for a whole record group, so records land in the WAL in the order their
/// operations were applied.
struct Journal {
    wal: WalWriter,
    /// The store directory: compaction writes the snapshot here.
    store: PathBuf,
    /// [`DurableConfig::snapshot_every`].
    snapshot_every: u64,
    next_seq: u64,
    records_since_snapshot: u64,
    /// The first audit sequence number not yet journaled.
    next_audit_seq: u64,
    /// One past the largest deployment id ever minted.
    next_deployment_id: u64,
    /// One past the largest handle serial ever journaled, including grants
    /// since released. Recovery adopts live grants' URIs verbatim, so fresh
    /// mints must start above every serial that was ever handed out.
    next_handle_serial: u64,
    /// The staged ingest record's payload, empty when none is staged,
    /// reused from record to record (the hot ingest path allocates nothing
    /// once warm).
    scratch: String,
    /// The kind of the open (or last) record group.
    kind: GroupKind,
    /// The current (or last) control-plane record group.
    control_group: ControlGroup,
    /// A journaling failure is sticky: once an append fails, every further
    /// mutating operation is refused so the disk never silently lags memory.
    failed: Option<String>,
}

impl Journal {
    /// A journal appending to the store's WAL, every counter at zero.
    fn open(store: &Path, config: &DurableConfig) -> Result<Journal, ExacmlError> {
        let wal = WalWriter::open(store.join(WAL_FILE), config.sync_writes)
            .map_err(|e| durability("open WAL", e))?;
        Ok(Journal {
            wal,
            store: store.to_path_buf(),
            snapshot_every: config.snapshot_every,
            next_seq: 0,
            records_since_snapshot: 0,
            next_audit_seq: 0,
            next_deployment_id: 0,
            next_handle_serial: 0,
            scratch: String::new(),
            kind: GroupKind::Control,
            control_group: ControlGroup::default(),
            failed: None,
        })
    }

    fn check_health(&self) -> Result<(), ExacmlError> {
        match &self.failed {
            Some(failure) => Err(ExacmlError::Durability(format!(
                "journal failed earlier ({failure}); refusing further mutations"
            ))),
            None => Ok(()),
        }
    }

    /// Record a journaling failure: it is sticky.
    fn fail(&mut self, context: &str, error: impl std::fmt::Display) -> ExacmlError {
        let failure = error.to_string();
        self.failed = Some(failure.clone());
        durability(context, failure)
    }

    /// Buffered append plus sequencing bookkeeping (sticky on failure).
    /// Records become durable at the next [`Journal::flush`] (control
    /// groups) or group-commit drain (ingest).
    fn write(&mut self, server: &DataServer, payload: &str) -> Result<(), ExacmlError> {
        // WAL appends are real file I/O, so the wall clock (not the virtual
        // clock) is the honest measure here.
        let telemetry = server.telemetry_registry();
        let started = telemetry.is_enabled().then(Instant::now);
        let appended = self.wal.append_buffered(payload);
        if let Some(started) = started {
            telemetry.record(Stage::WalAppend, started.elapsed());
        }
        appended.map_err(|e| self.fail("append to WAL", e))?;
        telemetry.incr(Metric::WalRecords);
        self.next_seq += 1;
        self.records_since_snapshot += 1;
        if self.kind == GroupKind::Control {
            self.control_group.bytes += framed_len(payload);
            self.control_group.end_seq = self.next_seq;
        }
        Ok(())
    }

    /// Drain everything buffered to the OS in one flush.
    fn flush(&mut self, server: &DataServer) -> Result<(), ExacmlError> {
        let telemetry = server.telemetry_registry();
        let started = telemetry.is_enabled().then(Instant::now);
        let flushed = self.wal.flush();
        if let Some(started) = started {
            telemetry.record(Stage::WalFlush, started.elapsed());
        }
        flushed.map_err(|e| self.fail("flush WAL", e))?;
        telemetry.incr(Metric::WalFlushes);
        Ok(())
    }

    /// Journal every audit event the server recorded since the last pull
    /// as one record each, with what its replay reads from the server now
    /// (including denials: they are part of the accountable trail even
    /// though they mutate nothing else), and flush them. Returns without
    /// a flush when there was nothing to journal: the group's
    /// [`CommitLog::begin`] left the writer empty.
    fn journal_events(&mut self, server: &DataServer) -> Result<(), ExacmlError> {
        let events = server.audit_events_since(self.next_audit_seq);
        if events.is_empty() {
            return Ok(());
        }
        for event in events {
            self.next_audit_seq = event.sequence + 1;
            let payload = self.payload_of(server, &event)?;
            let record = Record::Event { event, payload }
                .encode(self.next_seq)
                .map_err(|e| durability("encode event record", e))?;
            self.write(server, &record)?;
        }
        self.flush(server)
    }

    /// What replay needs for `event`, read from the server the event's
    /// operation just changed; a grant also advances the id counters.
    fn payload_of(
        &mut self,
        server: &DataServer,
        event: &AuditEvent,
    ) -> Result<Payload, ExacmlError> {
        let unknown = || durability("journal event", format!("no state behind {event:?}"));
        let subject = event.subject.as_deref().unwrap_or_default();
        let stream = event.stream.as_deref().unwrap_or_default();
        Ok(match event.kind {
            AuditEventKind::StreamRegistered => {
                Payload::Schema((*server.stream_schema(stream)?).clone())
            }
            AuditEventKind::PolicyLoaded | AuditEventKind::PolicyUpdated => {
                let policy = event.policy_id.as_deref().and_then(|id| server.policy(id));
                Payload::Policy(write_policy(&*policy.ok_or_else(unknown)?))
            }
            AuditEventKind::Granted => {
                let (grant, serial) = server
                    .with_grant(subject, stream, |g| (GrantRecord::of(g), g.handle.serial()))
                    .ok_or_else(unknown)?;
                self.next_deployment_id = self.next_deployment_id.max(grant.deployment + 1);
                self.next_handle_serial = self.next_handle_serial.max(serial.map_or(0, |s| s + 1));
                Payload::Grant(grant)
            }
            _ => Payload::None,
        })
    }

    /// Fold the journal into a fresh snapshot and reset the WAL. Replay
    /// cost after a crash is then bounded by the live state plus whatever
    /// lands in the WAL afterwards.
    fn snapshot(&mut self, server: &DataServer) -> Result<(), ExacmlError> {
        let streams = server
            .stream_names()
            .into_iter()
            .map(|name| {
                server
                    .stream_schema(&name)
                    .map(|schema| StreamEntry { name, schema: (*schema).clone() })
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| durability("snapshot streams", e))?;
        let snapshot = Snapshot {
            wal_horizon: self.next_seq,
            store_revision: server.policy_revision(),
            next_deployment_id: self.next_deployment_id,
            next_handle_serial: self.next_handle_serial,
            streams,
            policies: server.policies().iter().map(|p| write_policy(p)).collect(),
            grants: server.live_grants().iter().map(GrantRecord::of).collect(),
            audit: server.audit_events(),
        };
        write_snapshot(&self.store.join(SNAPSHOT_FILE), &snapshot)
            .map_err(|e| self.fail("write snapshot", e))?;
        self.wal.reset().map_err(|e| self.fail("reset WAL after snapshot", e))?;
        self.records_since_snapshot = 0;
        Ok(())
    }
}

impl CommitLog for Journal {
    fn backend_kind(&self) -> &'static str {
        "durable-server"
    }

    fn failure(&self) -> Option<String> {
        self.failed.clone()
    }

    /// A control group first drains any group-committed ingest backlog, so
    /// a journal that can no longer flush refuses the operation before it
    /// acts, and the group's own flush moves only its own record.
    fn begin(&mut self, server: &DataServer, kind: GroupKind) -> Result<(), ExacmlError> {
        self.scratch.clear();
        self.kind = kind;
        if kind == GroupKind::Ingest {
            return self.check_health();
        }
        self.control_group = ControlGroup { bytes: 0, end_seq: self.next_seq };
        self.check_health()?;
        self.flush(server)
    }

    fn stage_ingest(&mut self, stream: &str, tuples: &[Tuple]) -> Result<(), ExacmlError> {
        encode_ingest_into(&mut self.scratch, self.next_seq, stream, tuples)
            .map_err(|e| durability("encode ingest record", e))
    }

    fn write_ahead(&mut self, server: &DataServer) -> Result<(), ExacmlError> {
        self.journal_events(server)
    }

    fn finish(&mut self, server: &DataServer) -> Result<(), ExacmlError> {
        if !self.scratch.is_empty() {
            let payload = std::mem::take(&mut self.scratch);
            let written = self.write(server, &payload);
            // Left staged until the next group's `begin` clears it.
            self.scratch = payload;
            written?;
        }
        if self.kind == GroupKind::Control {
            self.journal_events(server)?;
        }
        if self.snapshot_every > 0 && self.records_since_snapshot >= self.snapshot_every {
            self.snapshot(server)?;
        }
        Ok(())
    }
}

/// A [`DataServer`] with the WAL journal attached as its commit log, plus
/// the store it journals into. See the module docs for the consistency
/// contract. It dereferences to the data server, and through
/// [`NodeServer`] it is a complete [`exacml_plus::Backend`].
pub struct DurableServer {
    server: DataServer,
    config: DurableConfig,
    path: PathBuf,
    recovery: RecoveryReport,
}

const META_FILE: &str = "meta.json";
const WAL_FILE: &str = "wal.log";
const SNAPSHOT_FILE: &str = "snapshot.json";

fn durability(context: &str, error: impl std::fmt::Display) -> ExacmlError {
    ExacmlError::Durability(format!("{context}: {error}"))
}

/// Encode a configuration as the `meta.json` payload (framing is the
/// WAL's), stamped with [`FORMAT_VERSION`].
#[must_use]
pub fn encode_meta(config: &DurableConfig) -> String {
    let content = object([
        ("version", Content::U64(FORMAT_VERSION)),
        ("topology", text(config.topology.name())),
        ("deploy_on_partial_result", Content::Bool(config.deploy_on_partial_result)),
        ("seed", Content::U64(config.seed)),
        ("dsms_host", text(&config.dsms_host)),
        ("sync_writes", Content::Bool(config.sync_writes)),
        ("snapshot_every", Content::U64(config.snapshot_every)),
    ]);
    serde_json::content_to_string(&content).expect("meta.json holds no floats")
}

/// Decode a parsed `meta.json` payload written by [`encode_meta`].
///
/// # Errors
/// Refuses another format version before reading anything. Otherwise
/// describes the first missing or mistyped key, and refuses a seed or
/// `snapshot_every` no `u64` up to 2^53 writes (see [`exact_u64`]).
pub fn decode_meta(value: &Value) -> Result<DurableConfig, String> {
    check_format_version(value)?;
    let str_of = |key: &str| {
        value.get(key).and_then(Value::as_str).ok_or_else(|| format!("missing string '{key}'"))
    };
    let bool_of = |key: &str| {
        value.get(key).and_then(Value::as_bool).ok_or_else(|| format!("missing boolean '{key}'"))
    };
    let u64_of = |key: &str| {
        value
            .get(key)
            .and_then(exact_u64)
            .ok_or_else(|| format!("'{key}' is not a whole number in 0..=2^53"))
    };
    let topology_name = str_of("topology")?;
    Ok(DurableConfig {
        topology: TopologyPreset::from_name(topology_name)
            .ok_or_else(|| format!("unknown topology preset '{topology_name}'"))?,
        deploy_on_partial_result: bool_of("deploy_on_partial_result")?,
        seed: u64_of("seed")?,
        dsms_host: str_of("dsms_host")?.to_string(),
        sync_writes: bool_of("sync_writes")?,
        snapshot_every: u64_of("snapshot_every")?,
    })
}

fn write_meta(path: &Path, config: &DurableConfig) -> Result<(), ExacmlError> {
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, crate::wal::frame(&encode_meta(config)))
        .map_err(|e| durability("write meta", e))?;
    // fsync before the rename (like the snapshot writer): a power loss must
    // not leave a durable rename pointing at un-persisted data blocks —
    // a torn meta.json would brick every later `recover(path)`.
    let file = std::fs::File::open(&tmp).map_err(|e| durability("reopen meta", e))?;
    file.sync_all().map_err(|e| durability("sync meta", e))?;
    std::fs::rename(&tmp, path).map_err(|e| durability("commit meta", e))
}

/// Read `meta.json`; every failure is a `Durability` error naming the file.
fn read_meta(path: &Path) -> Result<DurableConfig, ExacmlError> {
    let file = format!("read {}", path.display());
    let text = std::fs::read_to_string(path).map_err(|e| durability(&file, e))?;
    let payload = unframe(text.trim_end_matches('\n'))
        .ok_or_else(|| durability(&file, "frame or checksum mismatch"))?;
    serde_json::from_str(payload)
        .map_err(|e| e.to_string())
        .and_then(|value| decode_meta(&value))
        .map_err(|e| durability(&file, e))
}

/// Re-execute one journaled grant at its recorded URI, deployment id and
/// position in grant order ([`Replay::restore_grant`]).
fn replay_grant(
    replay: &Replay,
    grant: &GrantRecord,
    sequence: Option<u64>,
) -> Result<(), ExacmlError> {
    let query = grant.query_xml.as_deref().map(UserQuery::from_xml).transpose()?;
    replay.restore_grant(
        &Request::subscribe(&grant.subject, &grant.stream),
        query.as_ref(),
        &StreamHandle::from_uri(grant.handle.clone()),
        DeploymentId(grant.deployment),
        sequence,
    )
}

impl DurableServer {
    /// Create a fresh store at `path` (the directory is created if needed)
    /// and the server over it.
    ///
    /// # Errors
    /// Fails when `path` already holds a store, when the seed or
    /// `snapshot_every` is above 2^53 (`meta.json` could not carry it
    /// exactly, so a recovered server would run with another value), or on
    /// I/O errors.
    pub fn create(path: impl Into<PathBuf>, config: DurableConfig) -> Result<Self, ExacmlError> {
        let path = path.into();
        for (key, number) in [("seed", config.seed), ("snapshot_every", config.snapshot_every)] {
            if number > MAX_EXACT_U64 {
                return Err(durability(
                    key,
                    format!("{number} is above 2^53, too big for meta.json"),
                ));
            }
        }
        std::fs::create_dir_all(&path).map_err(|e| durability("create store directory", e))?;
        for existing in [META_FILE, WAL_FILE, SNAPSHOT_FILE] {
            if path.join(existing).exists() {
                return Err(ExacmlError::Durability(format!(
                    "{} already holds a store ({existing} exists); use recover",
                    path.display()
                )));
            }
        }
        write_meta(&path.join(META_FILE), &config)?;
        // A fresh store is an empty one: recovering it builds the server.
        Self::recover_with(path, config)
    }

    /// Rebuild the server from the store at `path`: load the snapshot,
    /// truncate any torn WAL tail, replay the remaining records through the
    /// ordinary workflow, and restore the journaled audit trail verbatim.
    ///
    /// Recovery writes nothing (beyond truncating torn bytes), so it is
    /// idempotent: recovering the same store twice yields the same state.
    ///
    /// # Errors
    /// Fails when the store is missing or inconsistent (a snapshot that
    /// does not parse, a replayed operation that diverges from its record).
    pub fn recover(path: impl Into<PathBuf>) -> Result<Self, ExacmlError> {
        let path = path.into();
        let config = read_meta(&path.join(META_FILE))?;
        Self::recover_with(path, config)
    }

    /// [`DurableServer::recover`] with an explicit configuration (for
    /// stores whose `meta.json` was lost, or to override journaling knobs).
    ///
    /// # Errors
    /// As [`DurableServer::recover`].
    pub fn recover_with(
        path: impl Into<PathBuf>,
        config: DurableConfig,
    ) -> Result<Self, ExacmlError> {
        let path = path.into();
        let mut report = RecoveryReport::default();

        let snapshot =
            read_snapshot(&path.join(SNAPSHOT_FILE)).map_err(|e| durability("read snapshot", e))?;
        let wal_path = path.join(WAL_FILE);
        let contents = read_wal(&wal_path).map_err(|e| durability("read WAL", e))?;
        if let Some(tail) = &contents.tail_error {
            report.torn_tail = Some(tail.clone());
            truncate_to(&wal_path, contents.valid_len)
                .map_err(|e| durability("truncate torn WAL tail", e))?;
        }

        // The journal's counters are rebuilt below; nothing is written to it
        // until the replay finishes and attaches it.
        let mut journal = Journal::open(&path, &config)?;
        let replay = Replay::new(config.server_config());
        let mut audit: Vec<AuditEvent> = Vec::new();
        let mut horizon = 0u64;
        let mut store_revision = 0u64;

        if let Some(snapshot) = &snapshot {
            report.snapshot_loaded = true;
            report.snapshot_grants = snapshot.grants.len();
            for entry in &snapshot.streams {
                replay.register_stream(&entry.name, entry.schema.clone())?;
            }
            for xml in &snapshot.policies {
                replay.load_policy(parse_policy(xml)?)?;
            }
            store_revision = snapshot.store_revision;
            audit.clone_from(&snapshot.audit);
            journal.next_deployment_id = snapshot.next_deployment_id;
            journal.next_handle_serial = snapshot.next_handle_serial;
            horizon = snapshot.wal_horizon;
        }

        // Decode the whole WAL tail before replaying anything: replayed
        // grants adopt their journaled handle URIs verbatim, so the serial
        // counter must first clear *every* journaled serial — a deploy
        // during replay must never mint a primary handle that collides with
        // a URI a later grant record is about to adopt.
        journal.next_seq = horizon;
        let mut tail: Vec<Record> = Vec::new();
        for record in &contents.records {
            if record.seq < horizon {
                continue; // Already folded into the snapshot.
            }
            journal.next_seq = record.seq + 1;
            let decoded = crate::record::decode(&record.value)
                .map_err(|e| durability(&format!("decode WAL record {}", record.seq), e))?;
            tail.push(decoded);
        }
        let journaled_serials = snapshot
            .iter()
            .flat_map(|s| s.grants.iter())
            .chain(tail.iter().filter_map(|r| match r {
                Record::Event { payload: Payload::Grant(grant), .. } => Some(grant),
                _ => None,
            }))
            .filter_map(|g| StreamHandle::from_uri(g.handle.clone()).serial());
        for serial in journaled_serials {
            journal.next_handle_serial = journal.next_handle_serial.max(serial + 1);
        }
        replay.resume(0, journal.next_handle_serial, store_revision);

        if let Some(snapshot) = &snapshot {
            // Released grants are pruned from the snapshot, so a plan's
            // surviving sharer can sit *after* grants on younger deployments
            // (deployer released, sharer kept). Replay in deployment order —
            // stable, so grant order within a deployment is preserved — and
            // each plan's first live grant re-mints its deployment id while
            // the counter is still below it. Each grant is restored under
            // its position in the snapshot, so grant order survives.
            let mut by_deployment: Vec<(u64, &GrantRecord)> = (0..).zip(&snapshot.grants).collect();
            by_deployment.sort_by_key(|(_, g)| g.deployment);
            for (sequence, grant) in by_deployment {
                replay_grant(&replay, grant, Some(sequence))?;
            }
        }

        for decoded in tail {
            match decoded {
                // Each event through the call that recorded it; the decision
                // kinds other than `granted` changed nothing and are skipped.
                Record::Event { event, payload } => {
                    let subject = event.subject.as_deref().unwrap_or_default();
                    let stream = event.stream.as_deref().unwrap_or_default();
                    match (event.kind, payload) {
                        (_, Payload::Schema(schema)) => replay.register_stream(stream, schema)?,
                        (AuditEventKind::PolicyUpdated, Payload::Policy(xml)) => {
                            replay.update_policy(parse_policy(&xml)?)?;
                        }
                        (_, Payload::Policy(xml)) => drop(replay.load_policy(parse_policy(&xml)?)?),
                        (_, Payload::Grant(grant)) => {
                            replay_grant(&replay, &grant, None)?;
                            journal.next_deployment_id =
                                journal.next_deployment_id.max(grant.deployment + 1);
                        }
                        (AuditEventKind::PolicyRemoved, _) => {
                            replay.remove_policy(event.policy_id.as_deref().unwrap_or_default())?;
                        }
                        (AuditEventKind::AccessReleased, _) => {
                            replay.release_access(subject, stream);
                        }
                        _ => {}
                    }
                    audit.push(event);
                }
                Record::Ingest { stream, rows } => {
                    let schema = replay
                        .stream_schema(&stream)
                        .map_err(|e| durability("ingest replay", e))?;
                    let tuples = rows
                        .iter()
                        .map(|cells| {
                            decode_row(&schema, cells)
                                .and_then(|row| Tuple::new(schema.clone(), row))
                        })
                        .collect::<Result<Vec<_>, _>>()
                        .map_err(|e| durability("ingest replay", e))?;
                    replay.push_batch(&stream, tuples)?;
                }
            }
            report.wal_records_replayed += 1;
            journal.records_since_snapshot += 1;
        }

        // The replay ran without a log attached, so it journaled nothing;
        // it did regenerate audit events with fresh timestamps, and the
        // journaled trail — the events just replayed — is authoritative.
        journal.next_audit_seq = audit.iter().map(|e| e.sequence + 1).max().unwrap_or(0);
        replay.resume(journal.next_deployment_id, journal.next_handle_serial, 0);
        let server = replay.finish(audit, journal);
        Ok(DurableServer { server, config, path, recovery: report })
    }

    /// Open the store at `path`: recover it when it exists, create it with
    /// `config` otherwise.
    ///
    /// # Errors
    /// As [`DurableServer::create`] / [`DurableServer::recover`].
    pub fn open(path: impl Into<PathBuf>, config: DurableConfig) -> Result<Self, ExacmlError> {
        let path = path.into();
        if path.join(META_FILE).exists() {
            DurableServer::recover(path)
        } else {
            DurableServer::create(path, config)
        }
    }

    // --- observability ------------------------------------------------------

    /// The data server, with this store's journal attached.
    #[must_use]
    pub fn inner(&self) -> &DataServer {
        &self.server
    }

    /// The store's directory.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The configuration the store was created (or recovered) with.
    #[must_use]
    pub fn config(&self) -> &DurableConfig {
        &self.config
    }

    /// What the construction found on disk (all-default for a fresh store).
    #[must_use]
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// The live grants in grant order — exactly what the next snapshot will
    /// carry and the next recovery will replay. Under plan sharing several
    /// entries may carry the same deployment id.
    #[must_use]
    pub fn live_grants(&self) -> Vec<GrantRecord> {
        self.server.live_grants().iter().map(GrantRecord::of).collect()
    }

    /// Run `f` on the journal under the commit-log lock.
    fn journal<R>(&self, f: impl FnOnce(&mut Journal, &DataServer) -> R) -> R {
        let journaled = self.server.with_commit_log(|journal| f(journal, &self.server));
        journaled.expect("a durable server is built by `Replay::finish` with its journal")
    }

    /// Journal records appended since the last snapshot (the WAL tail a
    /// crash right now would replay).
    #[must_use]
    pub fn wal_tail_len(&self) -> u64 {
        self.journal(|journal, _| journal.records_since_snapshot)
    }

    /// The journal's sequence number for the *next* record — a monotone
    /// measure of how much state this store has journaled (replication lag
    /// is a difference of these).
    #[must_use]
    pub fn journal_seq(&self) -> u64 {
        self.journal(|journal, _| journal.next_seq)
    }

    /// What the last control-plane record group journaled (see
    /// [`ControlGroup`]).
    #[must_use]
    pub(crate) fn last_control_group(&self) -> ControlGroup {
        self.journal(|journal, _| journal.control_group)
    }

    /// The sticky journal failure, when one happened: the disk fault that
    /// made the store refuse further mutations. `None` while healthy.
    #[must_use]
    pub fn journal_failure(&self) -> Option<String> {
        self.journal(|journal, _| journal.failed.clone())
    }

    /// The WAL file of this store.
    #[must_use]
    pub fn wal_path(&self) -> PathBuf {
        self.path.join(WAL_FILE)
    }

    /// The snapshot file of this store.
    #[must_use]
    pub fn snapshot_path(&self) -> PathBuf {
        self.path.join(SNAPSHOT_FILE)
    }

    /// The meta file of this store.
    #[must_use]
    pub fn meta_path(&self) -> PathBuf {
        self.path.join(META_FILE)
    }

    /// Drain the group-commit buffer to the OS, making every acknowledged
    /// ingest record visible in the WAL file, and report where the journal
    /// then stands — all under the journal lock, so the three readings of
    /// the [`JournalMark`] belong to the same instant (replication shippers
    /// copy up to exactly this mark).
    ///
    /// # Errors
    /// Propagates (sticky) journaling failures.
    pub fn flush_journal(&self) -> Result<JournalMark, ExacmlError> {
        self.journal(|journal, server| {
            journal.check_health()?;
            journal.flush(server)?;
            let wal_len = journal.wal.file_len().map_err(|e| durability("stat WAL", e))?;
            let wal_generation = journal.wal.generation();
            Ok(JournalMark { wal_generation, wal_len, seq: journal.next_seq })
        })
    }

    /// The WAL's current generation (see [`JournalMark::wal_generation`]).
    #[must_use]
    pub fn wal_generation(&self) -> u64 {
        self.journal(|journal, _| journal.wal.generation())
    }

    /// A shared handle to the WAL writer's error-injecting shim (see
    /// [`WalFailpoint`]); arming it makes subsequent journal writes fail in
    /// the chosen [`FailMode`], which the journal then treats exactly like
    /// a real disk fault — sticky refusal of further mutations.
    #[must_use]
    pub fn wal_failpoint(&self) -> std::sync::Arc<WalFailpoint> {
        self.journal(|journal, _| journal.wal.failpoint())
    }

    /// Arm the WAL failpoint with a failure mode (convenience for
    /// [`DurableServer::wal_failpoint`]`.arm(mode)`).
    pub fn install_wal_failpoint(&self, mode: FailMode) {
        self.wal_failpoint().arm(mode);
    }

    /// Fold the journal into a fresh snapshot and reset the WAL. Replay
    /// cost after a crash is then bounded by the live state plus whatever
    /// lands in the WAL afterwards.
    ///
    /// # Errors
    /// Propagates I/O errors (which are sticky, like append failures).
    pub fn snapshot(&self) -> Result<(), ExacmlError> {
        self.journal(|journal, server| {
            journal.check_health()?;
            journal.snapshot(server)
        })
    }
}

impl Deref for DurableServer {
    type Target = DataServer;

    fn deref(&self) -> &DataServer {
        &self.server
    }
}

impl NodeServer for DurableServer {
    fn data_server(&self) -> &DataServer {
        &self.server
    }
}
