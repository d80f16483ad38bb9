//! [`DurableServer`]: a [`DataServer`] whose control-plane state survives a
//! crash.
//!
//! The wrapper journals every state-mutating operation — policy load /
//! remove / update, stream registration, access grants and releases, the
//! audit trail, and tuple ingest — into a write-ahead log
//! ([`crate::wal`]) and periodically folds the journal into a compacted
//! snapshot ([`crate::snapshot`]). [`DurableServer::recover`] rebuilds the
//! full server — PDP store revision, live handles (with the *same* URIs),
//! single-access-guard state, routing-relevant stream registrations, and
//! the audit trail with its original timestamps — by loading the snapshot
//! and replaying the WAL tail through the ordinary Section 3.2/3.3
//! workflow.
//!
//! # Consistency contract
//!
//! * A **control-plane** operation (policies, registrations, grants,
//!   releases, audit) is durable once its call returns: the record is
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

use crate::record::{decode_row, encode_ingest_into, GrantRecord, Record};
use crate::snapshot::{read_snapshot, write_snapshot, Snapshot, StreamEntry};
use crate::wal::{read_wal, truncate_to, unframe, FailMode, WalFailpoint, WalWriter};
use exacml_dsms::{Schema, StreamHandle, Tuple};
use exacml_plus::{
    AccessControl, AuditEvent, Backend, BackendHealth, BackendResponse, DataServer, ExacmlError,
    NodeServer, PolicyAdmin, ServerConfig, StreamBackend, Subscription, TaggedAuditEvent,
    UserQuery,
};
use exacml_simnet::{NodeId, Topology};
use exacml_telemetry::{Metric, Stage, TelemetrySnapshot};
use exacml_xacml::xml::{parse_policy, write_policy};
use exacml_xacml::{Policy, Request};
use parking_lot::Mutex;
use serde::Content;
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

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
        match name {
            "local" => Some(TopologyPreset::Local),
            "paper_testbed" => Some(TopologyPreset::PaperTestbed),
            "public_cloud" => Some(TopologyPreset::PublicCloud),
            _ => None,
        }
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

/// Configuration of a durable server: the wrapped server's behaviour plus
/// the journaling knobs. Persisted to `meta.json` when the store is
/// created, so [`DurableServer::recover`] needs only the path.
#[derive(Debug, Clone)]
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
    /// `ServerConfig::share_plans` of the wrapped server: overlapping
    /// grants ride one compiled subgraph. Persisted because recovery must
    /// rebuild the same plan topology the journal was written under.
    pub share_plans: bool,
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
            share_plans: true,
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

    /// The wrapped server's configuration.
    #[must_use]
    pub fn server_config(&self) -> ServerConfig {
        ServerConfig {
            deploy_on_partial_result: self.deploy_on_partial_result,
            topology: self.topology.topology(),
            seed: self.seed,
            dsms_host: self.dsms_host.clone(),
            share_plans: self.share_plans,
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

/// Journal-side state, guarded by one mutex so records land in the WAL in
/// the order their operations were applied.
struct Journal {
    wal: WalWriter,
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
    /// Reusable encode buffer for ingest records (the hot path allocates
    /// nothing once warm).
    scratch: String,
    /// A journaling failure is sticky: once an append fails, every further
    /// mutating operation is refused so the disk never silently lags memory.
    failed: Option<String>,
}

/// A [`DataServer`] wrapped in WAL + snapshot persistence. See the module
/// docs for the consistency contract.
pub struct DurableServer {
    inner: DataServer,
    config: DurableConfig,
    path: PathBuf,
    journal: Mutex<Journal>,
    recovery: RecoveryReport,
}

const META_FILE: &str = "meta.json";
const WAL_FILE: &str = "wal.log";
const SNAPSHOT_FILE: &str = "snapshot.json";

fn durability(context: &str, error: impl std::fmt::Display) -> ExacmlError {
    ExacmlError::Durability(format!("{context}: {error}"))
}

fn write_meta(path: &Path, config: &DurableConfig) -> Result<(), ExacmlError> {
    let content = Content::Map(vec![
        ("version".to_string(), Content::U64(1)),
        ("topology".to_string(), Content::Str(config.topology.name().to_string())),
        ("deploy_on_partial_result".to_string(), Content::Bool(config.deploy_on_partial_result)),
        ("seed".to_string(), Content::U64(config.seed)),
        ("dsms_host".to_string(), Content::Str(config.dsms_host.clone())),
        ("share_plans".to_string(), Content::Bool(config.share_plans)),
        ("sync_writes".to_string(), Content::Bool(config.sync_writes)),
        ("snapshot_every".to_string(), Content::U64(config.snapshot_every)),
    ]);
    let payload =
        serde_json::content_to_string(&content).map_err(|e| durability("encode meta", e))?;
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, crate::wal::frame(&payload)).map_err(|e| durability("write meta", e))?;
    // fsync before the rename (like the snapshot writer): a power loss must
    // not leave a durable rename pointing at un-persisted data blocks —
    // a torn meta.json would brick every later `recover(path)`.
    let file = std::fs::File::open(&tmp).map_err(|e| durability("reopen meta", e))?;
    file.sync_all().map_err(|e| durability("sync meta", e))?;
    std::fs::rename(&tmp, path).map_err(|e| durability("commit meta", e))
}

fn read_meta(path: &Path) -> Result<DurableConfig, ExacmlError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| durability(&format!("read {}", path.display()), e))?;
    let payload = unframe(text.trim_end_matches('\n'))
        .ok_or_else(|| durability("read meta", "frame or checksum mismatch"))?;
    let value: Value = serde_json::from_str(payload).map_err(|e| durability("parse meta", e))?;
    let bool_of = |key: &str| {
        value
            .get(key)
            .and_then(Value::as_bool)
            .ok_or_else(|| durability("parse meta", format!("missing boolean '{key}'")))
    };
    // Stores written while these were settings carry them as keys. The code
    // now fixes each to one value, so a store that ran with another value is
    // refused rather than recovered under a merge rule or ingest journaling
    // that would change what its grants deliver.
    for (key, fixed) in [("map_union", false), ("simplify_filters", true), ("journal_ingest", true)]
    {
        if value.get(key).is_some_and(|found| found.as_bool() != Some(fixed)) {
            return Err(durability(
                "parse meta",
                format!("'{key}' is not {fixed}: this version supports no other value"),
            ));
        }
    }
    let topology_name = value
        .get("topology")
        .and_then(Value::as_str)
        .ok_or_else(|| durability("parse meta", "missing 'topology'"))?;
    Ok(DurableConfig {
        topology: TopologyPreset::from_name(topology_name).ok_or_else(|| {
            durability("parse meta", format!("unknown topology preset '{topology_name}'"))
        })?,
        deploy_on_partial_result: bool_of("deploy_on_partial_result")?,
        seed: value.get("seed").and_then(Value::as_f64).unwrap_or(42.0) as u64,
        dsms_host: value.get("dsms_host").and_then(Value::as_str).unwrap_or("dsms").to_string(),
        // Default-tolerant, and deliberately *off* for stores written
        // before plan sharing: their journals minted one deployment per
        // grant, and replay must reproduce those deployment ids exactly.
        share_plans: value.get("share_plans").and_then(Value::as_bool).unwrap_or(false),
        sync_writes: bool_of("sync_writes")?,
        snapshot_every: value.get("snapshot_every").and_then(Value::as_f64).unwrap_or(0.0) as u64,
    })
}

impl DurableServer {
    /// Create a fresh store at `path` (the directory is created if needed)
    /// and the server over it.
    ///
    /// # Errors
    /// Fails when `path` already holds a store, or on I/O errors.
    pub fn create(path: impl Into<PathBuf>, config: DurableConfig) -> Result<Self, ExacmlError> {
        let path = path.into();
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
        let wal = WalWriter::open(path.join(WAL_FILE), config.sync_writes)
            .map_err(|e| durability("open WAL", e))?;
        let inner = DataServer::new(config.server_config());
        Ok(DurableServer {
            inner,
            config,
            path,
            journal: Mutex::new(Journal {
                wal,
                next_seq: 0,
                records_since_snapshot: 0,
                next_audit_seq: 0,
                next_deployment_id: 0,
                next_handle_serial: 0,
                scratch: String::new(),
                failed: None,
            }),
            recovery: RecoveryReport::default(),
        })
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

        let inner = DataServer::new(config.server_config());
        let mut audit: Vec<AuditEvent> = Vec::new();
        let mut next_deployment_id = 0u64;
        let mut next_handle_serial = 0u64;
        let mut horizon = 0u64;

        if let Some(snapshot) = &snapshot {
            report.snapshot_loaded = true;
            report.snapshot_grants = snapshot.grants.len();
            for entry in &snapshot.streams {
                inner.register_stream(&entry.name, entry.schema.clone())?;
            }
            for xml in &snapshot.policies {
                inner.load_policy(parse_policy(xml)?)?;
            }
            inner.policy_store().resume_revision_at(snapshot.store_revision);
            audit.clone_from(&snapshot.audit);
            next_deployment_id = snapshot.next_deployment_id;
            next_handle_serial = snapshot.next_handle_serial;
            horizon = snapshot.wal_horizon;
        }

        // Decode the whole WAL tail before replaying anything: replayed
        // grants adopt their journaled handle URIs verbatim, so the serial
        // counter must first clear *every* journaled serial — a deploy
        // during replay must never mint a primary handle that collides with
        // a URI a later grant record is about to adopt.
        let mut next_seq = horizon;
        let mut tail: Vec<Record> = Vec::new();
        for record in &contents.records {
            if record.seq < horizon {
                continue; // Already folded into the snapshot.
            }
            next_seq = record.seq + 1;
            let decoded = crate::record::decode(&record.value)
                .map_err(|e| durability(&format!("decode WAL record {}", record.seq), e))?;
            tail.push(decoded);
        }
        let journaled_serials = snapshot
            .iter()
            .flat_map(|s| s.grants.iter())
            .chain(tail.iter().filter_map(|r| match r {
                Record::Grant(grant) => Some(grant),
                _ => None,
            }))
            .filter_map(|g| StreamHandle::from_uri(g.handle.clone()).serial());
        for serial in journaled_serials {
            next_handle_serial = next_handle_serial.max(serial + 1);
        }
        inner.engine().resume_handle_serial_at(next_handle_serial);

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
                Self::replay_grant(&inner, grant, Some(sequence))?;
            }
        }

        for decoded in tail {
            match decoded {
                Record::RegisterStream { name, schema } => {
                    inner.register_stream(&name, schema)?;
                }
                Record::LoadPolicy { xml } => {
                    inner.load_policy(parse_policy(&xml)?)?;
                }
                Record::RemovePolicy { id } => {
                    inner.remove_policy(&id)?;
                }
                Record::UpdatePolicy { xml } => {
                    inner.update_policy(parse_policy(&xml)?)?;
                }
                Record::Grant(grant) => {
                    Self::replay_grant(&inner, &grant, None)?;
                    next_deployment_id = next_deployment_id.max(grant.deployment + 1);
                }
                Record::Release { subject, stream } => {
                    inner.release_access(&subject, &stream);
                }
                Record::Audit(event) => audit.push(event),
                Record::Ingest { stream, rows } => {
                    let schema = inner
                        .engine()
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
                    inner.push_batch(&stream, tuples)?;
                }
            }
            report.wal_records_replayed += 1;
        }

        // The replay regenerated audit events with fresh timestamps; the
        // journaled trail is authoritative.
        let next_audit_seq = audit.iter().map(|e| e.sequence + 1).max().unwrap_or(0);
        inner.restore_audit(audit);
        inner.engine().resume_ids_at(next_deployment_id);
        inner.engine().resume_handle_serial_at(next_handle_serial);

        let wal = WalWriter::open(&wal_path, config.sync_writes)
            .map_err(|e| durability("open WAL", e))?;
        Ok(DurableServer {
            inner,
            path,
            journal: Mutex::new(Journal {
                wal,
                next_seq,
                records_since_snapshot: report.wal_records_replayed as u64,
                next_audit_seq,
                next_deployment_id,
                next_handle_serial,
                scratch: String::new(),
                failed: None,
            }),
            recovery: report,
            config,
        })
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

    /// Re-execute one journaled grant through the real workflow, adopting
    /// the journaled handle URI verbatim ([`DataServer::restore_grant`]).
    /// Serial arithmetic cannot reproduce the URI: released grants are
    /// pruned from the journal, so the serials they consumed are invisible
    /// to replay. The engine's deployment-id counter *is* resumed at the
    /// recorded id first — replay visits deploying grants in minting order
    /// (the WAL tail is chronological and snapshot grants are sorted by
    /// deployment id), so the workflow re-mints the same ids, and a shared
    /// grant's recorded id is the deployment its plan already rides — a
    /// sharer simply cache-hits the live plan. Divergence on
    /// either the URI or the deployment id means the journal and the
    /// workflow disagree and the store cannot be trusted.
    fn replay_grant(
        inner: &DataServer,
        grant: &GrantRecord,
        sequence: Option<u64>,
    ) -> Result<(), ExacmlError> {
        inner.engine().resume_ids_at(grant.deployment);
        let query = grant.query_xml.as_deref().map(UserQuery::from_xml).transpose()?;
        let handle = StreamHandle::from_uri(grant.handle.clone());
        let response = inner
            .restore_grant(
                &Request::subscribe(&grant.subject, &grant.stream),
                query.as_ref(),
                &handle,
                sequence,
            )
            .map_err(|e| {
                durability(&format!("replay grant {} on '{}'", grant.subject, grant.stream), e)
            })?;
        if response.reused
            || response.handle.uri() != grant.handle
            || response.deployment.0 != grant.deployment
        {
            return Err(ExacmlError::Durability(format!(
                "journal replay diverged: grant for '{}' on '{}' re-minted {} on deployment {} \
                 (reused: {}), journal says {} on deployment {}",
                grant.subject,
                grant.stream,
                response.handle,
                response.deployment.0,
                response.reused,
                grant.handle,
                grant.deployment
            )));
        }
        Ok(())
    }

    // --- observability ------------------------------------------------------

    /// The wrapped in-memory server.
    #[must_use]
    pub fn inner(&self) -> &DataServer {
        &self.inner
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

    /// Number of loaded policies.
    #[must_use]
    pub fn policy_count(&self) -> usize {
        self.inner.policy_count()
    }

    /// The live grants in grant order — exactly what the next snapshot will
    /// carry and the next recovery will replay. Under plan sharing several
    /// entries may carry the same deployment id.
    #[must_use]
    pub fn live_grants(&self) -> Vec<GrantRecord> {
        self.inner
            .live_grants()
            .into_iter()
            .map(|grant| GrantRecord {
                subject: grant.subject,
                stream: grant.stream,
                query_xml: grant.user_query.as_ref().map(UserQuery::to_xml),
                deployment: grant.deployment.0,
                handle: grant.handle.uri().to_string(),
            })
            .collect()
    }

    /// Journal records appended since the last snapshot (the WAL tail a
    /// crash right now would replay).
    #[must_use]
    pub fn wal_tail_len(&self) -> u64 {
        self.journal.lock().records_since_snapshot
    }

    /// The journal's sequence number for the *next* record — a monotone
    /// measure of how much state this store has journaled (replication lag
    /// is a difference of these).
    #[must_use]
    pub fn journal_seq(&self) -> u64 {
        self.journal.lock().next_seq
    }

    /// The sticky journal failure, when one happened: the disk fault that
    /// made the store refuse further mutations. `None` while healthy.
    #[must_use]
    pub fn journal_failure(&self) -> Option<String> {
        self.journal.lock().failed.clone()
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
        let mut journal = self.journal.lock();
        Self::check_health(&journal)?;
        self.commit(&mut journal)?;
        let wal_len = journal.wal.file_len().map_err(|e| durability("stat WAL", e))?;
        Ok(JournalMark { wal_generation: journal.wal.generation(), wal_len, seq: journal.next_seq })
    }

    /// The WAL's current generation (see [`JournalMark::wal_generation`]).
    #[must_use]
    pub fn wal_generation(&self) -> u64 {
        self.journal.lock().wal.generation()
    }

    /// A shared handle to the WAL writer's error-injecting shim (see
    /// [`WalFailpoint`]); arming it makes subsequent journal writes fail in
    /// the chosen [`FailMode`], which the journal then treats exactly like
    /// a real disk fault — sticky refusal of further mutations.
    #[must_use]
    pub fn wal_failpoint(&self) -> std::sync::Arc<WalFailpoint> {
        self.journal.lock().wal.failpoint()
    }

    /// Arm the WAL failpoint with a failure mode (convenience for
    /// [`DurableServer::wal_failpoint`]`.arm(mode)`).
    pub fn install_wal_failpoint(&self, mode: FailMode) {
        self.wal_failpoint().arm(mode);
    }

    // --- journaling ---------------------------------------------------------

    fn check_health(journal: &Journal) -> Result<(), ExacmlError> {
        match &journal.failed {
            Some(failure) => Err(ExacmlError::Durability(format!(
                "journal failed earlier ({failure}); refusing further mutations"
            ))),
            None => Ok(()),
        }
    }

    fn append(&self, journal: &mut Journal, record: &Record) -> Result<(), ExacmlError> {
        let payload = record
            .encode(journal.next_seq)
            .map_err(|e| durability(&format!("encode {} record", record.op()), e))?;
        self.append_payload(journal, &payload)
    }

    /// Buffered append plus sequencing bookkeeping (sticky on failure).
    /// Records become durable at the next [`DurableServer::commit`]
    /// (control-plane operations) or group-commit drain (ingest).
    fn append_payload(&self, journal: &mut Journal, payload: &str) -> Result<(), ExacmlError> {
        // WAL appends are real file I/O, so the wall clock (not the virtual
        // clock) is the honest measure here.
        let telemetry = self.inner.telemetry_registry();
        let started = telemetry.is_enabled().then(Instant::now);
        let appended = journal.wal.append_buffered(payload);
        telemetry.incr(Metric::WalRecords);
        if let Some(started) = started {
            telemetry.record(Stage::WalAppend, started.elapsed());
        }
        if let Err(e) = appended {
            let failure = e.to_string();
            journal.failed = Some(failure.clone());
            return Err(durability("append to WAL", failure));
        }
        journal.next_seq += 1;
        journal.records_since_snapshot += 1;
        Ok(())
    }

    /// Drain everything this operation appended to the OS in one flush —
    /// the op record and its audit events land together, so a process
    /// crash cannot persist half an operation's records (e.g. a live grant
    /// with no `Granted` audit entry). Only sound when the group started
    /// with an empty writer buffer — see [`DurableServer::begin_control`].
    fn commit(&self, journal: &mut Journal) -> Result<(), ExacmlError> {
        let telemetry = self.inner.telemetry_registry();
        let started = telemetry.is_enabled().then(Instant::now);
        let flushed = journal.wal.flush();
        telemetry.incr(Metric::WalFlushes);
        if let Some(started) = started {
            telemetry.record(Stage::WalFlush, started.elapsed());
        }
        if let Err(e) = flushed {
            let failure = e.to_string();
            journal.failed = Some(failure.clone());
            return Err(durability("flush WAL", failure));
        }
        Ok(())
    }

    /// Start a control-plane record group: check the journal is healthy and
    /// drain any group-committed ingest backlog first. Without this, a
    /// nearly-full writer buffer could auto-drain *between* the group's
    /// records (persisting, say, a grant without its audit event); with it,
    /// the whole group fits the empty 256 KiB buffer and reaches the OS in
    /// the single flush [`DurableServer::commit`] performs.
    fn begin_control(&self, journal: &mut Journal) -> Result<(), ExacmlError> {
        Self::check_health(journal)?;
        self.commit(journal)
    }

    /// Journal every audit event the wrapped server recorded since the last
    /// pull (including for denied requests — denials are part of the
    /// accountable trail even though they mutate nothing else).
    fn journal_audit(&self, journal: &mut Journal) -> Result<(), ExacmlError> {
        for event in self.inner.audit_events_since(journal.next_audit_seq) {
            journal.next_audit_seq = event.sequence + 1;
            self.append(journal, &Record::Audit(event))?;
        }
        Ok(())
    }

    fn maybe_compact(&self, journal: &mut Journal) -> Result<(), ExacmlError> {
        if self.config.snapshot_every > 0
            && journal.records_since_snapshot >= self.config.snapshot_every
        {
            self.snapshot_locked(journal)?;
        }
        Ok(())
    }

    /// Fold the journal into a fresh snapshot and reset the WAL. Replay
    /// cost after a crash is then bounded by the live state plus whatever
    /// lands in the WAL afterwards.
    ///
    /// # Errors
    /// Propagates I/O errors (which are sticky, like append failures).
    pub fn snapshot(&self) -> Result<(), ExacmlError> {
        let mut journal = self.journal.lock();
        Self::check_health(&journal)?;
        self.snapshot_locked(&mut journal)
    }

    fn snapshot_locked(&self, journal: &mut Journal) -> Result<(), ExacmlError> {
        let catalog = self.inner.engine().catalog();
        let streams = catalog
            .stream_names()
            .into_iter()
            .map(|name| {
                catalog
                    .schema_of(&name)
                    .map(|schema| StreamEntry { name, schema: (*schema).clone() })
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| durability("snapshot streams", e))?;
        let snapshot = Snapshot {
            version: 1,
            wal_horizon: journal.next_seq,
            store_revision: self.inner.policy_store().revision(),
            next_deployment_id: journal.next_deployment_id,
            next_handle_serial: journal.next_handle_serial,
            streams,
            policies: self
                .inner
                .policy_store()
                .snapshot()
                .iter()
                .map(|p| write_policy(p))
                .collect(),
            grants: self.live_grants(),
            audit: self.inner.audit_events(),
        };
        if let Err(e) = write_snapshot(&self.path.join(SNAPSHOT_FILE), &snapshot) {
            journal.failed = Some(e.clone());
            return Err(durability("write snapshot", e));
        }
        if let Err(e) = journal.wal.reset() {
            let failure = e.to_string();
            journal.failed = Some(failure.clone());
            return Err(durability("reset WAL after snapshot", failure));
        }
        journal.records_since_snapshot = 0;
        Ok(())
    }

    // --- the journaled operations ------------------------------------------

    /// Run one control-plane operation as a record group under the journal
    /// lock: the operation itself, the record it leaves behind when it
    /// succeeded (`record` may also advance the journal's counters), the
    /// audit events it caused — a refusal leaves those too — and one flush.
    fn control<T>(
        &self,
        op: impl FnOnce() -> Result<T, ExacmlError>,
        record: impl FnOnce(&T, &mut Journal) -> Option<Record>,
    ) -> Result<T, ExacmlError> {
        let mut journal = self.journal.lock();
        self.begin_control(&mut journal)?;
        let result = op();
        if let Some(record) = result.as_ref().ok().and_then(|done| record(done, &mut journal)) {
            self.append(&mut journal, &record)?;
        }
        self.journal_audit(&mut journal)?;
        self.commit(&mut journal)?;
        self.maybe_compact(&mut journal)?;
        result
    }

    /// Register an input stream (journaled).
    ///
    /// # Errors
    /// As [`DataServer::register_stream`], plus journaling failures.
    pub fn register_stream(&self, name: &str, schema: Schema) -> Result<(), ExacmlError> {
        let record = Record::RegisterStream { name: name.to_string(), schema: schema.clone() };
        self.control(|| self.inner.register_stream(name, schema), |(), _| Some(record))
    }

    /// Load a policy (journaled as its XACML document).
    ///
    /// # Errors
    /// As [`DataServer::load_policy`], plus journaling failures.
    pub fn load_policy(&self, policy: Policy) -> Result<Duration, ExacmlError> {
        let record = Record::LoadPolicy { xml: write_policy(&policy) };
        self.control(|| self.inner.load_policy(policy), |_, _| Some(record))
    }

    /// Load a policy from its XML document (journaled).
    ///
    /// # Errors
    /// As [`DataServer::load_policy_xml`], plus journaling failures.
    pub fn load_policy_xml(&self, xml: &str) -> Result<Duration, ExacmlError> {
        self.load_policy(parse_policy(xml)?)
    }

    /// Remove a policy, withdrawing its graphs (journaled).
    ///
    /// # Errors
    /// As [`DataServer::remove_policy`], plus journaling failures.
    pub fn remove_policy(&self, policy_id: &str) -> Result<usize, ExacmlError> {
        let record = Record::RemovePolicy { id: policy_id.to_string() };
        self.control(|| self.inner.remove_policy(policy_id), |_, _| Some(record))
    }

    /// Replace a policy, withdrawing the old version's graphs (journaled).
    ///
    /// # Errors
    /// As [`DataServer::update_policy`], plus journaling failures.
    pub fn update_policy(&self, policy: Policy) -> Result<usize, ExacmlError> {
        let record = Record::UpdatePolicy { xml: write_policy(&policy) };
        self.control(|| self.inner.update_policy(policy), |_, _| Some(record))
    }

    /// Handle one access request (grants and every audit outcome are
    /// journaled; a reused grant journals only its audit event — it minted
    /// nothing new).
    ///
    /// # Errors
    /// As [`DataServer::handle_request`], plus journaling failures.
    pub fn handle_request(
        &self,
        request: &Request,
        user_query: Option<&UserQuery>,
    ) -> Result<BackendResponse, ExacmlError> {
        let op = || self.inner.handle_request(request, user_query);
        let response = self.control(op, |response, journal| {
            if response.reused {
                return None;
            }
            let deployment = response.deployment.0;
            journal.next_deployment_id = journal.next_deployment_id.max(deployment + 1);
            if let Some(serial) = response.handle.serial() {
                journal.next_handle_serial = journal.next_handle_serial.max(serial + 1);
            }
            Some(Record::Grant(GrantRecord {
                subject: request.subject_id().unwrap_or_default().to_string(),
                stream: request.resource_id().unwrap_or_default().to_string(),
                query_xml: user_query.map(UserQuery::to_xml),
                deployment,
                handle: response.handle.uri().to_string(),
            }))
        })?;
        Ok(BackendResponse { node: NodeId::DataServer, response, broker_network: Duration::ZERO })
    }

    /// Release a subject's access on a stream (journaled when something is
    /// actually withdrawn). The release record is appended *before* the
    /// in-memory release is applied: if journaling fails, nothing is
    /// released and `false` is returned — a revoked access must never come
    /// back to life on recovery because its record was silently lost. Once
    /// the journal has failed, releases are refused like every other
    /// mutation.
    pub fn release_access(&self, subject: &str, stream: &str) -> bool {
        let mut journal = self.journal.lock();
        if self.begin_control(&mut journal).is_err() {
            return false;
        }
        // A release that cannot withdraw anything is a no-op on every
        // backend and needs no journal record. (Every grant and release goes
        // through the journal lock held here, so the answer cannot change
        // before the release below.)
        if !self.inner.holds_grant(subject, stream) {
            return false;
        }
        let record = Record::Release { subject: subject.to_string(), stream: stream.to_string() };
        if self.append(&mut journal, &record).is_err() {
            return false;
        }
        let released = self.inner.release_access(subject, stream);
        let _ = self.journal_audit(&mut journal);
        let _ = self.commit(&mut journal);
        let _ = self.maybe_compact(&mut journal);
        released
    }

    fn push_journaled(&self, stream: &str, tuples: Vec<Tuple>) -> Result<usize, ExacmlError> {
        let mut journal = self.journal.lock();
        Self::check_health(&journal)?;
        // Encode into the journal's reusable buffer *before* pushing (so a
        // rejected batch journals nothing), append after the push succeeds.
        // No flush: ingest records are group-committed (see module docs).
        let mut scratch = std::mem::take(&mut journal.scratch);
        let encoded = encode_ingest_into(&mut scratch, journal.next_seq, stream, &tuples);
        let outcome = match encoded {
            Err(e) => Err(durability("encode ingest record", e)),
            Ok(()) => self
                .inner
                .push_batch(stream, tuples)
                .and_then(|emitted| self.append_payload(&mut journal, &scratch).map(|()| emitted)),
        };
        journal.scratch = scratch;
        let emitted = outcome?;
        self.maybe_compact(&mut journal)?;
        Ok(emitted)
    }

    /// Push one source tuple, journaled as a one-row ingest record.
    ///
    /// # Errors
    /// As [`DataServer::push`], plus journaling failures.
    pub fn push(&self, stream: &str, tuple: Tuple) -> Result<usize, ExacmlError> {
        self.push_journaled(stream, vec![tuple])
    }

    /// Push a batch of source tuples — one WAL record for the whole batch,
    /// so journaling cost amortizes exactly like the engine's shard locking.
    ///
    /// # Errors
    /// As [`DataServer::push_batch`], plus journaling failures.
    pub fn push_batch(&self, stream: &str, tuples: Vec<Tuple>) -> Result<usize, ExacmlError> {
        if tuples.is_empty() {
            return self.inner.push_batch(stream, tuples);
        }
        self.push_journaled(stream, tuples)
    }
}

// --- the unified backend API -----------------------------------------------

impl NodeServer for DurableServer {
    fn data_server(&self) -> &DataServer {
        &self.inner
    }
}

impl StreamBackend for DurableServer {
    fn register_stream(&self, name: &str, schema: Schema) -> Result<NodeId, ExacmlError> {
        DurableServer::register_stream(self, name, schema)?;
        Ok(NodeId::DataServer)
    }

    fn push(&self, stream: &str, tuple: Tuple) -> Result<usize, ExacmlError> {
        DurableServer::push(self, stream, tuple)
    }

    fn push_batch(&self, stream: &str, tuples: Vec<Tuple>) -> Result<usize, ExacmlError> {
        DurableServer::push_batch(self, stream, tuples)
    }

    fn subscribe(&self, handle: &StreamHandle) -> Result<Subscription, ExacmlError> {
        self.inner.subscribe(handle).map(Subscription::Local)
    }

    fn handle_is_live(&self, handle: &StreamHandle) -> bool {
        self.inner.handle_is_live(handle)
    }
}

impl AccessControl for DurableServer {
    fn handle_request(
        &self,
        request: &Request,
        user_query: Option<&UserQuery>,
    ) -> Result<BackendResponse, ExacmlError> {
        DurableServer::handle_request(self, request, user_query)
    }

    fn release_access(&self, subject: &str, stream: &str) -> bool {
        DurableServer::release_access(self, subject, stream)
    }
}

impl PolicyAdmin for DurableServer {
    fn load_policy(&self, policy: Policy) -> Result<Duration, ExacmlError> {
        DurableServer::load_policy(self, policy)
    }

    fn load_policy_xml(&self, xml: &str) -> Result<Duration, ExacmlError> {
        DurableServer::load_policy_xml(self, xml)
    }

    fn remove_policy(&self, policy_id: &str) -> Result<usize, ExacmlError> {
        DurableServer::remove_policy(self, policy_id)
    }

    fn update_policy(&self, policy: Policy) -> Result<usize, ExacmlError> {
        DurableServer::update_policy(self, policy)
    }

    fn policy_count(&self) -> usize {
        self.inner.policy_count()
    }
}

impl Backend for DurableServer {
    fn backend_kind(&self) -> String {
        "durable-server".to_string()
    }

    fn live_deployments(&self) -> usize {
        self.inner.live_deployments()
    }

    fn live_plans(&self) -> usize {
        self.inner.plan_count()
    }

    fn audit_events(&self) -> Vec<TaggedAuditEvent> {
        self.inner
            .audit_events()
            .into_iter()
            .map(|event| TaggedAuditEvent { node: NodeId::DataServer, event })
            .collect()
    }

    fn audit_events_for_subject(&self, subject: &str) -> Vec<TaggedAuditEvent> {
        self.inner
            .audit_events_for_subject(subject)
            .into_iter()
            .map(|event| TaggedAuditEvent { node: NodeId::DataServer, event })
            .collect()
    }

    fn health(&self) -> BackendHealth {
        BackendHealth {
            degraded_nodes: Vec::new(),
            journal_failure: self.journal_failure(),
            replication_lag_records: 0,
        }
    }

    fn telemetry(&self) -> TelemetrySnapshot {
        self.inner.telemetry_registry().snapshot_tagged("durable-server")
    }
}
