//! # exacml-durable — persistence for the eXACML+ enforcement point
//!
//! The paper's enforcement model only stays accountable if the enforcement
//! point outlives any single process: policies, grants and the audit trail
//! must survive a server restart, or every decision made before a crash
//! becomes unverifiable. This crate adds that layer over plain `std::fs`,
//! with no external storage engine:
//!
//! * [`wal`] — a write-ahead log of checksummed, line-framed JSON records;
//!   torn and truncated tails are detected and cut, never replayed;
//! * [`record`] — the record vocabulary: one record per state-mutating
//!   operation (policy load/remove/update, stream registration, grants,
//!   releases, audit events, and optionally tuple ingest);
//! * [`snapshot`] — compaction: the journal folds into a snapshot of the
//!   *live* state, so recovery cost is bounded by what still matters plus
//!   the WAL tail, not by the server's lifetime;
//! * [`server`] — [`DurableServer`], a [`DataServer`](exacml_plus::DataServer)
//!   wrapper that journals on the way in and rebuilds itself via
//!   [`DurableServer::recover`], re-minting the *same* handle URIs by
//!   replaying grants at their recorded deployment ids;
//! * [`replication`] — WAL shipping: file-level mirroring of one store onto
//!   peer hosts, incremental past an acknowledged offset;
//! * [`fabric`] — [`ReplicatedFabric`], a brokering fabric of durable nodes
//!   with replication and owner failover: killing a host loses no
//!   acknowledged grant, the surviving peer replays the shipped journal and
//!   re-mints the dead node's handles at their recorded URIs.
//!
//! The [`wal`] layer also carries an error-injecting shim
//! ([`WalFailpoint`]): armed with a [`FailMode`] (disk full, sticky I/O
//! error, torn write) it makes journal writes fail the way real disks do,
//! which is what the fault-injection tests drive.
//!
//! `DurableServer` implements the full unified backend trait stack
//! ([`Backend`](exacml_plus::Backend) and its three planes), so it is a
//! drop-in third deployment shape next to `DataServer` and `Fabric`:
//! `exacml::BackendBuilder::durable(path)` builds one, the conformance
//! suite in `tests/backend_conformance.rs` runs the shared semantics
//! against it, and `examples/durable_restart.rs` demonstrates the
//! kill/recover cycle. The record format and crash-consistency guarantees
//! are documented in `docs/RECOVERY.md`; where the layer sits in the stack
//! is `docs/ARCHITECTURE.md`.

pub mod fabric;
pub mod record;
pub mod replication;
pub mod server;
pub mod snapshot;
pub mod wal;

pub use fabric::{ReplicatedConfig, ReplicatedFabric, Replication};
pub use record::{GrantRecord, Record};
pub use replication::{ReplicaMirror, ShipOutcome};
pub use server::{DurableConfig, DurableServer, JournalMark, RecoveryReport, TopologyPreset};
pub use snapshot::Snapshot;
pub use wal::{FailMode, WalFailpoint};

#[cfg(test)]
mod tests {
    use super::*;
    use exacml_dsms::{Schema, Tuple, Value};
    use exacml_plus::{AuditEventKind, StreamPolicyBuilder};
    use exacml_telemetry::Metric;
    use exacml_xacml::Request;
    use std::path::PathBuf;
    use std::sync::Arc;

    fn temp_store(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("exacml-durable-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn weather_tuple(schema: &Arc<Schema>, i: i64, rain: f64) -> Tuple {
        Tuple::builder_shared(schema)
            .set("samplingtime", Value::Timestamp(i * 30_000))
            .set("rainrate", rain)
            .finish_with_defaults()
    }

    fn populated(path: &PathBuf) -> DurableServer {
        let server = DurableServer::create(path, DurableConfig::local()).unwrap();
        server.register_stream("weather", Schema::weather_example()).unwrap();
        server
            .load_policy(
                StreamPolicyBuilder::new("p", "weather")
                    .subject("LTA")
                    .filter("rainrate > 5")
                    .build(),
            )
            .unwrap();
        server.handle_request(&Request::subscribe("LTA", "weather"), None).unwrap();
        server
    }

    #[test]
    fn crash_and_recover_preserves_control_plane_state() {
        let path = temp_store("basic");
        let handle = {
            let server = populated(&path);
            let granted = &server.live_grants()[0];
            assert_eq!(granted.subject, "LTA");
            granted.handle.clone()
            // Dropping the server without any shutdown protocol = a crash.
        };

        let recovered = DurableServer::recover(&path).unwrap();
        assert_eq!(recovered.policy_count(), 1);
        assert_eq!(recovered.inner().live_deployments(), 1);
        assert!(recovered
            .inner()
            .handle_is_live(&exacml_dsms::StreamHandle::from_uri(handle.clone())));
        assert_eq!(recovered.live_grants()[0].handle, handle);
        // The audit trail survived with its original events.
        let kinds: Vec<AuditEventKind> =
            recovered.inner().audit_events().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&AuditEventKind::PolicyLoaded));
        assert!(kinds.contains(&AuditEventKind::Granted));
        // The single-access guard state survived too: a different query on
        // the held stream is still blocked.
        let query = exacml_plus::UserQuery::for_stream("weather").with_filter("rainrate > 70");
        assert!(matches!(
            recovered.handle_request(&Request::subscribe("LTA", "weather"), Some(&query)),
            Err(exacml_plus::ExacmlError::MultipleAccess { .. })
        ));
    }

    #[test]
    fn recovered_store_keeps_journaling_and_recovers_again() {
        let path = temp_store("chain");
        drop(populated(&path));

        let recovered = DurableServer::recover(&path).unwrap();
        let schema = Schema::weather_example().shared();
        recovered
            .push_batch("weather", (0..8).map(|i| weather_tuple(&schema, i, 10.0)).collect())
            .unwrap();
        assert!(recovered.release_access("LTA", "weather"));
        drop(recovered);

        let again = DurableServer::recover(&path).unwrap();
        assert!(again.live_grants().is_empty());
        assert_eq!(again.inner().live_deployments(), 0);
        // Ingest replay restored the engine's view of the stream.
        let ingested = again.inner().telemetry_registry().counter(Metric::TuplesIngested);
        assert_eq!(ingested, 8);
        let released = again
            .inner()
            .audit_events()
            .iter()
            .filter(|e| e.kind == AuditEventKind::AccessReleased)
            .count();
        assert_eq!(released, 1);
    }

    #[test]
    fn snapshot_compacts_and_recovery_uses_it() {
        let path = temp_store("compact");
        let server = populated(&path);
        assert!(server.wal_tail_len() > 0);
        server.snapshot().unwrap();
        assert_eq!(server.wal_tail_len(), 0);
        // Post-snapshot activity lands in the (fresh) WAL tail.
        server.register_stream("gps", Schema::gps_example()).unwrap();
        drop(server);

        let recovered = DurableServer::recover(&path).unwrap();
        let report = recovered.recovery_report();
        assert!(report.snapshot_loaded);
        assert_eq!(report.snapshot_grants, 1);
        assert_eq!(report.wal_records_replayed, 1);
        assert!(recovered.inner().engine().catalog().contains("gps"));
        assert_eq!(recovered.policy_count(), 1);
    }

    #[test]
    fn create_refuses_an_existing_store_and_open_recovers_it() {
        let path = temp_store("open");
        drop(populated(&path));
        assert!(matches!(
            DurableServer::create(&path, DurableConfig::local()),
            Err(exacml_plus::ExacmlError::Durability(_))
        ));
        let reopened = DurableServer::open(&path, DurableConfig::local()).unwrap();
        assert_eq!(reopened.policy_count(), 1);
        // The persisted meta.json (not the passed config) decides behaviour.
        assert_eq!(reopened.config().topology, TopologyPreset::Local);
    }

    #[test]
    fn released_deployment_ids_are_never_reissued_after_recovery() {
        let path = temp_store("ids");
        let first_handle = {
            let server = populated(&path);
            let handle = server.live_grants()[0].handle.clone();
            assert!(server.release_access("LTA", "weather"));
            handle
        };
        let recovered = DurableServer::recover(&path).unwrap();
        let granted =
            recovered.handle_request(&Request::subscribe("LTA", "weather"), None).unwrap();
        // The new grant must mint a *fresh* handle: a consumer still holding
        // the released URI must not silently observe someone else's stream.
        assert_ne!(granted.handle().uri(), first_handle);
    }
}
