//! Durability integration suite: kill/recover through the prelude, recovery
//! edge cases (torn WAL tails, double recovery), and the replay-equivalence
//! property — a journaled operation sequence recovers to exactly the state
//! an in-memory server reaches by executing the same sequence, with or
//! without snapshot compaction in between.

mod common;

use exacml::exacml_dsms::{DataType, Schema, StreamHandle, Tuple, Value};
use exacml::exacml_durable::record::{decode, decode_row, encode_ingest};
use exacml::exacml_durable::wal;
use exacml::exacml_durable::{DurableServer, GrantRecord, Record, FORMAT_VERSION};
use exacml::exacml_plus::AuditEvent;
use exacml::exacml_xacml::xml::write_policy;
use exacml::prelude::*;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

fn fresh_store(tag: &str) -> (PathBuf, common::RemoveOnDrop) {
    common::temp_store(&format!("durability-{tag}"))
}

fn weather_tuple(schema: &Arc<Schema>, i: i64, rain: f64) -> Tuple {
    Tuple::builder_shared(schema)
        .set("samplingtime", Value::Timestamp(i * 30_000))
        .set("rainrate", rain)
        .finish_with_defaults()
}

/// Source tuples the server's engine has ingested (replay included), read
/// from its telemetry registry.
fn tuples_ingested(server: &DurableServer) -> u64 {
    server.inner().telemetry_registry().counter(Metric::TuplesIngested)
}

fn rain_policy(id: &str, stream: &str, subject: &str, threshold: f64) -> Policy {
    StreamPolicyBuilder::new(id, stream)
        .subject(subject)
        .filter(format!("rainrate > {threshold}"))
        .build()
}

/// The headline promise: kill the process mid-stream, recover from disk,
/// and the consumer's world — policies, the granted handle (same URI), the
/// guard state, the audit trail — is intact.
#[test]
fn kill_and_recover_preserves_policies_handles_and_audit() {
    let (store, _guard) = fresh_store("kill");
    let schema = Schema::weather_example().shared();

    let (handle_uri, audit_before) = {
        let backend = BackendBuilder::durable(&store).build();
        backend.register_stream("weather", Schema::weather_example()).unwrap();
        backend.load_policy(rain_policy("p", "weather", "LTA", 5.0)).unwrap();
        let granted = backend.handle_request(&Request::subscribe("LTA", "weather"), None).unwrap();
        let mut subscription = backend.subscribe(granted.handle()).unwrap();
        let batch: Vec<Tuple> = (0..10).map(|i| weather_tuple(&schema, i, 10.0)).collect();
        backend.push_batch("weather", batch).unwrap();
        assert_eq!(subscription.drain().len(), 10);
        // A denied request is part of the accountable trail too.
        let _ = backend.handle_request(&Request::subscribe("EMA", "weather"), None);
        (granted.handle().uri().to_string(), backend.audit_events())
        // ← the server is dropped mid-stream with no shutdown protocol.
    };

    let recovered = BackendBuilder::durable(&store).build();
    assert_eq!(recovered.backend_kind(), "durable-server");
    assert_eq!(recovered.policy_count(), 1);
    assert_eq!(recovered.live_deployments(), 1);

    // The handle the consumer still holds from before the crash is live and
    // subscribable — the recovery re-minted the same URI.
    let held = StreamHandle::from_uri(handle_uri);
    assert!(recovered.handle_is_live(&held));
    let mut subscription = recovered.subscribe(&held).unwrap();
    recovered
        .push_batch("weather", (0..6).map(|i| weather_tuple(&schema, i, 9.0)).collect())
        .unwrap();
    assert_eq!(subscription.drain().len(), 6);

    // The audit trail survived verbatim: same events, same timestamps.
    assert_eq!(recovered.audit_events(), audit_before);

    // The single-access guard state survived: a *different* query on the
    // held stream is still blocked, releasing still works.
    let query = UserQuery::for_stream("weather").with_filter("rainrate > 70");
    assert!(matches!(
        recovered.handle_request(&Request::subscribe("LTA", "weather"), Some(&query)),
        Err(ExacmlError::MultipleAccess { .. })
    ));
    assert!(recovered.release_access("LTA", "weather"));
    assert!(!recovered.handle_is_live(&held));
}

/// A crash mid-append tears the final WAL record. Recovery must drop
/// exactly that unacknowledged operation, keep everything before it, and
/// truncate the torn bytes so the store keeps working.
#[test]
fn truncated_final_wal_record_loses_only_the_last_operation() {
    let (store, _guard) = fresh_store("torn");
    {
        let server = DurableServer::create(&store, DurableConfig::local()).unwrap();
        server.register_stream("weather", Schema::weather_example()).unwrap();
        server.load_policy(rain_policy("p", "weather", "LTA", 5.0)).unwrap();
        server.handle_request(&Request::subscribe("LTA", "weather"), None).unwrap();
        let schema = Schema::weather_example().shared();
        server
            .push_batch("weather", (0..20).map(|i| weather_tuple(&schema, i, 10.0)).collect())
            .unwrap();
    }
    // Tear the tail: cut into the final record (the ingest batch).
    let wal = store.join("wal.log");
    let bytes = std::fs::read(&wal).unwrap();
    let cut = bytes.len() - bytes.len().min(40);
    std::fs::write(&wal, &bytes[..cut]).unwrap();

    let recovered = DurableServer::recover(&store).unwrap();
    let report = recovered.recovery_report();
    assert!(report.torn_tail.is_some(), "the torn tail must be detected");
    // Control-plane state before the torn record is fully intact...
    assert_eq!(recovered.policy_count(), 1);
    assert_eq!(recovered.inner().live_deployments(), 1);
    assert_eq!(recovered.live_grants().len(), 1);
    // ...and the unacknowledged ingest batch is gone.
    assert_eq!(tuples_ingested(&recovered), 0);

    // The torn bytes were truncated away: the store accepts new appends and
    // a later recovery sees them (nothing is shadowed by garbage).
    let schema = Schema::weather_example().shared();
    recovered
        .push_batch("weather", (0..5).map(|i| weather_tuple(&schema, i, 10.0)).collect())
        .unwrap();
    drop(recovered);
    let again = DurableServer::recover(&store).unwrap();
    assert!(again.recovery_report().torn_tail.is_none());
    assert_eq!(tuples_ingested(&again), 5);
}

/// The fsync path: a store created with `sync_writes` journals through
/// `sync_data`, persists the setting in `meta.json`, and recovers with it
/// still on — every journaled operation replayed.
#[test]
fn a_sync_writes_store_journals_and_recovers_with_the_setting_kept() {
    let (store, _guard) = fresh_store("sync");
    let schema = Schema::weather_example().shared();
    let handle_uri = {
        let config = DurableConfig { sync_writes: true, ..DurableConfig::local() };
        let server = DurableServer::create(&store, config).unwrap();
        server.register_stream("weather", Schema::weather_example()).unwrap();
        server.load_policy(rain_policy("p", "weather", "LTA", 5.0)).unwrap();
        let granted = server.handle_request(&Request::subscribe("LTA", "weather"), None).unwrap();
        server
            .push_batch("weather", (0..7).map(|i| weather_tuple(&schema, i, 10.0)).collect())
            .unwrap();
        granted.handle().uri().to_string()
    };

    let recovered = DurableServer::recover(&store).unwrap();
    assert!(recovered.config().sync_writes, "meta.json must keep the fsync setting");
    assert_eq!(recovered.policy_count(), 1);
    assert!(recovered.inner().handle_is_live(&StreamHandle::from_uri(handle_uri)));
    assert_eq!(tuples_ingested(&recovered), 7, "the journaled batch is replayed");
}

/// `meta.json` carries the seed and `snapshot_every` as JSON numbers, which
/// read back as `f64`: integers up to 2^53 survive exactly, 2^53 + 1 comes
/// back as 2^53. A store therefore refuses such a setting at `create`, and
/// the decoder refuses a number no `u64` setting could have written
/// (negative, fractional, above 2^53) instead of casting it.
#[test]
fn meta_numbers_round_trip_exactly_or_are_refused() {
    use exacml::exacml_durable::server::{decode_meta, encode_meta};
    const EXACT: u64 = 1 << 53;
    let decode = |text: &str| decode_meta(&serde_json::from_str(text).unwrap());
    for seed in [0, EXACT] {
        let config = DurableConfig { seed, snapshot_every: seed, ..DurableConfig::local() };
        assert_eq!(decode(&encode_meta(&config)), Ok(config), "{seed}");
    }
    let config = DurableConfig { seed: EXACT + 1, ..DurableConfig::local() };
    let lossy = decode(&encode_meta(&config)).unwrap();
    assert_eq!(lossy.seed, EXACT, "JSON numbers carry 53 bits");

    let (store, _guard) = fresh_store("meta-seed");
    for config in [
        DurableConfig { seed: EXACT + 1, ..DurableConfig::local() },
        DurableConfig { snapshot_every: u64::MAX, ..DurableConfig::local() },
    ] {
        match DurableServer::create(&store, config) {
            Err(ExacmlError::Durability(reason)) => assert!(reason.contains("2^53"), "{reason}"),
            other => panic!("expected a refusal, got {:?}", other.map(|_| ())),
        }
        assert!(!store.join("meta.json").exists(), "a refused store writes nothing");
    }

    let meta = encode_meta(&DurableConfig::local());
    for (key, bad) in [
        ("seed", "-1"),
        ("seed", "0.5"),
        ("snapshot_every", "18014398509481984"),
        ("seed", "1e300"),
    ] {
        let good = if key == "seed" { "\"seed\":42" } else { "\"snapshot_every\":50000" };
        let text = meta.replace(good, &format!("\"{key}\":{bad}"));
        assert_ne!(text, meta);
        assert!(decode(&text).is_err(), "{key} = {bad} must be refused");
    }
}

/// Rewrite the `"version":2` stamp of a framed single-line store file
/// (`meta.json` or `snapshot.json`) to `"version":1`, reframed so only the
/// version check can object.
fn stamp_version_1(file: &std::path::Path) {
    let text = std::fs::read_to_string(file).unwrap();
    let payload = wal::unframe(text.trim_end_matches('\n')).unwrap();
    assert!(payload.starts_with("{\"version\":2,"), "{payload}");
    let stamped = payload.replacen("{\"version\":2,", "{\"version\":1,", 1);
    std::fs::write(file, wal::frame(&stamped)).unwrap();
}

/// The refusal of a store at another format version: a `Durability` error
/// naming the file, the version found and the version supported.
fn assert_refused_as_version_1(store: &std::path::Path, file: &str) {
    match DurableServer::recover(store).err() {
        Some(ExacmlError::Durability(detail)) => {
            assert!(detail.contains(file), "names {file}: {detail}");
            assert!(detail.contains("format version 1"), "names the version found: {detail}");
            assert!(
                detail.contains(&format!("only version {FORMAT_VERSION}")),
                "names the version supported: {detail}"
            );
        }
        other => panic!("expected a Durability error, got {other:?}"),
    }
}

/// A `meta.json` stamped with a format version this build does not write —
/// here version 1, whose stores this build no longer reads — is refused,
/// not recovered as if it were this build's format.
#[test]
fn a_meta_json_at_another_format_version_is_refused() {
    let (store, _guard) = fresh_store("meta-v1");
    {
        let server = DurableServer::create(&store, DurableConfig::local()).unwrap();
        server.register_stream("weather", Schema::weather_example()).unwrap();
        server.load_policy(rain_policy("p", "weather", "LTA", 5.0)).unwrap();
    }
    stamp_version_1(&store.join("meta.json"));
    assert_refused_as_version_1(&store, "meta.json");
}

/// A snapshot stamped with a format version this build does not write
/// (version 1) is refused, even though `meta.json` is current.
#[test]
fn a_snapshot_at_another_format_version_is_refused() {
    let (store, _guard) = fresh_store("snapshot-v1");
    {
        let server = DurableServer::create(&store, DurableConfig::local()).unwrap();
        server.register_stream("weather", Schema::weather_example()).unwrap();
        server.load_policy(rain_policy("p", "weather", "LTA", 5.0)).unwrap();
        server.handle_request(&Request::subscribe("LTA", "weather"), None).unwrap();
        server.snapshot().unwrap();
    }
    stamp_version_1(&store.join("snapshot.json"));
    assert_refused_as_version_1(&store, "snapshot.json");
}

/// Recovery writes nothing, so recovering twice (or N times) yields the
/// same state every time.
#[test]
fn double_recovery_is_idempotent() {
    let (store, _guard) = fresh_store("double");
    {
        let server = DurableServer::create(&store, DurableConfig::local()).unwrap();
        server.register_stream("weather", Schema::weather_example()).unwrap();
        server.load_policy(rain_policy("p", "weather", "LTA", 5.0)).unwrap();
        server.load_policy(rain_policy("q", "weather", "EMA", 50.0)).unwrap();
        server.handle_request(&Request::subscribe("LTA", "weather"), None).unwrap();
        server.remove_policy("q").unwrap();
    }
    let first = DurableServer::recover(&store).unwrap();
    let first_state = (
        first.policy_count(),
        first.inner().live_deployments(),
        first.live_grants(),
        first.inner().audit_events(),
        first.inner().policy_revision(),
    );
    drop(first);
    let second = DurableServer::recover(&store).unwrap();
    assert_eq!(second.policy_count(), first_state.0);
    assert_eq!(second.inner().live_deployments(), first_state.1);
    assert_eq!(second.live_grants(), first_state.2);
    assert_eq!(second.inner().audit_events(), first_state.3);
    assert_eq!(second.inner().policy_revision(), first_state.4);
}

/// What a recovery must reproduce: stream names, policy ids and revision,
/// live grants at their URIs, and the audit trail.
type Observed = (Vec<String>, Vec<String>, u64, Vec<GrantRecord>, Vec<AuditEvent>);

fn observed(server: &DurableServer) -> Observed {
    let inner = server.inner();
    let policy_ids = inner.policies().iter().map(|p| p.id.clone()).collect();
    (
        inner.stream_names(),
        policy_ids,
        inner.policy_revision(),
        server.live_grants(),
        inner.audit_events(),
    )
}

/// One mutator call on a durable server.
type Step = Box<dyn Fn(&DurableServer)>;

/// Every public mutator of a durable server in turn, each followed by a
/// drop and a recovery: the recovery succeeds and shows exactly the state
/// the server showed before the drop.
#[test]
fn recovery_after_each_public_mutator_restores_the_pre_drop_state() {
    let (store, _guard) = fresh_store("each-mutator");
    let grant = |subject: &str, reused: bool| {
        let subject = subject.to_string();
        Box::new(move |server: &DurableServer| {
            let granted = server.handle_request(&Request::subscribe(&subject, "weather"), None);
            assert_eq!(granted.unwrap().response.reused, reused);
        }) as Step
    };
    let steps: Vec<(&str, Step)> = vec![
        (
            "register_stream",
            Box::new(|s| {
                s.register_stream("weather", Schema::weather_example()).unwrap();
            }),
        ),
        (
            "load_policy",
            Box::new(|s| {
                s.load_policy(rain_policy("p", "weather", "LTA", 5.0)).unwrap();
            }),
        ),
        (
            "load_policy_xml",
            Box::new(|s| {
                let xml = write_policy(&rain_policy("q", "weather", "EMA", 50.0));
                s.load_policy_xml(&xml).unwrap();
            }),
        ),
        ("granted handle_request", grant("LTA", false)),
        ("reused handle_request", grant("LTA", true)),
        (
            "denied handle_request",
            Box::new(|s| {
                assert!(s.handle_request(&Request::subscribe("nobody", "weather"), None).is_err())
            }),
        ),
        (
            "push",
            Box::new(|s| {
                let schema = Schema::weather_example().shared();
                s.push("weather", weather_tuple(&schema, 0, 60.0)).unwrap();
            }),
        ),
        (
            "push_batch",
            Box::new(|s| {
                let schema = Schema::weather_example().shared();
                let batch = (1..=10).map(|i| weather_tuple(&schema, i, 60.0)).collect();
                s.push_batch("weather", batch).unwrap();
            }),
        ),
        ("second granted handle_request", grant("EMA", false)),
        (
            "update_policy",
            Box::new(|s| {
                assert_eq!(s.update_policy(rain_policy("p", "weather", "LTA", 6.0)).unwrap(), 1)
            }),
        ),
        ("release_access", Box::new(|s| assert!(s.release_access("EMA", "weather")))),
        ("granted handle_request after the update", grant("LTA", false)),
        ("remove_policy", Box::new(|s| assert_eq!(s.remove_policy("p").unwrap(), 1))),
    ];
    let mut server = DurableServer::create(&store, DurableConfig::local()).unwrap();
    for (name, step) in &steps {
        step(&server);
        let before = observed(&server);
        drop(server);
        server = DurableServer::recover(&store).unwrap_or_else(|e| panic!("after {name}: {e}"));
        assert_eq!(observed(&server), before, "after {name}");
    }
    assert_eq!(server.live_grants().len(), 0);
    assert_eq!(server.inner().policies().len(), 1);
}

/// An open (subject-less) policy: any subject may subscribe, so multiple
/// users land on the same merged graph and share one compiled plan.
fn open_policy(id: &str, stream: &str, threshold: f64) -> Policy {
    StreamPolicyBuilder::new(id, stream).filter(format!("rainrate > {threshold}")).build()
}

/// Overlapping grants ride one compiled plan; recovery must rebuild the
/// same sharing topology from the journal — each distinct plan deploys
/// once, every surviving grant keeps its exact journaled URI, and fresh
/// serials never collide with any journaled one (released grants included).
#[test]
fn recovery_replays_overlapping_grants_into_shared_plans() {
    let (store, _guard) = fresh_store("shared");
    let schema = Schema::weather_example().shared();

    let (released_uri, wind_uri, weather_uri) = {
        let server = DurableServer::create(&store, DurableConfig::local()).unwrap();
        server.register_stream("weather", Schema::weather_example()).unwrap();
        server.register_stream("wind", Schema::weather_example()).unwrap();
        server.load_policy(open_policy("open-weather", "weather", 5.0)).unwrap();
        server.load_policy(open_policy("open-wind", "wind", 2.0)).unwrap();

        let a = server.handle_request(&Request::subscribe("u0", "weather"), None).unwrap();
        let b = server.handle_request(&Request::subscribe("u1", "wind"), None).unwrap();
        let c = server.handle_request(&Request::subscribe("u2", "weather"), None).unwrap();
        assert_eq!(c.response.plan, a.response.plan, "u2 rides u0's plan");
        assert_eq!(server.inner().plan_count(), 2);
        // u0 leaves: u2 is now the weather plan's only holder, and its
        // journaled deployment id is *older* than u1's wind deployment.
        assert!(server.release_access("u0", "weather"));
        (a.handle().uri().to_string(), b.handle().uri().to_string(), c.handle().uri().to_string())
        // ← crash with a sharer that did not deploy its own plan.
    };

    let recovered = DurableServer::recover(&store).unwrap();
    assert_eq!(recovered.live_grants().len(), 2);
    assert_eq!(recovered.inner().plan_count(), 2);
    assert_eq!(recovered.inner().live_deployments(), 2);
    let held = StreamHandle::from_uri(weather_uri.clone());
    assert!(recovered.inner().handle_is_live(&held));
    assert!(recovered.inner().handle_is_live(&StreamHandle::from_uri(wind_uri.clone())));
    assert!(!recovered.inner().handle_is_live(&StreamHandle::from_uri(released_uri.clone())));

    // The surviving sharer still receives data on its adopted handle.
    let mut subscription = recovered.subscribe(&held).unwrap();
    recovered
        .push_batch("weather", (0..4).map(|i| weather_tuple(&schema, i, 9.0)).collect())
        .unwrap();
    assert_eq!(subscription.drain().len(), 4);

    // A fresh subscriber joins the recovered plan without deploying a new
    // graph, on a serial no journaled grant — even a released one — held.
    let fresh = recovered.handle_request(&Request::subscribe("u3", "weather"), None).unwrap();
    assert_eq!(recovered.inner().plan_count(), 2);
    let fresh_uri = fresh.handle().uri().to_string();
    assert!(![released_uri, wind_uri, weather_uri].contains(&fresh_uri));
}

/// The snapshot prunes released grants, so a plan's surviving sharer can
/// carry a deployment id *older* than grants written before it. Recovery
/// must still re-mint every deployment id exactly (regression: snapshot
/// grants replay in deployment order, not grant order).
#[test]
fn snapshot_compaction_preserves_shared_plan_replay() {
    let (store, _guard) = fresh_store("shared-snap");
    let schema = Schema::weather_example().shared();

    let (wind_uri, weather_uri, deployments_before) = {
        let server = DurableServer::create(&store, DurableConfig::local()).unwrap();
        server.register_stream("weather", Schema::weather_example()).unwrap();
        server.register_stream("wind", Schema::weather_example()).unwrap();
        server.load_policy(open_policy("open-weather", "weather", 5.0)).unwrap();
        server.load_policy(open_policy("open-wind", "wind", 2.0)).unwrap();

        let a = server.handle_request(&Request::subscribe("u0", "weather"), None).unwrap();
        let b = server.handle_request(&Request::subscribe("u1", "wind"), None).unwrap();
        let c = server.handle_request(&Request::subscribe("u2", "weather"), None).unwrap();
        assert!(server.release_access("u0", "weather"));
        // Compact: the snapshot's grant list is now [u1@wind, u2@weather]
        // in grant order while their deployment ids are the other way round.
        server.snapshot().unwrap();
        assert!(a.response.deployment.0 < b.response.deployment.0);
        (
            b.handle().uri().to_string(),
            c.handle().uri().to_string(),
            vec![b.response.deployment.0, c.response.deployment.0],
        )
    };

    let recovered = DurableServer::recover(&store).unwrap();
    assert!(recovered.recovery_report().snapshot_loaded);
    assert_eq!(recovered.inner().plan_count(), 2);
    assert_eq!(recovered.inner().live_deployments(), 2);
    let grants = recovered.live_grants();
    assert_eq!(
        grants.iter().map(|g| g.handle.clone()).collect::<Vec<_>>(),
        vec![wind_uri, weather_uri.clone()],
        "grant order and URIs survive compaction verbatim"
    );
    assert_eq!(
        grants.iter().map(|g| g.deployment).collect::<Vec<_>>(),
        deployments_before,
        "replay re-minted the journaled deployment ids"
    );

    // Delivery still works on the sharer's adopted handle.
    let mut subscription = recovered.subscribe(&StreamHandle::from_uri(weather_uri)).unwrap();
    recovered
        .push_batch("weather", (0..3).map(|i| weather_tuple(&schema, i, 8.0)).collect())
        .unwrap();
    assert_eq!(subscription.drain().len(), 3);
}

// ---------------------------------------------------------------------------
// Injected disk faults: the WAL failpoint shim drives the failure modes a
// real disk produces, and the server's contract is the same for all of them
// — the journal goes sticky, every later mutation is refused with a typed
// error, reads keep working, and recovery replays the readable prefix.
// ---------------------------------------------------------------------------

/// The disk fills mid-append: the record is torn at the byte where space
/// ran out, the journal refuses everything afterwards, and recovery keeps
/// exactly the acknowledged prefix — the torn record never replays.
#[test]
fn disk_full_mid_append_refuses_mutations_and_recovery_keeps_the_prefix() {
    let (store, _guard) = fresh_store("disk-full");
    let schema = Schema::weather_example().shared();
    let handle_uri = {
        let server = DurableServer::create(&store, DurableConfig::local()).unwrap();
        server.register_stream("weather", Schema::weather_example()).unwrap();
        server.load_policy(rain_policy("p", "weather", "LTA", 5.0)).unwrap();
        let granted = server.handle_request(&Request::subscribe("LTA", "weather"), None).unwrap();

        // Room for part of one more record, then the device is full.
        server.install_wal_failpoint(FailMode::DiskFull { remaining: 24 });
        let batch: Vec<Tuple> = (0..4).map(|i| weather_tuple(&schema, i, 10.0)).collect();
        let err = server.push_batch("weather", batch).unwrap_err();
        assert!(matches!(err, ExacmlError::Durability(_)), "typed failure, got {err:?}");

        // The journal is sticky: every mutating plane refuses from now on.
        assert!(matches!(
            server.load_policy(rain_policy("q", "weather", "EMA", 9.0)),
            Err(ExacmlError::Durability(_))
        ));
        assert!(matches!(
            server.push("weather", weather_tuple(&schema, 9, 10.0)),
            Err(ExacmlError::Durability(_))
        ));
        // ...and the degradation is observable, not just an error string.
        let failure = server.journal_failure().expect("health must surface the failure");
        assert!(failure.contains("no space left"), "got {failure}");
        assert!(Backend::health(&server).is_degraded());
        // Reads are untouched: the grant is still live in memory.
        assert!(server
            .inner()
            .handle_is_live(&StreamHandle::from_uri(granted.handle().uri().to_string())));
        granted.handle().uri().to_string()
    };

    // The torn bytes really reached the file; recovery cuts them and keeps
    // every acknowledged record before the failed append.
    let recovered = DurableServer::recover(&store).unwrap();
    assert!(recovered.recovery_report().torn_tail.is_some());
    assert_eq!(recovered.policy_count(), 1);
    assert_eq!(recovered.live_grants().len(), 1);
    assert!(recovered.inner().handle_is_live(&StreamHandle::from_uri(handle_uri)));
    assert_eq!(tuples_ingested(&recovered), 0);
    // The recovered store is healthy and journals again.
    assert!(recovered.journal_failure().is_none());
    recovered.push("weather", weather_tuple(&schema, 0, 10.0)).unwrap();
}

/// A sticky I/O error (controller death, remounted-read-only filesystem):
/// nothing more reaches the disk, so the server must refuse mutations
/// without corrupting what is already readable.
#[test]
fn sticky_io_error_keeps_the_readable_prefix_uncorrupted() {
    let (store, _guard) = fresh_store("sticky");
    {
        let server = DurableServer::create(&store, DurableConfig::local()).unwrap();
        server.register_stream("weather", Schema::weather_example()).unwrap();
        server.load_policy(rain_policy("p", "weather", "LTA", 5.0)).unwrap();
        server.flush_journal().unwrap();

        server.install_wal_failpoint(FailMode::Sticky { message: "I/O error (injected)".into() });
        assert!(matches!(
            server.handle_request(&Request::subscribe("LTA", "weather"), None),
            Err(ExacmlError::Durability(_))
        ));
        assert!(matches!(
            server.load_policy(rain_policy("q", "weather", "EMA", 9.0)),
            Err(ExacmlError::Durability(_))
        ));
        let health = Backend::health(&server);
        assert!(health.journal_failure.is_some());
        // In-memory reads still serve: accountability does not go dark.
        assert_eq!(server.policy_count(), 1);
        assert!(!server.inner().audit_events().is_empty());
    }

    // Nothing after the failure was acknowledged, so recovery sees exactly
    // the pre-failure world: one policy, no grant from the refused request.
    let recovered = DurableServer::recover(&store).unwrap();
    assert_eq!(recovered.policy_count(), 1);
    assert!(recovered.live_grants().is_empty());
    assert!(recovered.journal_failure().is_none());
}

/// The WAL counters count what reached the log. A push whose append the
/// armed failpoint refuses, and a control operation whose flush it
/// refuses, leave `wal_records` and `wal_flushes` where they were.
#[test]
fn refused_writes_leave_the_wal_counters_unchanged() {
    let wal_counters = |server: &DurableServer| {
        let telemetry = server.inner().telemetry_registry();
        (telemetry.counter(Metric::WalRecords), telemetry.counter(Metric::WalFlushes))
    };
    let armed_server = |tag: &str| {
        let (store, guard) = fresh_store(tag);
        let server = DurableServer::create(store, DurableConfig::local()).unwrap();
        server.register_stream("weather", Schema::weather_example()).unwrap();
        server.install_wal_failpoint(FailMode::Sticky { message: "I/O error (injected)".into() });
        (server, guard)
    };

    let (server, _guard) = armed_server("counters-push");
    let before = wal_counters(&server);
    let tuple = weather_tuple(&Schema::weather_example().shared(), 0, 10.0);
    assert!(matches!(server.push("weather", tuple), Err(ExacmlError::Durability(_))));
    assert_eq!(wal_counters(&server), before, "a refused push");

    let (server, _guard) = armed_server("counters-control");
    let before = wal_counters(&server);
    assert!(matches!(
        server.load_policy(rain_policy("p", "weather", "LTA", 5.0)),
        Err(ExacmlError::Durability(_))
    ));
    assert_eq!(wal_counters(&server), before, "a refused control operation");
}

/// A write torn mid-record (power loss while the page cache drains): the
/// prefix of the record is on disk, recovery must detect and cut it.
#[test]
fn torn_write_mid_record_is_cut_on_recovery() {
    let (store, _guard) = fresh_store("torn-inject");
    {
        let server = DurableServer::create(&store, DurableConfig::local()).unwrap();
        server.register_stream("weather", Schema::weather_example()).unwrap();
        server.install_wal_failpoint(FailMode::TornWrite { keep: 17 });
        assert!(matches!(
            server.load_policy(rain_policy("p", "weather", "LTA", 5.0)),
            Err(ExacmlError::Durability(_))
        ));
    }
    let recovered = DurableServer::recover(&store).unwrap();
    assert!(recovered.recovery_report().torn_tail.is_some());
    assert_eq!(recovered.policy_count(), 0, "the torn policy record must not replay");
    // The stream registration before the torn record survived.
    assert!(recovered.inner().stream_names().contains(&"weather".to_string()));
}

/// Release is write-ahead: its record is appended and flushed before the
/// grant is withdrawn. When the journal cannot take the record (a disk with
/// less room than the record, a dead device, a write-back that loses the
/// buffered record at the flush), nothing is released: the grant stays
/// live in memory and at its URI after recovery. A release of a pair
/// nobody holds journals nothing at all.
#[test]
fn a_release_the_journal_refuses_keeps_the_grant_live_across_recovery() {
    let faults = [
        ("release-disk-full", FailMode::DiskFull { remaining: 8 }),
        ("release-sticky", FailMode::Sticky { message: "I/O error (injected)".into() }),
        ("release-write-back-lost", FailMode::WriteBackLost),
    ];
    for (tag, fault) in faults {
        let (store, _guard) = fresh_store(tag);
        let held = {
            let server = DurableServer::create(&store, DurableConfig::local()).unwrap();
            server.register_stream("weather", Schema::weather_example()).unwrap();
            server.load_policy(rain_policy("p", "weather", "LTA", 5.0)).unwrap();
            let granted =
                server.handle_request(&Request::subscribe("LTA", "weather"), None).unwrap();
            server.install_wal_failpoint(fault);
            let trail = server.inner().audit_events();
            assert!(!server.release_access("LTA", "weather"), "{tag}: refused release");
            assert!(server.inner().with_grant("LTA", "weather", |_| ()).is_some(), "{tag}");
            assert!(server.inner().handle_is_live(granted.handle()), "{tag}");
            assert_eq!(server.inner().audit_events(), trail, "{tag}: no event left behind");
            granted.handle().clone()
        };
        let recovered = DurableServer::recover(&store).unwrap();
        assert_eq!(recovered.live_grants().len(), 1, "{tag}");
        assert!(recovered.inner().handle_is_live(&held), "{tag}: live at its URI");
        drop(recovered);
    }

    let (store, _guard) = fresh_store("release-unheld");
    let server = DurableServer::create(&store, DurableConfig::local()).unwrap();
    server.register_stream("weather", Schema::weather_example()).unwrap();
    server.load_policy(rain_policy("p", "weather", "LTA", 5.0)).unwrap();
    server.handle_request(&Request::subscribe("LTA", "weather"), None).unwrap();
    let wal_records = || server.inner().telemetry_registry().counter(Metric::WalRecords);
    let (seq, records) = (server.journal_seq(), wal_records());
    assert!(!server.release_access("EMA", "weather"));
    assert!(!server.release_access("LTA", "wind"));
    assert_eq!((server.journal_seq(), wal_records()), (seq, records));
    drop(server);
}

/// Every control operation journals exactly one record — its audit event
/// with what replay needs — and no more framed bytes than its pinned bound.
/// Counted twice: by the `wal_records` counter and by the journal
/// sequence; sized by the flushed WAL length around each operation.
#[test]
fn every_control_operation_appends_exactly_one_record() {
    let (store, _guard) = fresh_store("one-record");
    let server = DurableServer::create(&store, DurableConfig::local()).unwrap();
    let query = UserQuery::for_stream("weather").with_filter("rainrate > 20");
    let reused = |subject: &str, stream: &str, query: Option<&UserQuery>| {
        server
            .handle_request(&Request::subscribe(subject, stream), query)
            .map(|r| r.response.reused)
    };
    let operations: [(&str, u64, &dyn Fn()); 9] = [
        ("register_stream", 561, &|| {
            server.register_stream("weather", Schema::weather_example()).unwrap();
        }),
        ("load_policy", 1240, &|| {
            server.load_policy(open_policy("p", "weather", 5.0)).unwrap();
        }),
        ("fresh grant", 269, &|| assert!(!reused("LTA", "weather", None).unwrap())),
        ("grant with a user query", 406, &|| {
            assert!(!reused("EMA", "weather", Some(&query)).unwrap());
        }),
        ("reuse", 201, &|| assert!(reused("LTA", "weather", None).unwrap())),
        ("denial", 182, &|| assert!(reused("LTA", "wind", None).is_err())),
        ("release_access", 218, &|| assert!(server.release_access("LTA", "weather"))),
        ("update_policy", 1261, &|| {
            assert_eq!(server.update_policy(open_policy("p", "weather", 7.0)).unwrap(), 1);
        }),
        ("remove_policy", 198, &|| assert_eq!(server.remove_policy("p").unwrap(), 0)),
    ];
    let wal_records = || server.inner().telemetry_registry().counter(Metric::WalRecords);
    for (name, bound, operation) in operations {
        let (before, records, seq) =
            (server.flush_journal().unwrap(), wal_records(), server.journal_seq());
        operation();
        let after = server.flush_journal().unwrap();
        assert_eq!(wal_records() - records, 1, "{name}: wal_records delta");
        assert_eq!(server.journal_seq() - seq, 1, "{name}: journal_seq delta");
        let bytes = after.wal_len - before.wal_len;
        assert!(bytes <= bound, "{name}: {bytes} framed bytes, bound {bound}");
    }
    assert!(server.live_grants().is_empty(), "release, update and removal withdrew every grant");
}

// ---------------------------------------------------------------------------
// The ingest encoder: byte-identical output, bit-exact round trip
// ---------------------------------------------------------------------------

/// Finite doubles of every shape the encoder treats differently: integral
/// (small and ≥ 1e15), fixed-point with 1–4 decimals of either sign, large
/// with decimals (≥ 1e9), subnormal, and arbitrary bit patterns.
fn arb_double() -> impl Strategy<Value = f64> {
    let finite = |f: f64| if f.is_finite() { f } else { 0.5 };
    prop_oneof![
        (-2_000_000_000i64..2_000_000_000).prop_map(|i| i as f64),
        (0u64..u64::MAX).prop_map(|u| u as f64),
        (-9_999_999_999_999i64..9_999_999_999_999, 1i32..=4)
            .prop_map(|(digits, places)| digits as f64 / 10f64.powi(places)),
        (1e9..1e13f64, proptest::bool::ANY).prop_map(|(f, neg)| if neg { -f } else { f }),
        (1u64..1 << 52).prop_map(f64::from_bits),
        (0u64..u64::MAX).prop_map(move |bits| finite(f64::from_bits(bits))),
    ]
}

/// One ingest record holding `row` in a stream of that shape, decoded back
/// through the journal's own reader.
fn through_the_journal(schema: &Arc<Schema>, row: Vec<Value>) -> (String, Vec<Value>) {
    let tuple = Tuple::new(schema.clone(), row).unwrap();
    let payload = encode_ingest(3, "s", std::slice::from_ref(&tuple)).unwrap();
    let parsed = serde_json::from_str(&payload).unwrap();
    let Record::Ingest { rows, .. } = decode(&parsed).unwrap() else { panic!("expected ingest") };
    (payload, decode_row(schema, &rows[0]).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// The fixed-point fast path is an optimisation, not a format change:
    /// every double is journaled as exactly the bytes `{f}` prints
    /// (integral values below 1e15 in the `N.0` form the journal has always
    /// used) and is read back as exactly the same bits.
    #[test]
    fn push_f64_is_byte_identical_to_display(f in arb_double()) {
        let schema = Schema::from_pairs([("d", DataType::Double)]).shared();
        let (payload, back) = through_the_journal(&schema, vec![Value::Double(f)]);
        let expected = if f == f.trunc() && f.abs() < 1e15 {
            format!("{}.0", f as i64)
        } else {
            format!("{f}")
        };
        prop_assert_eq!(
            payload,
            format!(r#"{{"seq":3,"op":"ingest","stream":"s","rows":[[{expected}]]}}"#)
        );
        let Value::Double(g) = back[0] else { panic!("expected a double, got {:?}", back[0]) };
        prop_assert_eq!(g.to_bits(), (f + 0.0).to_bits(), "{} came back as {}", f, g);
    }

    /// Whole records, not one cell: a batch of 0–8 rows over a random
    /// schema of all five types is journaled as exactly the bytes a
    /// per-cell reference model spells out.
    #[test]
    fn ingest_records_are_byte_identical_to_a_per_cell_model(
        (seq, stream) in (0u64..u64::MAX, arb_text()),
        types in proptest::collection::vec(0usize..5, 1..7),
        // One seed per row, one cell seed per possible column.
        seeds in proptest::collection::vec(proptest::collection::vec(arb_cell(), 6..7), 0..9),
    ) {
        const TYPES: [DataType; 5] =
            [DataType::Int, DataType::Double, DataType::Bool, DataType::Text, DataType::Timestamp];
        let fields = types.iter().enumerate().map(|(i, &t)| (format!("c{i}"), TYPES[t]));
        let schema = Schema::from_pairs(fields).shared();
        let mut rows = Vec::new();
        let mut expected_rows = Vec::new();
        for seed in &seeds {
            let (values, cells): (Vec<Value>, Vec<String>) =
                types.iter().zip(seed).map(|(&t, cell)| cell.as_type(TYPES[t])).unzip();
            rows.push(Tuple::new(schema.clone(), values).unwrap());
            expected_rows.push(format!("[{}]", cells.join(",")));
        }
        let stream_json = serde_json::to_string(&stream).unwrap();
        prop_assert_eq!(
            encode_ingest(seq, &stream, &rows).unwrap(),
            format!(
                r#"{{"seq":{seq},"op":"ingest","stream":{stream_json},"rows":[{}]}}"#,
                expected_rows.join(",")
            )
        );
    }
}

/// The raw material of one cell, whatever its column's type turns out to
/// be; one in eight cells is null.
#[derive(Debug, Clone)]
struct CellSeed {
    int: i64,
    double: f64,
    flag: bool,
    text: String,
    null: bool,
}

impl CellSeed {
    /// The cell as a value of type `ty`, and the bytes the journal has
    /// always written for it: integers via `{v}`, doubles in the `N.0`
    /// form when integral below 1e15 and via `{f}` otherwise, text via the
    /// shared serializer, and the three JSON literals.
    fn as_type(&self, ty: DataType) -> (Value, String) {
        if self.null {
            return (Value::Null, "null".to_string());
        }
        match ty {
            DataType::Int => (Value::Int(self.int), format!("{}", self.int)),
            DataType::Timestamp => (Value::Timestamp(self.int), format!("{}", self.int)),
            DataType::Double => {
                let f = self.double;
                let json = if f == f.trunc() && f.abs() < 1e15 {
                    format!("{}.0", f as i64)
                } else {
                    format!("{f}")
                };
                (Value::Double(f), json)
            }
            DataType::Bool => (Value::Bool(self.flag), self.flag.to_string()),
            DataType::Text => {
                (Value::Text(self.text.clone()), serde_json::to_string(&self.text).unwrap())
            }
        }
    }
}

/// Integers at both extremes, small, and anywhere in range.
fn arb_int() -> impl Strategy<Value = i64> {
    prop_oneof![Just(i64::MIN), Just(i64::MAX), -1_000i64..1_000, i64::MIN..=i64::MAX]
}

/// [`arb_double`] plus negative zero, negative subnormals, and sensor-sized
/// readings with 1–4 decimals of either sign.
fn arb_cell_double() -> impl Strategy<Value = f64> {
    prop_oneof![
        arb_double(),
        Just(-0.0),
        (1u64..1 << 52).prop_map(|bits| -f64::from_bits(bits)),
        (-2_000_000i64..2_000_000, 1i32..=4)
            .prop_map(|(digits, places)| digits as f64 / 10f64.powi(places)),
    ]
}

/// Text with escapes, control characters, DEL and multi-byte characters
/// anywhere, or none of them.
fn arb_text() -> impl Strategy<Value = String> {
    const PALETTE: [char; 18] = [
        'a', 'Z', '0', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}',
        '\u{80}', 'é', '☂', '雨', '𝄞',
    ];
    proptest::collection::vec(0usize..PALETTE.len(), 0..12)
        .prop_map(|picks| picks.into_iter().map(|i| PALETTE[i]).collect())
}

fn arb_cell() -> impl Strategy<Value = CellSeed> {
    (arb_int(), arb_cell_double(), proptest::bool::ANY, arb_text(), 0u8..8).prop_map(
        |(int, double, flag, text, null)| CellSeed { int, double, flag, text, null: null == 0 },
    )
}

#[test]
fn unencodable_floats_and_awkward_text_through_the_ingest_encoder() {
    let doubles = Schema::from_pairs([("d", DataType::Double)]).shared();
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let tuple = Tuple::new(doubles.clone(), vec![Value::Double(bad)]).unwrap();
        let err = encode_ingest(0, "s", std::slice::from_ref(&tuple)).unwrap_err();
        let canonical = serde_json::to_string(&bad).unwrap_err();
        assert_eq!(err.to_string(), canonical.to_string());
    }

    // Escapes at the start, the end, back to back and between multi-byte
    // characters; DEL (0x7f) and everything above pass through unescaped.
    let text = Schema::from_pairs([("t", DataType::Text)]).shared();
    for awkward in [
        "",
        "plain",
        "\"quoted\" and back\\slashed",
        "\n\r\tleading, trailing\u{1}\u{1f}",
        "☂\"雨\\\u{0}é\u{7f}\u{80}𝄞",
        "\\\\\"\"",
    ] {
        let (payload, back) = through_the_journal(&text, vec![Value::Text(awkward.into())]);
        assert_eq!(back, vec![Value::Text(awkward.into())], "payload {payload}");
        // Byte for byte what the shared serializer writes for the string.
        let canonical = serde_json::to_string(&awkward.to_string()).unwrap();
        assert!(payload.ends_with(&format!("[[{canonical}]]}}")), "{payload} vs {canonical}");
    }
}

// ---------------------------------------------------------------------------
// Replay equivalence: recover(journal(ops)) ≡ apply(ops) in memory
// ---------------------------------------------------------------------------

/// One state-mutating operation over a small fixed world: streams s0/s1,
/// subjects u0/u1, policy slots p0..p3.
#[derive(Debug, Clone)]
enum Op {
    LoadPolicy { slot: usize, subject: usize, stream: usize, threshold: u8 },
    UpdatePolicy { slot: usize, subject: usize, stream: usize, threshold: u8 },
    RemovePolicy { slot: usize },
    Grant { subject: usize, stream: usize, refined: bool },
    Release { subject: usize, stream: usize },
    Push { stream: usize, count: usize, rain: u8 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..4, 0usize..2, 0usize..2, 1u8..20).prop_map(
            |(slot, subject, stream, threshold)| Op::LoadPolicy {
                slot,
                subject,
                stream,
                threshold
            }
        ),
        (0usize..4, 0usize..2, 0usize..2, 1u8..20).prop_map(
            |(slot, subject, stream, threshold)| Op::UpdatePolicy {
                slot,
                subject,
                stream,
                threshold
            }
        ),
        (0usize..4).prop_map(|slot| Op::RemovePolicy { slot }),
        (0usize..2, 0usize..2, proptest::bool::ANY)
            .prop_map(|(subject, stream, refined)| Op::Grant { subject, stream, refined }),
        (0usize..2, 0usize..2).prop_map(|(subject, stream)| Op::Release { subject, stream }),
        (0usize..2, 1usize..12, 0u8..25).prop_map(|(stream, count, rain)| Op::Push {
            stream,
            count,
            rain
        }),
    ]
}

/// Apply one op through the unified backend API; returns whether it
/// succeeded (both the journaled and the shadow server must agree).
fn apply(backend: &dyn Backend, schema: &Arc<Schema>, op: &Op) -> bool {
    match op {
        Op::LoadPolicy { slot, subject, stream, threshold } => backend
            .load_policy(rain_policy(
                &format!("p{slot}"),
                &format!("s{stream}"),
                &format!("u{subject}"),
                f64::from(*threshold),
            ))
            .is_ok(),
        Op::UpdatePolicy { slot, subject, stream, threshold } => backend
            .update_policy(rain_policy(
                &format!("p{slot}"),
                &format!("s{stream}"),
                &format!("u{subject}"),
                f64::from(*threshold),
            ))
            .is_ok(),
        Op::RemovePolicy { slot } => backend.remove_policy(&format!("p{slot}")).is_ok(),
        Op::Grant { subject, stream, refined } => {
            let query = refined
                .then(|| UserQuery::for_stream(format!("s{stream}")).with_filter("rainrate > 30"));
            backend
                .handle_request(
                    &Request::subscribe(&format!("u{subject}"), &format!("s{stream}")),
                    query.as_ref(),
                )
                .is_ok()
        }
        Op::Release { subject, stream } => {
            backend.release_access(&format!("u{subject}"), &format!("s{stream}"))
        }
        Op::Push { stream, count, rain } => {
            let batch: Vec<Tuple> =
                (0..*count).map(|i| weather_tuple(schema, i as i64, f64::from(*rain))).collect();
            backend.push_batch(&format!("s{stream}"), batch).is_ok()
        }
    }
}

/// One audit event keyed without its timing-dependent detail suffix (load
/// durations differ run to run): (kind, subject, stream, policy).
type AuditKey = (String, Option<String>, Option<String>, Option<String>);

/// The comparable footprint of a backend: everything the durability layer
/// promises to reconstruct.
fn footprint(backend: &dyn Backend) -> (usize, usize, Vec<AuditKey>) {
    let audit = backend
        .audit_events()
        .into_iter()
        .map(|t| (t.event.kind.to_string(), t.event.subject, t.event.stream, t.event.policy_id))
        .collect();
    (backend.policy_count(), backend.live_deployments(), audit)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any operation sequence: the journaled server equals an in-memory
    /// server executing the same sequence, recovery equals both (same
    /// handles, same audit trail), and this holds with compaction
    /// interleaved (snapshot_every = 3) exactly as without (0).
    #[test]
    fn recovery_is_equivalent_to_in_memory_replay(
        ops in proptest::collection::vec(arb_op(), 1..24),
        compact in proptest::bool::ANY,
    ) {
        let snapshot_every = if compact { 3 } else { 0 };
        let (store, _guard) = fresh_store("prop");
        let config = DurableConfig { snapshot_every, ..DurableConfig::local() };
        let shadow: Arc<dyn Backend> = Arc::new(DataServer::new(config.server_config()));
        let durable = DurableServer::create(&store, config).unwrap();
        let schema = Schema::weather_example().shared();

        for name in ["s0", "s1"] {
            Backend::register_stream(&durable, name, Schema::weather_example()).unwrap();
            shadow.register_stream(name, Schema::weather_example()).unwrap();
        }
        for op in &ops {
            let on_durable = apply(&durable, &schema, op);
            let on_shadow = apply(shadow.as_ref(), &schema, op);
            prop_assert_eq!(on_durable, on_shadow, "divergence applying {:?}", op);
        }

        // The wrapper itself never changes semantics...
        prop_assert_eq!(footprint(&durable), footprint(shadow.as_ref()));
        let live_before = durable.live_grants();
        let audit_before = durable.inner().audit_events();
        let ingested = tuples_ingested(&durable);
        drop(durable);

        // ...and recovery rebuilds the same world: counts, audit (verbatim,
        // original timestamps), handle URIs, ingest, store revision.
        let recovered = DurableServer::recover(&store).unwrap();
        prop_assert_eq!(footprint(&recovered), footprint(shadow.as_ref()));
        prop_assert_eq!(recovered.live_grants(), live_before.clone());
        prop_assert_eq!(recovered.inner().audit_events(), audit_before.clone());
        if snapshot_every == 0 {
            // Without compaction every ingest record is still in the WAL, so
            // the engine's ingest counter (and window state) replays exactly.
            prop_assert_eq!(tuples_ingested(&recovered), ingested);
        } else {
            // Compaction seals ingest folded into the snapshot (documented in
            // docs/RECOVERY.md): only the WAL tail re-ingests.
            prop_assert!(tuples_ingested(&recovered) <= ingested);
        }
        for grant in &live_before {
            prop_assert!(recovered.inner().handle_is_live(&StreamHandle::from_uri(grant.handle.clone())));
        }

        // Double recovery: nothing drifts.
        drop(recovered);
        let again = DurableServer::recover(&store).unwrap();
        prop_assert_eq!(footprint(&again), footprint(shadow.as_ref()));
        prop_assert_eq!(again.live_grants(), live_before);
        prop_assert_eq!(again.inner().audit_events(), audit_before);
    }
}
