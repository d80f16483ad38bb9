//! Durability integration suite: kill/recover through the prelude, recovery
//! edge cases (torn WAL tails, double recovery), and the replay-equivalence
//! property — a journaled operation sequence recovers to exactly the state
//! an in-memory server reaches by executing the same sequence, with or
//! without snapshot compaction in between.

use exacml::exacml_dsms::{DataType, Schema, StreamHandle, Tuple, Value};
use exacml::exacml_durable::record::{decode, decode_row, encode_ingest};
use exacml::exacml_durable::wal;
use exacml::exacml_durable::{DurableServer, Record};
use exacml::prelude::*;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

static STORE_COUNTER: AtomicUsize = AtomicUsize::new(0);

fn fresh_store(tag: &str) -> PathBuf {
    let n = STORE_COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("exacml-durability-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
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
    let store = fresh_store("kill");
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
    let store = fresh_store("torn");
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
    let store = fresh_store("sync");
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
    let _ = std::fs::remove_dir_all(&store);
}

/// Overwrite a store's `meta.json` with one in the eleven-key format stores
/// were written in while the merge rule and ingest journaling were settings,
/// framed as the store frames it.
fn write_eleven_key_meta(
    store: &std::path::Path,
    map_union: bool,
    simplify_filters: bool,
    journal_ingest: bool,
) {
    let payload = format!(
        "{{\"version\":1,\"topology\":\"local\",\"deploy_on_partial_result\":false,\
         \"seed\":42,\"dsms_host\":\"dsms\",\"map_union\":{map_union},\
         \"simplify_filters\":{simplify_filters},\"share_plans\":true,\
         \"journal_ingest\":{journal_ingest},\"sync_writes\":false,\"snapshot_every\":50000}}"
    );
    std::fs::write(store.join("meta.json"), wal::frame(&payload)).unwrap();
}

/// A store whose `meta.json` still carries `map_union`, `simplify_filters`
/// and `journal_ingest` recovers when they hold the values the code now
/// fixes, and is refused, naming the key, when any holds another: recovering
/// it under the fixed values would change what its grants deliver.
#[test]
fn a_store_with_the_retired_meta_keys_recovers_only_at_their_fixed_values() {
    let store = fresh_store("retired-keys");
    let schema = Schema::weather_example().shared();
    let handle_uri = {
        let server = DurableServer::create(&store, DurableConfig::local()).unwrap();
        server.register_stream("weather", Schema::weather_example()).unwrap();
        server.load_policy(rain_policy("p", "weather", "LTA", 5.0)).unwrap();
        let granted = server.handle_request(&Request::subscribe("LTA", "weather"), None).unwrap();
        server
            .push_batch("weather", (0..3).map(|i| weather_tuple(&schema, i, 10.0)).collect())
            .unwrap();
        granted.handle().uri().to_string()
    };

    write_eleven_key_meta(&store, false, true, true);
    let recovered = DurableServer::recover(&store).unwrap();
    assert_eq!(recovered.policy_count(), 1);
    assert!(recovered.inner().handle_is_live(&StreamHandle::from_uri(handle_uri)));
    assert_eq!(tuples_ingested(&recovered), 3);
    drop(recovered);

    for (key, map_union, simplify_filters, journal_ingest) in [
        ("map_union", true, true, true),
        ("simplify_filters", false, false, true),
        ("journal_ingest", false, true, false),
    ] {
        write_eleven_key_meta(&store, map_union, simplify_filters, journal_ingest);
        match DurableServer::recover(&store).err() {
            Some(ExacmlError::Durability(detail)) => {
                assert!(detail.contains(key), "{key}: {detail}");
            }
            other => panic!("{key}: expected a Durability error, got {other:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(&store);
}

/// Recovery writes nothing, so recovering twice (or N times) yields the
/// same state every time.
#[test]
fn double_recovery_is_idempotent() {
    let store = fresh_store("double");
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
        first.inner().policy_store().revision(),
    );
    drop(first);
    let second = DurableServer::recover(&store).unwrap();
    assert_eq!(second.policy_count(), first_state.0);
    assert_eq!(second.inner().live_deployments(), first_state.1);
    assert_eq!(second.live_grants(), first_state.2);
    assert_eq!(second.inner().audit_events(), first_state.3);
    assert_eq!(second.inner().policy_store().revision(), first_state.4);
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
    let store = fresh_store("shared");
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
    let store = fresh_store("shared-snap");
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
    let store = fresh_store("disk-full");
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
    let store = fresh_store("sticky");
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

/// A write torn mid-record (power loss while the page cache drains): the
/// prefix of the record is on disk, recovery must detect and cut it.
#[test]
fn torn_write_mid_record_is_cut_on_recovery() {
    let store = fresh_store("torn-inject");
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
    assert!(recovered.inner().engine().catalog().contains("weather"));
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
        let store = fresh_store("prop");
        let config = DurableConfig { snapshot_every, ..DurableConfig::local() };
        let shadow: Arc<dyn Backend> = Arc::new(DataServer::new(config.server_config()));
        let durable = DurableServer::create(&store, config).unwrap();
        let schema = Schema::weather_example().shared();

        for name in ["s0", "s1"] {
            StreamBackend::register_stream(&durable, name, Schema::weather_example()).unwrap();
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

        let _ = std::fs::remove_dir_all(&store);
    }
}
