//! Chaos suite: kill nodes of a replicated fabric mid-churn and assert the
//! paper's accountability promises survive the loss.
//!
//! The scenario mirrors the conformance suite's world — several streams,
//! open and subject-scoped policies, grants, releases, ingest — running on
//! a [`ReplicatedFabric`] while a physical host dies. The invariants:
//!
//! * **zero grant loss** — every handle acknowledged before the kill is
//!   still live afterwards, at its exact recorded URI, served by a
//!   surviving peer that replayed the shipped journal;
//! * **releases stay released** — failover must not resurrect a grant the
//!   subject already gave up;
//! * **the audit trail keeps its node tags** — events recorded by the dead
//!   node reappear under the same logical node id;
//! * **the control plane keeps working** — policy loads, fresh grants and
//!   ingest during and after the failover succeed (transient fault windows
//!   degrade to retries, not errors).
//!
//! The workload size is overridable so the nightly soak can run the same
//! invariants at a much larger scale: `CHAOS_STREAMS`, `CHAOS_BATCHES`,
//! `CHAOS_BATCH_SIZE`, `CHAOS_CHURN_ROUNDS`. When `TELEMETRY_SNAPSHOT_OUT`
//! names a path, the headline scenario also dumps the fabric's final
//! telemetry snapshot there as JSON so the nightly workflow can upload it
//! as a build artifact.

use exacml::exacml_durable::{ReplicatedConfig, Replication};
use exacml::exacml_plus::AuditEventKind;
use exacml::prelude::*;
use exacml_dsms::{Schema, StreamHandle, Tuple, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

static STORE_COUNTER: AtomicUsize = AtomicUsize::new(0);

/// One counter of the fabric's broker part: the registry that outlives every
/// host, where the fault-tolerance counters live.
fn broker_counter(fabric: &ReplicatedFabric, metric: Metric) -> u64 {
    fabric.telemetry().nodes[0].counter(metric)
}

fn knob(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Soak artifact: when `TELEMETRY_SNAPSHOT_OUT` names a path, write the
/// suite's final telemetry snapshot there as JSON (see
/// `docs/OBSERVABILITY.md`); a no-op otherwise.
fn dump_telemetry_snapshot(snapshot: &TelemetrySnapshot) {
    let Ok(path) = std::env::var("TELEMETRY_SNAPSHOT_OUT") else { return };
    let json = serde_json::to_string_pretty(snapshot).expect("snapshot serializes");
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("telemetry snapshot written to {path}");
}

fn fresh_root(tag: &str) -> PathBuf {
    let n = STORE_COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("exacml-chaos-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn weather_tuple(schema: &Arc<Schema>, i: i64, rain: f64) -> Tuple {
    Tuple::builder_shared(schema)
        .set("samplingtime", Value::Timestamp(i * 30_000))
        .set("rainrate", rain)
        .finish_with_defaults()
}

/// The headline chaos scenario from the issue: a 3-node replicated fabric
/// under ingest + policy churn, one host killed mid-churn, zero grants
/// lost.
#[test]
fn killing_a_host_mid_churn_loses_no_grants() {
    let streams = knob("CHAOS_STREAMS", 6);
    let batches = knob("CHAOS_BATCHES", 4);
    let batch_size = knob("CHAOS_BATCH_SIZE", 8);
    let churn_rounds = knob("CHAOS_CHURN_ROUNDS", 3);

    let root = fresh_root("kill");
    let fabric = Arc::new(
        Replication::create(
            ReplicatedConfig::new(3, &root).with_replication(1).with_fabric(|f| f.with_seed(7)),
        )
        .unwrap(),
    );
    let schema = Schema::weather_example().shared();

    // World: `streams` open-policy streams, one grant each, plus one grant
    // that is released before the kill (it must stay released after it).
    for i in 0..streams {
        fabric.register_stream(&format!("s{i}"), Schema::weather_example()).unwrap();
        fabric
            .load_policy(
                StreamPolicyBuilder::new(format!("p{i}"), format!("s{i}"))
                    .filter("rainrate > 5")
                    .build(),
            )
            .unwrap();
    }
    let mut held: BTreeMap<String, String> = BTreeMap::new();
    for i in 0..streams {
        let granted = fabric
            .handle_request(&Request::subscribe(&format!("u{i}"), &format!("s{i}")), None)
            .unwrap();
        held.insert(format!("s{i}"), granted.handle().uri().to_string());
    }
    let released_uri = held.remove("s0").unwrap();
    assert!(fabric.release_access("u0", "s0"));

    // Who owns what, before anything dies.
    let owner_of: BTreeMap<String, u16> = (0..streams)
        .map(|i| {
            let stream = format!("s{i}");
            let NodeId::Server(owner) = fabric.owner_of(&stream) else { unreachable!() };
            (stream, owner)
        })
        .collect();
    // The victim: the host currently backing s1's owner (s1 is never
    // released, so the victim holds at least one live grant).
    let victim = fabric.layer().host_of(owner_of["s1"] as usize);
    let victim_grants = (0..streams)
        .filter(|i| fabric.layer().host_of(owner_of[&format!("s{i}")] as usize) == victim)
        .count();
    let audit_before: BTreeSet<(NodeId, u64, String)> = fabric
        .audit_events()
        .iter()
        .map(|t| (t.node, t.event.sequence, t.event.kind.to_string()))
        .collect();

    // Churn: ingest into every stream, kill the victim halfway through.
    let kill_at = batches / 2;
    for round in 0..batches {
        if round == kill_at {
            fabric.kill_node(victim);
        }
        for i in 0..streams {
            let batch: Vec<Tuple> = (0..batch_size)
                .map(|k| weather_tuple(&schema, (round * batch_size + k) as i64, 10.0))
                .collect();
            fabric.push_batch(&format!("s{i}"), batch).unwrap();
        }
    }
    // Policy churn keeps running through the failover too.
    for round in 0..churn_rounds {
        fabric
            .load_policy(
                StreamPolicyBuilder::new(format!("churn{round}"), "s1")
                    .subject(format!("c{round}"))
                    .filter("rainrate > 50")
                    .build(),
            )
            .unwrap();
        fabric.remove_policy(&format!("churn{round}")).unwrap();
    }

    // Zero grant loss: every held handle is live at its recorded URI, and
    // each failed-over owner now lives on a surviving host.
    for (stream, uri) in &held {
        assert!(
            fabric.handle_is_live(&StreamHandle::from_uri(uri.clone())),
            "{stream}'s grant must survive the kill at its recorded URI"
        );
        assert_ne!(fabric.layer().host_of(owner_of[stream] as usize), victim);
    }
    // The released grant stays released — failover must not resurrect it.
    assert!(!fabric.handle_is_live(&StreamHandle::from_uri(released_uri)));

    // The trail survived with its node tags: every pre-kill event is still
    // present, attributed to the same logical node.
    let audit_after: BTreeSet<(NodeId, u64, String)> = fabric
        .audit_events()
        .iter()
        .map(|t| (t.node, t.event.sequence, t.event.kind.to_string()))
        .collect();
    assert!(
        audit_before.is_subset(&audit_after),
        "pre-kill audit events must survive failover with their node tags"
    );

    // The counters account for what happened.
    let failovers = broker_counter(&fabric, Metric::Failovers);
    assert!(failovers >= 1, "at least the victim's nodes failed over");
    let reminted = broker_counter(&fabric, Metric::HandlesReminted);
    assert!(
        reminted as usize >= victim_grants,
        "every grant owned by the victim was re-minted ({reminted} < {victim_grants})"
    );
    assert!(broker_counter(&fabric, Metric::ReplicaBatchesShipped) > 0);

    // The fabric still enforces: a second query on a held stream is
    // refused, a fresh grant works, release works — the conformance
    // contract holds post-failover.
    let query = UserQuery::for_stream("s1").with_filter("rainrate > 70");
    assert!(matches!(
        fabric.handle_request(&Request::subscribe("u1", "s1"), Some(&query)),
        Err(ExacmlError::MultipleAccess { .. })
    ));
    let fresh = fabric.handle_request(&Request::subscribe("v", "s1"), None).unwrap();
    assert!(fabric.handle_is_live(fresh.handle()));
    assert!(fabric.release_access("u1", "s1"));

    // The telemetry aggregate keeps answering across the kill. Registries
    // are in-memory observability, not WAL-backed state: the victim's
    // pre-kill counts die with its host, so the aggregate covers everything
    // since the failover but never overcounts the true total.
    let snapshot = fabric.telemetry();
    let total_pushed = (streams * batches * batch_size) as u64;
    let post_kill = (streams * (batches - kill_at) * batch_size) as u64;
    let ingested = snapshot.counter(Metric::TuplesIngested);
    assert!(
        (post_kill..=total_pushed).contains(&ingested),
        "aggregate ingest count {ingested} outside [{post_kill}, {total_pushed}]"
    );
    assert!(snapshot.counter(Metric::WalRecords) > 0);
    assert!(snapshot.counter(Metric::ReplicaBatchesShipped) > 0);
    dump_telemetry_snapshot(&snapshot);
    let _ = std::fs::remove_dir_all(&root);
}

/// Delivery keeps flowing to a subscription whose owning host died: the
/// consumer re-subscribes to the *same URI* on the failed-over node and
/// sees post-failover tuples.
#[test]
fn subscription_to_a_failed_over_handle_keeps_delivering() {
    let root = fresh_root("deliver");
    let fabric = Replication::create(
        ReplicatedConfig::new(3, &root).with_replication(2).with_fabric(|f| f.with_seed(3)),
    )
    .unwrap();
    let schema = Schema::weather_example().shared();
    fabric.register_stream("weather", Schema::weather_example()).unwrap();
    fabric
        .load_policy(StreamPolicyBuilder::new("p", "weather").filter("rainrate > 5").build())
        .unwrap();
    let granted = fabric.handle_request(&Request::subscribe("LTA", "weather"), None).unwrap();
    let held = StreamHandle::from_uri(granted.handle().uri().to_string());

    let NodeId::Server(owner) = fabric.owner_of("weather") else { unreachable!() };
    fabric.kill_node(fabric.layer().host_of(owner as usize));

    // The old subscription's node is gone; attaching to the held URI again
    // reaches the adopted deployment.
    let mut subscription = fabric.subscribe(&held).unwrap();
    fabric
        .push_batch("weather", (0..5).map(|i| weather_tuple(&schema, i, 10.0)).collect())
        .unwrap();
    let received = subscription.drain_settled();
    assert_eq!(received.len(), 5, "post-failover ingest must reach the re-attached consumer");
    let _ = std::fs::remove_dir_all(&root);
}

/// Fault-plan-driven chaos: a `Crash` window kills a host at a virtual
/// instant, `LatencySpike` and `LinkDrop` windows on the broker hops
/// degrade to retries (counted, not surfaced as errors), and the fabric
/// heals once the windows pass.
#[test]
fn crash_and_fault_windows_from_a_plan_degrade_to_retries() {
    let root = fresh_root("plan");
    let plan = Arc::new(
        FaultPlan::new()
            // The broker→node0 link flaps early; retries ride it out.
            .inject(
                Fault::LinkDrop { a: NodeId::DataServer, b: NodeId::Server(0) },
                Duration::from_millis(0),
                Duration::from_millis(4),
            )
            .inject(
                Fault::LatencySpike { a: NodeId::DataServer, b: NodeId::Server(1), factor: 8.0 },
                Duration::from_millis(0),
                Duration::from_millis(60),
            )
            // Host 2 loses power at t = 40ms of virtual time; the window
            // closing at 100ms is when an operator may bring it back.
            .inject(
                Fault::Crash { node: NodeId::Server(2) },
                Duration::from_millis(40),
                Duration::from_millis(100),
            ),
    );
    let fabric = Replication::create(
        ReplicatedConfig::new(3, &root)
            .with_replication(1)
            .with_fabric(|f| f.with_seed(5).with_fault_plan(plan)),
    )
    .unwrap();
    let schema = Schema::weather_example().shared();

    // Control-plane traffic during the link-flap window succeeds (the
    // retry budget outlasts the window) and is visible in the counters.
    fabric.register_stream("weather", Schema::weather_example()).unwrap();
    fabric
        .load_policy(StreamPolicyBuilder::new("p", "weather").filter("rainrate > 5").build())
        .unwrap();
    let granted = fabric.handle_request(&Request::subscribe("LTA", "weather"), None).unwrap();
    assert!(
        broker_counter(&fabric, Metric::BrokerRetries) > 0,
        "the fault windows must have cost retries"
    );

    // Cross the crash instant: host 2 dies mid-churn, the next touch of its
    // nodes fails over, the grant survives.
    fabric.advance(Duration::from_millis(50));
    fabric
        .push_batch("weather", (0..6).map(|i| weather_tuple(&schema, i, 10.0)).collect())
        .unwrap();
    assert!(!fabric.layer().host_is_alive(2), "the Crash window must have killed host 2");
    // Touch every node so any that lived on host 2 adopts a survivor.
    for logical in 0..3 {
        fabric.layer().node_server(logical).unwrap();
        assert_ne!(fabric.layer().host_of(logical), 2);
    }
    assert!(fabric.handle_is_live(&StreamHandle::from_uri(granted.handle().uri().to_string())));
    assert!(broker_counter(&fabric, Metric::Failovers) >= 1);

    // Past the crash window, the restarted host rejoins as a mirror target
    // and replication settles back to zero lag.
    fabric.advance(Duration::from_millis(60));
    fabric.restart_node(2);
    fabric.layer().settle_replication();
    assert_eq!(fabric.layer().replication_lag(), 0);
    assert!(fabric.degraded_nodes().is_empty());
    let _ = std::fs::remove_dir_all(&root);
}

/// Batched routing on the replicated fabric: one `push_batches` call spans
/// every stream, ships one WAL-amortised frame per owner node, and stays
/// exactly-once with latency-ordered delivery while fault windows (a
/// broker-link drop riding the retry budget, a latency spike) are active.
#[test]
fn batched_push_is_exactly_once_under_fault_windows() {
    let root = fresh_root("batch");
    let streams = knob("CHAOS_STREAMS", 6);
    let per_stream = knob("CHAOS_BATCH_SIZE", 40);
    let plan = Arc::new(
        FaultPlan::new()
            .inject(
                Fault::LinkDrop { a: NodeId::DataServer, b: NodeId::Server(0) },
                Duration::from_millis(50),
                Duration::from_millis(56),
            )
            .inject(
                Fault::LatencySpike { a: NodeId::DataServer, b: NodeId::Server(1), factor: 6.0 },
                Duration::from_millis(40),
                Duration::from_millis(200),
            ),
    );
    let fabric = Replication::create(
        ReplicatedConfig::new(3, &root)
            .with_replication(1)
            .with_fabric(|f| f.with_seed(11).with_fault_plan(plan)),
    )
    .unwrap();
    let schema = Schema::weather_example().shared();
    let mut subscriptions = Vec::new();
    for i in 0..streams {
        let name = format!("s{i}");
        fabric.register_stream(&name, Schema::weather_example()).unwrap();
        fabric
            .load_policy(
                StreamPolicyBuilder::new(format!("p{i}"), &name).filter("rainrate > 5").build(),
            )
            .unwrap();
        let granted =
            fabric.handle_request(&Request::subscribe(&format!("u{i}"), &name), None).unwrap();
        subscriptions.push((i, fabric.subscribe(granted.handle()).unwrap()));
    }

    // Land the multi-stream fan-out inside both fault windows: the drop
    // degrades to virtual-time retries, never an error or a partial apply.
    fabric.advance(Duration::from_millis(51));
    let batches: Vec<StreamBatch> = (0..streams)
        .map(|i| {
            StreamBatch::new(
                format!("s{i}"),
                (0..per_stream)
                    .map(|k| weather_tuple(&schema, (i * 1000 + k) as i64, 10.0))
                    .collect(),
            )
        })
        .collect();
    assert_eq!(fabric.push_batches(batches).unwrap(), streams * per_stream);
    assert!(
        broker_counter(&fabric, Metric::BrokerRetries) > 0,
        "the drop window must degrade to retries"
    );

    for (i, subscription) in &mut subscriptions {
        let received = subscription.drain_settled();
        // Exactly once, in send order, each tuple paying its simulated hop.
        assert_eq!(received.len(), per_stream, "stream s{i} lost or duplicated tuples");
        for pair in received.windows(2) {
            assert!(pair[1].arrived_at_nanos >= pair[0].arrived_at_nanos);
            assert!(pair[1].tuple.event_time() > pair[0].tuple.event_time());
        }
        for d in &received {
            assert!(d.arrived_at_nanos > d.sent_at_nanos, "delivery must cross the simulated link");
        }
    }

    // WAL shipping amortises per frame, not per tuple; the mirrors settle
    // back to zero lag once replication catches up.
    fabric.layer().settle_replication();
    assert_eq!(fabric.layer().replication_lag(), 0);
    let _ = std::fs::remove_dir_all(&root);
}

/// Losing every replica is an error, not a panic — and it is *typed*, so a
/// broker can distinguish "node gone" from a policy decision.
#[test]
fn losing_every_host_of_a_node_is_a_typed_error() {
    let root = fresh_root("total");
    let fabric = Replication::create(
        ReplicatedConfig::new(2, &root).with_replication(1).with_fabric(|f| f.with_seed(9)),
    )
    .unwrap();
    fabric.register_stream("weather", Schema::weather_example()).unwrap();
    let NodeId::Server(owner) = fabric.owner_of("weather") else { unreachable!() };
    fabric.kill_node(0);
    fabric.kill_node(1);
    let err = fabric.layer().node_server(owner as usize).err().expect("must fail");
    assert!(matches!(err, ExacmlError::NodeUnavailable { .. }), "got {err:?}");
    let _ = std::fs::remove_dir_all(&root);
}

/// A refusal journals too. The denial's audit record must reach the mirrors
/// exactly like a grant's: no replication lag left behind, no degraded
/// health, and the event still there — under the same logical node tag —
/// after the owner's host dies.
#[test]
fn a_denied_request_is_shipped_and_survives_its_owner() {
    let root = fresh_root("denial");
    let fabric = Replication::create(
        ReplicatedConfig::new(3, &root).with_replication(1).with_fabric(|f| f.with_seed(13)),
    )
    .unwrap();
    fabric.register_stream("weather", Schema::weather_example()).unwrap();
    fabric
        .load_policy(
            StreamPolicyBuilder::new("p", "weather").subject("LTA").filter("rainrate > 5").build(),
        )
        .unwrap();
    let owner = fabric.owner_of("weather");
    let NodeId::Server(logical) = owner else { unreachable!() };
    let owner_events = |fabric: &ReplicatedFabric| -> Vec<(u64, AuditEventKind)> {
        fabric
            .audit_events()
            .iter()
            .filter(|t| t.node == owner)
            .map(|t| (t.event.sequence, t.event.kind))
            .collect()
    };

    // No policy names this subject: the PDP refuses and the node journals
    // the refusal.
    let denied = fabric.handle_request(&Request::subscribe("mallory", "weather"), None);
    assert!(matches!(denied, Err(ExacmlError::AccessDenied { .. })), "got {denied:?}");
    assert_eq!(fabric.layer().replication_lag(), 0, "the denial must ship before the answer");
    assert!(!fabric.health().is_degraded());
    let before = owner_events(&fabric);
    assert!(before.iter().any(|(_, kind)| *kind == AuditEventKind::Denied));

    fabric.kill_node(fabric.layer().host_of(logical as usize));
    fabric.layer().node_server(logical as usize).unwrap(); // touch → failover
    assert_eq!(broker_counter(&fabric, Metric::Failovers), 1);
    assert_eq!(owner_events(&fabric), before, "the adopter must replay the denial too");
    let _ = std::fs::remove_dir_all(&root);
}
