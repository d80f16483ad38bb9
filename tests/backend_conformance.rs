//! Backend conformance suite.
//!
//! Every test body here is written **once** against `&dyn Backend` and
//! executed for every deployment shape — a single in-process `DataServer`,
//! a 3-node brokering `Fabric`, a disk-backed `DurableServer`, and a 3-node
//! `ReplicatedFabric` of durable stores with WAL shipping — pinning the
//! promise of the unified backend API: scenario code cannot tell one node
//! from N, nor memory from disk, nor a fabric that can lose a host from one
//! that cannot. Covered: register/push/subscribe,
//! policy churn (load / update / remove with graph withdrawal), release
//! edge cases (unknown and double releases are no-ops), unified
//! unknown-handle errors, reuse semantics, the single-access guard, and
//! the node-tagged audit trail.

mod common;

use common::{temp_store, RemoveOnDrop};
use exacml::exacml_dsms::{Schema, Tuple, Value};
use exacml::prelude::*;
use std::sync::Arc;

/// The four backend shapes every test runs against, and the guards of the
/// two stores under them. Bind the guards before the loop so they drop
/// after every shape.
fn backends() -> (Vec<Arc<dyn Backend>>, [RemoveOnDrop; 2]) {
    let (durable, durable_store) = temp_store("conformance");
    let (replicated, replicated_store) = temp_store("conformance");
    let shapes = vec![
        BackendBuilder::local().build(),
        BackendBuilder::fabric(3).build(),
        BackendBuilder::durable(durable).build(),
        BackendBuilder::replicated(3, replicated).build(),
    ];
    (shapes, [durable_store, replicated_store])
}

fn weather_tuple(schema: &Arc<Schema>, i: i64, rain: f64) -> Tuple {
    Tuple::builder_shared(schema)
        .set("samplingtime", Value::Timestamp(i * 30_000))
        .set("rainrate", rain)
        .finish_with_defaults()
}

fn rain_policy(id: &str, stream: &str, subject: &str) -> Policy {
    StreamPolicyBuilder::new(id, stream).subject(subject).filter("rainrate > 5").build()
}

#[test]
fn register_push_subscribe_lifecycle() {
    let (shapes, _stores) = backends();
    for backend in shapes {
        let kind = backend.backend_kind();
        // Several streams so a fabric spreads them over more than one node.
        let schema = Schema::weather_example().shared();
        for i in 0..6 {
            let name = format!("stream{i}");
            backend.register_stream(&name, Schema::weather_example()).unwrap();
            backend.load_policy(rain_policy(&format!("p{i}"), &name, "LTA")).unwrap();
        }
        // Duplicate registration fails identically on both shapes.
        assert!(backend.register_stream("stream0", Schema::weather_example()).is_err(), "{kind}");
        // Unknown streams reject ingest.
        assert!(backend.push("nosuch", weather_tuple(&schema, 0, 9.0)).is_err(), "{kind}");

        for i in 0..6 {
            let name = format!("stream{i}");
            let granted = backend
                .handle_request(&Request::subscribe("LTA", &name), None)
                .unwrap_or_else(|e| panic!("{kind}: grant on {name}: {e}"));
            assert!(backend.handle_is_live(granted.handle()), "{kind}");
            let mut subscription = backend.subscribe(granted.handle()).unwrap();

            // Batch + single push; only heavy rain passes the policy filter.
            let batch: Vec<Tuple> = (0..20).map(|k| weather_tuple(&schema, k, 10.0)).collect();
            assert_eq!(backend.push_batch(&name, batch).unwrap(), 20, "{kind}");
            assert_eq!(backend.push(&name, weather_tuple(&schema, 20, 1.0)).unwrap(), 0, "{kind}");
            let derived = subscription.drain();
            assert_eq!(derived.len(), 20, "{kind}: {name} lost or duplicated tuples");
            // Delivery preserves send order on both shapes.
            for pair in derived.windows(2) {
                assert!(pair[1].event_time().unwrap() > pair[0].event_time().unwrap(), "{kind}");
            }
        }
        assert_eq!(backend.live_deployments(), 6, "{kind}");
    }
}

/// The batched fan-out entry point and the settled drain are part of the
/// uniform surface: one `push_batches` call spanning several streams lands
/// on every shape, and `Subscription::drain_settled` reports delivery
/// records with consistent ordering invariants whether the tuples crossed
/// a simulated link (fabric) or an in-process channel (single server).
#[test]
fn batched_fan_out_and_settled_drain_are_uniform() {
    let (shapes, _stores) = backends();
    for backend in shapes {
        let kind = backend.backend_kind();
        let schema = Schema::weather_example().shared();
        let mut subscriptions = Vec::new();
        for i in 0..4 {
            let name = format!("stream{i}");
            backend.register_stream(&name, Schema::weather_example()).unwrap();
            backend.load_policy(rain_policy(&format!("p{i}"), &name, "LTA")).unwrap();
            let granted = backend.handle_request(&Request::subscribe("LTA", &name), None).unwrap();
            subscriptions.push(backend.subscribe(granted.handle()).unwrap());
        }

        // One trait-level call fans out to every stream (and, on the fabric
        // shapes, every owner node in one frame per node); empty batches
        // are dropped silently.
        let batches: Vec<StreamBatch> = (0..4)
            .map(|i| {
                StreamBatch::new(
                    format!("stream{i}"),
                    (0..10).map(|k| weather_tuple(&schema, k, 10.0)).collect(),
                )
            })
            .chain(std::iter::once(StreamBatch::new("stream0", Vec::new())))
            .collect();
        assert_eq!(backend.push_batches(batches).unwrap(), 40, "{kind}");

        for subscription in &mut subscriptions {
            let received = subscription.drain_settled();
            assert_eq!(received.len(), 10, "{kind}: lost or duplicated tuples");
            // Arrival order is non-decreasing, and arrived ≥ sent always —
            // in-process delivery settles at zero latency, fabric delivery
            // after its simulated link.
            for pair in received.windows(2) {
                assert!(pair[1].arrived_at_nanos >= pair[0].arrived_at_nanos, "{kind}");
            }
            for d in &received {
                assert!(d.arrived_at_nanos >= d.sent_at_nanos, "{kind}");
            }
        }

        // An unknown stream fails the call identically on every shape.
        let bad = vec![StreamBatch::new("nosuch", vec![weather_tuple(&schema, 0, 9.0)])];
        assert!(backend.push_batches(bad).is_err(), "{kind}");
    }
}

#[test]
fn policy_churn_withdraws_graphs_and_serves_fresh_obligations() {
    let (shapes, _stores) = backends();
    for backend in shapes {
        let kind = backend.backend_kind();
        backend.register_stream("weather", Schema::weather_example()).unwrap();
        backend.load_policy(rain_policy("p", "weather", "LTA")).unwrap();
        assert_eq!(backend.policy_count(), 1, "{kind}");

        // Update withdraws the graphs the old version spawned, and a fresh
        // grant carries the new obligation set.
        let granted = backend.handle_request(&Request::subscribe("LTA", "weather"), None).unwrap();
        let updated =
            StreamPolicyBuilder::new("p", "weather").subject("LTA").filter("rainrate > 50").build();
        assert_eq!(backend.update_policy(updated).unwrap(), 1, "{kind}");
        assert!(!backend.handle_is_live(granted.handle()), "{kind}");
        let fresh = backend.handle_request(&Request::subscribe("LTA", "weather"), None).unwrap();
        assert!(fresh.response.streamsql.contains("rainrate > 50"), "{kind}");

        // Removal withdraws and then denies.
        assert_eq!(backend.remove_policy("p").unwrap(), 1, "{kind}");
        assert_eq!(backend.policy_count(), 0, "{kind}");
        assert_eq!(backend.live_deployments(), 0, "{kind}");
        assert!(matches!(
            backend.handle_request(&Request::subscribe("LTA", "weather"), None),
            Err(ExacmlError::AccessDenied { .. })
        ));
        // Removing an unknown policy fails on both shapes.
        assert!(backend.remove_policy("p").is_err(), "{kind}");
    }
}

/// A policy whose filter does not parse fails closed: its filter obligation
/// carries the condition as written, so every request under it is refused
/// and audited instead of being granted the unfiltered stream.
#[test]
fn an_unparsable_policy_filter_refuses_every_request() {
    let (shapes, _stores) = backends();
    for backend in shapes {
        let kind = backend.backend_kind();
        backend.register_stream("weather", Schema::weather_example()).unwrap();
        let policy =
            StreamPolicyBuilder::new("p", "weather").subject("LTA").filter("rainrate >").build();
        backend.load_policy(policy).unwrap();
        let refused = backend.handle_request(&Request::subscribe("LTA", "weather"), None);
        assert!(matches!(refused, Err(ExacmlError::BadObligation { .. })), "{kind}: {refused:?}");
        assert_eq!(backend.audit_kind_counts().get("denied").copied(), Some(1), "{kind}");
        assert_eq!(backend.live_deployments(), 0, "{kind}");
        assert!(!backend.release_access("LTA", "weather"), "{kind}");
    }
}

#[test]
fn release_edge_cases_are_noops_on_every_shape() {
    let (shapes, _stores) = backends();
    for backend in shapes {
        let kind = backend.backend_kind();
        backend.register_stream("weather", Schema::weather_example()).unwrap();
        backend.load_policy(rain_policy("p", "weather", "LTA")).unwrap();
        let granted = backend.handle_request(&Request::subscribe("LTA", "weather"), None).unwrap();

        // Unknown subject, unknown stream, unknown both: no-ops.
        assert!(!backend.release_access("EMA", "weather"), "{kind}");
        assert!(!backend.release_access("LTA", "nosuch"), "{kind}");
        assert!(!backend.release_access("nobody", "nothing"), "{kind}");
        assert!(backend.handle_is_live(granted.handle()), "{kind}");

        // Real release withdraws; the double release (and the
        // case-insensitive variant) are no-ops.
        assert!(backend.release_access("LTA", "weather"), "{kind}");
        assert!(!backend.release_access("LTA", "weather"), "{kind}");
        assert!(!backend.release_access("lta", "WEATHER"), "{kind}");
        assert!(!backend.handle_is_live(granted.handle()), "{kind}");
        assert_eq!(backend.live_deployments(), 0, "{kind}");

        // Release after the policy withdrawal already freed everything.
        let granted = backend.handle_request(&Request::subscribe("LTA", "weather"), None).unwrap();
        backend.remove_policy("p").unwrap();
        assert!(!backend.release_access("LTA", "weather"), "{kind}");
        assert!(!backend.handle_is_live(granted.handle()), "{kind}");
    }
}

#[test]
fn unknown_handles_report_the_unified_error() {
    use exacml::exacml_dsms::StreamHandle;
    let (shapes, _stores) = backends();
    for backend in shapes {
        let kind = backend.backend_kind();
        backend.register_stream("weather", Schema::weather_example()).unwrap();
        backend.load_policy(rain_policy("p", "weather", "LTA")).unwrap();

        // Never-granted handles: not live, and subscribe reports the same
        // unified variant on both shapes.
        let foreign = StreamHandle::mint("elsewhere", 99);
        assert!(!backend.handle_is_live(&foreign), "{kind}");
        assert!(
            matches!(backend.subscribe(&foreign), Err(ExacmlError::UnknownHandle(_))),
            "{kind}"
        );

        // A released handle degrades to exactly the same error.
        let granted = backend.handle_request(&Request::subscribe("LTA", "weather"), None).unwrap();
        assert!(backend.subscribe(granted.handle()).is_ok(), "{kind}");
        backend.release_access("LTA", "weather");
        assert!(
            matches!(backend.subscribe(granted.handle()), Err(ExacmlError::UnknownHandle(_))),
            "{kind}"
        );

        // Requests missing mandatory attributes are rejected identically.
        assert!(matches!(
            backend.handle_request(&Request::new(), None),
            Err(ExacmlError::IncompleteRequest(_))
        ));
    }
}

#[test]
fn reuse_and_single_access_guard_semantics() {
    let (shapes, _stores) = backends();
    for backend in shapes {
        let kind = backend.backend_kind();
        backend.register_stream("weather", Schema::weather_example()).unwrap();
        backend.load_policy(rain_policy("p", "weather", "LTA")).unwrap();

        // Identical re-request reuses the live handle.
        let first = backend.handle_request(&Request::subscribe("LTA", "weather"), None).unwrap();
        let second = backend.handle_request(&Request::subscribe("LTA", "weather"), None).unwrap();
        assert!(second.response.reused, "{kind}");
        assert_eq!(first.handle(), second.handle(), "{kind}");
        assert_eq!(backend.live_deployments(), 1, "{kind}");

        // A *different* query on the same stream is blocked (Example 2).
        let query = UserQuery::for_stream("weather").with_filter("rainrate > 70");
        assert!(
            matches!(
                backend.handle_request(&Request::subscribe("LTA", "weather"), Some(&query)),
                Err(ExacmlError::MultipleAccess { .. })
            ),
            "{kind}"
        );
        // Releasing unblocks it.
        assert!(backend.release_access("LTA", "weather"), "{kind}");
        assert!(
            backend.handle_request(&Request::subscribe("LTA", "weather"), Some(&query)).is_ok(),
            "{kind}"
        );
    }
}

#[test]
fn audit_trail_is_node_tagged_on_every_shape() {
    let (shapes, _stores) = backends();
    for backend in shapes {
        let kind = backend.backend_kind();
        let fabric_nodes = if kind.starts_with("fabric") { 3 } else { 1 };
        backend.register_stream("weather", Schema::weather_example()).unwrap();
        backend.load_policy(rain_policy("p", "weather", "LTA")).unwrap();

        backend.handle_request(&Request::subscribe("LTA", "weather"), None).unwrap();
        let _ = backend.handle_request(&Request::subscribe("EMA", "weather"), None);
        backend.release_access("LTA", "weather");
        backend.remove_policy("p").unwrap();

        let events = backend.audit_events();
        let kinds: Vec<exacml::exacml_plus::AuditEventKind> =
            events.iter().map(|t| t.event.kind).collect();
        use exacml::exacml_plus::AuditEventKind as K;
        for expected in
            [K::PolicyLoaded, K::Granted, K::Denied, K::AccessReleased, K::PolicyRemoved]
        {
            assert!(kinds.contains(&expected), "{kind}: missing {expected} in {kinds:?}");
        }
        // Policy life-cycle events happen once per node (fabric-wide
        // propagation), request events exactly once fabric-wide.
        assert_eq!(kinds.iter().filter(|k| **k == K::PolicyLoaded).count(), fabric_nodes, "{kind}");
        assert_eq!(kinds.iter().filter(|k| **k == K::Granted).count(), 1, "{kind}");
        // Every event is tagged with a node of the right shape.
        for tagged in &events {
            match tagged.node {
                NodeId::DataServer => {
                    assert!(kind == "data-server" || kind == "durable-server", "{kind}");
                }
                NodeId::Server(i) => {
                    assert!(kind.starts_with("fabric"), "{kind}");
                    assert!((i as usize) < fabric_nodes, "{kind}");
                }
                other => panic!("{kind}: audit event tagged with {other:?}"),
            }
        }

        // Per-subject filtering matches on both shapes.
        let lta = backend.audit_events_for_subject("LTA");
        assert!(!lta.is_empty(), "{kind}");
        assert!(lta.iter().all(|t| t.event.subject.as_deref() == Some("LTA")), "{kind}");
    }
}

#[test]
fn overlapping_subscribers_share_one_plan_on_every_shape() {
    let (shapes, _stores) = backends();
    for backend in shapes {
        let kind = backend.backend_kind();
        let schema = Schema::weather_example().shared();
        backend.register_stream("weather", Schema::weather_example()).unwrap();
        backend
            .load_policy(StreamPolicyBuilder::new("open", "weather").filter("rainrate > 5").build())
            .unwrap();

        // N overlapping subscribers ride exactly one compiled plan.
        let mut sessions = Vec::new();
        let mut subscriptions = Vec::new();
        let mut plans = std::collections::HashSet::new();
        for i in 0..8 {
            let session = Session::new(backend.clone(), format!("user{i}"));
            let subscription = session.subscribe(Query::on("weather")).unwrap();
            plans.insert(subscription.plan());
            sessions.push(session);
            subscriptions.push(subscription);
        }
        assert_eq!(plans.len(), 1, "{kind}");
        assert_eq!(backend.live_plans(), 1, "{kind}");
        assert_eq!(backend.live_deployments(), 1, "{kind}");

        // Every subscriber sees the shared plan's full output.
        backend
            .push_batch("weather", (0..5).map(|k| weather_tuple(&schema, k, 9.0)).collect())
            .unwrap();
        for subscription in &mut subscriptions {
            assert_eq!(subscription.drain().len(), 5, "{kind}");
        }

        // Sessions release refcounts on drop; the plan is withdrawn only
        // when the *last* sharer leaves.
        subscriptions.clear();
        let last = sessions.pop().unwrap();
        sessions.clear();
        assert_eq!(backend.live_plans(), 1, "{kind}: one sharer still holds the plan");
        drop(last);
        assert_eq!(backend.live_plans(), 0, "{kind}");
        assert_eq!(backend.live_deployments(), 0, "{kind}");

        // A policy update invalidates the shared plan and re-merges fresh
        // grants onto a new one.
        let session = Session::new(backend.clone(), "user0");
        let before = session.subscribe(Query::on("weather")).unwrap();
        let updated = StreamPolicyBuilder::new("open", "weather").filter("rainrate > 50").build();
        assert_eq!(backend.update_policy(updated).unwrap(), 1, "{kind}");
        assert_eq!(backend.live_plans(), 0, "{kind}: the update withdrew the shared plan");
        assert!(!backend.handle_is_live(before.handle()), "{kind}");
        let after = session.subscribe(Query::on("weather")).unwrap();
        assert_ne!(after.plan(), before.plan(), "{kind}: re-merge compiled a fresh plan");
        assert_eq!(backend.live_plans(), 1, "{kind}");
    }
}

/// Section 3.3 at batch grain: a policy change withdraws exactly its own
/// grant between two batches. The withdrawn subscription keeps what the
/// first batch queued (still readable after withdrawal) and sees nothing of
/// the second; its co-rider on the shared plan and a grant on another plan
/// see both batches, in order.
#[test]
fn a_policy_update_between_two_batches_cuts_only_its_own_grant() {
    let (shapes, _stores) = backends();
    for backend in shapes {
        let kind = backend.backend_kind();
        let schema = Schema::weather_example().shared();
        backend.register_stream("weather", Schema::weather_example()).unwrap();
        // LTA and EMA: the same mandated filter under two policies, so both
        // ride one plan. PUB: its own filter, its own plan.
        backend.load_policy(rain_policy("p-lta", "weather", "LTA")).unwrap();
        backend.load_policy(rain_policy("p-ema", "weather", "EMA")).unwrap();
        backend
            .load_policy(
                StreamPolicyBuilder::new("p-pub", "weather")
                    .subject("PUB")
                    .filter("rainrate > 8")
                    .build(),
            )
            .unwrap();
        let grant = |subject: &str| {
            let granted =
                backend.handle_request(&Request::subscribe(subject, "weather"), None).unwrap();
            let subscription = backend.subscribe(granted.handle()).unwrap();
            (granted, subscription)
        };
        let (_lta, mut lta_sub) = grant("LTA");
        let (ema, mut ema_sub) = grant("EMA");
        let (_pub, mut pub_sub) = grant("PUB");
        assert_eq!(backend.live_plans(), 2, "{kind}: LTA and EMA share a plan");

        let batch = |markers: std::ops::Range<i64>| -> Vec<Tuple> {
            markers.map(|k| weather_tuple(&schema, k, 10.0)).collect()
        };
        let markers = |sub: &mut Subscription| -> Vec<i64> {
            sub.drain().iter().map(|t| t.event_time().unwrap() / 30_000).collect()
        };
        backend.push_batch("weather", batch(0..6)).unwrap();
        let tightened =
            StreamPolicyBuilder::new("p-ema", "weather").subject("EMA").filter("rainrate > 50");
        assert_eq!(backend.update_policy(tightened.build()).unwrap(), 1, "{kind}");
        assert!(!backend.handle_is_live(ema.handle()), "{kind}: withdrawn when the update returns");
        backend.push_batch("weather", batch(6..12)).unwrap();

        assert_eq!(markers(&mut ema_sub), (0..6).collect::<Vec<_>>(), "{kind}: withdrawn grant");
        assert_eq!(markers(&mut lta_sub), (0..12).collect::<Vec<_>>(), "{kind}: co-rider");
        assert_eq!(markers(&mut pub_sub), (0..12).collect::<Vec<_>>(), "{kind}: other plan");
    }
}

#[test]
fn policy_xml_round_trips_through_the_trait() {
    let (shapes, _stores) = backends();
    for backend in shapes {
        let kind = backend.backend_kind();
        backend.register_stream("weather", Schema::weather_example()).unwrap();
        let xml = exacml::exacml_xacml::xml::write_policy(&rain_policy("p", "weather", "LTA"));
        let elapsed = backend.load_policy_xml(&xml).unwrap();
        assert!(elapsed > std::time::Duration::ZERO, "{kind}");
        assert_eq!(backend.policy_count(), 1, "{kind}");
        let granted = backend.handle_request(&Request::subscribe("LTA", "weather"), None).unwrap();
        assert!(granted.response.streamsql.contains("rainrate > 5"), "{kind}");
        // Malformed documents are rejected identically.
        assert!(backend.load_policy_xml("<garbage").is_err(), "{kind}");
    }
}

/// Every shape answers a populated `telemetry()` snapshot whose counters
/// reconcile with the operations just performed; multi-node shapes answer
/// node-tagged sub-snapshots whose counters sum to the aggregate.
#[test]
fn telemetry_snapshots_reconcile_on_every_shape() {
    let (shapes, _stores) = backends();
    for backend in shapes {
        let kind = backend.backend_kind();
        let schema = Schema::weather_example().shared();
        backend.register_stream("weather", Schema::weather_example()).unwrap();
        backend.load_policy(rain_policy("p", "weather", "LTA")).unwrap();
        let granted = backend.handle_request(&Request::subscribe("LTA", "weather"), None).unwrap();
        let mut subscription = backend.subscribe(granted.handle()).unwrap();
        // A denied request records into the same registry.
        assert!(backend.handle_request(&Request::subscribe("EMA", "weather"), None).is_err());
        let batch: Vec<Tuple> = (0..20).map(|k| weather_tuple(&schema, k, 10.0)).collect();
        assert_eq!(backend.push_batch("weather", batch).unwrap(), 20, "{kind}");
        assert_eq!(subscription.drain().len(), 20, "{kind}");

        let snapshot = backend.telemetry();
        assert_eq!(snapshot.node, kind, "{kind}: snapshot carries the backend kind");
        assert!(!snapshot.is_empty(), "{kind}");
        assert_eq!(snapshot.counter(Metric::Requests), 2, "{kind}");
        assert_eq!(snapshot.counter(Metric::RequestsGranted), 1, "{kind}");
        assert_eq!(snapshot.counter(Metric::RequestsDenied), 1, "{kind}");
        assert_eq!(snapshot.counter(Metric::TuplesIngested), 20, "{kind}");
        assert!(snapshot.counter(Metric::BatchesIngested) >= 1, "{kind}");
        assert_eq!(snapshot.stage(Stage::Pdp).map(|s| s.count), Some(2), "{kind}");
        assert!(snapshot.stage(Stage::Ingest).is_some(), "{kind}");

        if kind.starts_with("fabric") {
            assert!(!snapshot.nodes.is_empty(), "{kind}: fabric snapshots are node-tagged");
            let node_ingest: u64 =
                snapshot.nodes.iter().map(|part| part.counter(Metric::TuplesIngested)).sum();
            assert_eq!(node_ingest, 20, "{kind}: sub-snapshots reconcile with the aggregate");
            assert!(snapshot.counter(Metric::BrokerFrames) > 0, "{kind}");
            // One assembly path, one tag scheme: the broker part, then each
            // part under its logical node id; a drained subscription shows
            // as delivery latency whatever layer the fabric runs over.
            let tags: Vec<&str> = snapshot.nodes.iter().map(|part| part.node.as_str()).collect();
            assert_eq!(tags, ["broker", "server-0", "server-1", "server-2"], "{kind}");
            assert_eq!(snapshot.stage(Stage::Delivery).map(|s| s.count), Some(20), "{kind}");
        } else {
            assert!(snapshot.nodes.is_empty(), "{kind}: single-node snapshots are flat");
        }
        if kind == "durable-server" || kind == "fabric-replicated" {
            assert!(snapshot.counter(Metric::WalRecords) > 0, "{kind}: WAL appends recorded");
            assert!(snapshot.counter(Metric::WalFlushes) > 0, "{kind}: WAL flushes recorded");
            assert!(snapshot.stage(Stage::WalAppend).is_some(), "{kind}");
        }
        if kind == "fabric-replicated" {
            assert!(
                snapshot.counter(Metric::ReplicaBatchesShipped) > 0,
                "{kind}: journal shipping recorded"
            );
        }

        // What the fabric's own counters used to answer, on one path for
        // every shape: per-node work lives in the node parts, propagations
        // in the audit trail, and a fault-free run counts no fault.
        let node_parts = snapshot.nodes.get(1..).unwrap_or_default();
        if kind.starts_with("fabric") {
            let node_sum = |metric| node_parts.iter().map(|part| part.counter(metric)).sum::<u64>();
            assert_eq!(node_sum(Metric::Requests), 2, "{kind}: requests on the owner's part");
            // One push_batch call is one ingest frame; the broker part
            // counts the two request hops.
            assert_eq!(node_sum(Metric::BrokerFrames), 1, "{kind}: ingest frames on node parts");
            assert_eq!(snapshot.nodes[0].counter(Metric::BrokerFrames), 2, "{kind}");
        }
        let node_count = node_parts.len().max(1) as u64;
        let loaded = backend.audit_kind_counts().get("policy-loaded").copied();
        assert_eq!(loaded, Some(node_count), "{kind}: one policy-loaded per node");
        for metric in [
            Metric::BrokerRetries,
            Metric::Failovers,
            Metric::HandlesReminted,
            Metric::ReplicaShipRetries,
        ] {
            assert!(!snapshot.counters.contains_key(metric.name()), "{kind}: {metric:?}");
        }
    }
}
