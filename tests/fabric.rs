//! Integration tests of the distributed brokering fabric: ≥3 `DataServer`
//! nodes behind the routing broker on the paper-testbed topology, driven
//! through the facade crate. Backend-agnostic semantics (grant/release,
//! policy churn, audit) are pinned by `tests/backend_conformance.rs`; this
//! suite covers what is *specific* to the fabric — routing exactness,
//! fabric-wide cache invalidation, virtual-clock delivery, and (on the plain
//! *and* the replicated shape, one body each) the broker's failure paths.

use exacml::exacml_dsms::{Schema, StreamHandle, Tuple, Value};
use exacml::exacml_durable::{DurableConfig, ReplicatedConfig, Replication};
use exacml::exacml_plus::{rendezvous_owner, Direct};
use exacml::exacml_simnet::{Clock, LinkSpec};
use exacml::exacml_xacml::Decision;
use exacml::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const NODES: usize = 3;
const STREAMS: usize = 12;

fn marker_tuple(schema: &Arc<Schema>, stream_index: usize, sequence: usize) -> Tuple {
    let marker = (stream_index as i64) * 1_000_000_000 + sequence as i64;
    Tuple::builder_shared(schema)
        .set("samplingtime", Value::Timestamp(marker))
        .set("rainrate", 10.0)
        .finish_with_defaults()
}

/// The node parts of a fabric's telemetry (the broker part excluded), in
/// node order.
fn node_parts<L: Placement>(fabric: &Fabric<L>) -> Vec<TelemetrySnapshot> {
    fabric.telemetry().nodes.split_off(1)
}

/// One counter summed over a fabric's node parts.
fn node_sum<L: Placement>(fabric: &Fabric<L>, metric: Metric) -> u64 {
    node_parts(fabric).iter().map(|part| part.counter(metric)).sum()
}

/// One counter of a fabric's broker part, where the fault-tolerance
/// counters live.
fn broker_counter<L: Placement>(fabric: &Fabric<L>, metric: Metric) -> u64 {
    fabric.telemetry().nodes[0].counter(metric)
}

fn testbed_fabric() -> (Fabric, Vec<String>) {
    let fabric = Fabric::new(FabricConfig::new(NODES, TopologyPreset::PaperTestbed.topology()));
    let names: Vec<String> = (0..STREAMS).map(|i| format!("stream{i}")).collect();
    for name in &names {
        fabric.register_stream(name, Schema::weather_example()).unwrap();
    }
    (fabric, names)
}

#[test]
fn stream_ownership_routing_is_exact() {
    let (fabric, names) = testbed_fabric();
    for (i, name) in names.iter().enumerate() {
        let policy = StreamPolicyBuilder::new(format!("p{i}"), name)
            .subject(format!("user{i}"))
            .filter("rainrate > 5")
            .build();
        fabric.load_policy(policy).unwrap();
    }

    // Every stream lives on exactly one node, and that node is the broker's
    // deterministic owner.
    for name in &names {
        let owner = fabric.owner_of(name);
        assert!(matches!(owner, NodeId::Server(_)));
        let hosting: Vec<NodeId> = fabric
            .nodes()
            .iter()
            .zip(fabric.layer().servers())
            .filter(|(_, server)| server.engine().stream_schema(name).is_ok())
            .map(|(node, _)| node.id())
            .collect();
        assert_eq!(hosting, vec![owner], "stream {name} must live exactly on its owner");
    }

    // Requests and data land on the owner; handles stay live and unique.
    let mut handles = HashSet::new();
    for (i, name) in names.iter().enumerate() {
        let response =
            fabric.handle_request(&Request::subscribe(&format!("user{i}"), name), None).unwrap();
        assert_eq!(response.node, fabric.owner_of(name), "request for {name} routed off-owner");
        assert!(fabric.handle_is_live(&response.response.handle));
        assert!(handles.insert(response.response.handle.uri().to_string()));
    }
    let parts = node_parts(&fabric);
    for ((node, server), part) in fabric.nodes().iter().zip(fabric.layer().servers()).zip(&parts) {
        let owned = names.iter().filter(|n| fabric.owner_of(n) == node.id()).count();
        assert_eq!(part.counter(Metric::Requests), owned as u64);
        assert_eq!(server.live_deployments(), owned);
    }
    assert_eq!(fabric.live_deployments(), STREAMS);
}

#[test]
fn policy_update_invalidates_every_nodes_pdp_cache() {
    let (fabric, _names) = testbed_fabric();
    let policy = StreamPolicyBuilder::new("shared-policy", "stream0")
        .subject("LTA")
        .filter("rainrate > 5")
        .build();
    fabric.load_policy(policy).unwrap();

    // Every node's PDP permits under the loaded policy.
    let request = Request::subscribe("LTA", "stream0");
    for server in fabric.layer().servers() {
        assert!(server.pdp().evaluate(&request).is_permit());
    }
    let revisions: Vec<u64> =
        fabric.layer().servers().iter().map(|s| s.policy_store().revision()).collect();

    // A policy update at the broker must advance every node's revision
    // counter and produce the *new* decision on every node (never a stale
    // permit).
    let updated = StreamPolicyBuilder::new("shared-policy", "stream0")
        .subject("LTA")
        .filter("rainrate > 50")
        .build();
    fabric.update_policy(updated).unwrap();
    let servers = fabric.nodes().iter().zip(fabric.layer().servers());
    for ((node, server), old_revision) in servers.clone().zip(&revisions) {
        assert!(
            server.policy_store().revision() > *old_revision,
            "node {} revision did not advance",
            node.id()
        );
        let fresh = server.pdp().evaluate(&request);
        assert!(fresh.is_permit());
        let obligations = format!("{:?}", fresh.obligations);
        assert!(
            obligations.contains("rainrate > 50"),
            "node {} served a stale obligation set: {obligations}",
            node.id()
        );
    }

    // Removal: no node may keep serving the old permit.
    fabric.remove_policy("shared-policy").unwrap();
    for (node, server) in servers {
        let gone = server.pdp().evaluate(&request);
        assert_eq!(
            gone.decision,
            Decision::NotApplicable,
            "node {} served a permit for a removed policy",
            node.id()
        );
    }
}

#[test]
fn policy_change_withdraws_granted_graphs_fabric_wide() {
    let (fabric, names) = testbed_fabric();
    // One policy per stream under a single policy id per stream; grant all.
    let mut granted = Vec::new();
    for (i, name) in names.iter().enumerate() {
        let policy = StreamPolicyBuilder::new(format!("p{i}"), name)
            .subject("LTA")
            .filter("rainrate > 5")
            .build();
        fabric.load_policy(policy).unwrap();
        granted.push(fabric.handle_request(&Request::subscribe("LTA", name), None).unwrap());
    }
    assert_eq!(fabric.live_deployments(), STREAMS);

    // Removing one policy withdraws exactly the graphs it spawned, wherever
    // they live; every other handle stays live.
    let withdrawn = fabric.remove_policy("p0").unwrap();
    assert_eq!(withdrawn, 1);
    assert!(!fabric.handle_is_live(&granted[0].response.handle));
    for response in &granted[1..] {
        assert!(fabric.handle_is_live(&response.response.handle));
    }
    assert_eq!(fabric.live_deployments(), STREAMS - 1);
}

#[test]
fn delivery_is_exactly_once_with_latency_ordered_timestamps() {
    let (fabric, names) = testbed_fabric();
    let schema = Schema::weather_example().shared();
    const PER_STREAM: usize = 200;

    // Grant an identity-shaped access on every stream and subscribe.
    let mut subscriptions = Vec::new();
    for (i, name) in names.iter().enumerate() {
        let policy = StreamPolicyBuilder::new(format!("p{i}"), name)
            .subject("LTA")
            .filter("rainrate > 5")
            .build();
        fabric.load_policy(policy).unwrap();
        let response = fabric.handle_request(&Request::subscribe("LTA", name), None).unwrap();
        subscriptions.push((i, fabric.subscribe(&response.response.handle).unwrap()));
    }

    for (i, name) in names.iter().enumerate() {
        let batch: Vec<Tuple> = (0..PER_STREAM).map(|k| marker_tuple(&schema, i, k)).collect();
        assert_eq!(fabric.push_batch(name, batch).unwrap(), PER_STREAM);
    }

    // Before any virtual time passes, nothing has crossed the network.
    for (_, subscription) in &mut subscriptions {
        assert!(subscription.poll().is_empty());
    }

    // Drain in steps so in-flight tuples arrive across several polls.
    let mut delivered: Vec<Vec<exacml::exacml_plus::fabric::DeliveredTuple>> =
        (0..STREAMS).map(|_| Vec::new()).collect();
    for _ in 0..50 {
        fabric.advance(Duration::from_millis(2));
        for (i, subscription) in &mut subscriptions {
            delivered[*i].extend(subscription.poll());
        }
    }

    for (i, received) in delivered.iter().enumerate() {
        // Exactly once: every marker of the stream, no duplicates.
        assert_eq!(received.len(), PER_STREAM, "stream {i} lost or duplicated tuples");
        let markers: HashSet<i64> =
            received.iter().map(|d| d.tuple.event_time().expect("marker")).collect();
        let expected: HashSet<i64> =
            (0..PER_STREAM).map(|k| (i as i64) * 1_000_000_000 + k as i64).collect();
        assert_eq!(markers, expected, "stream {i} delivered the wrong tuple set");

        // Simulated-latency-ordered: arrival timestamps are non-decreasing,
        // every latency covers at least the link's base propagation delay,
        // and FIFO delivery preserves the send order.
        for pair in received.windows(2) {
            assert!(pair[1].arrived_at_nanos >= pair[0].arrived_at_nanos);
            assert!(pair[1].tuple.event_time() > pair[0].tuple.event_time());
        }
        for d in received {
            assert!(d.arrived_at_nanos > d.sent_at_nanos);
            assert!(
                d.latency() >= Duration::from_micros(200),
                "stream {i}: latency {:?} below the LAN link floor",
                d.latency()
            );
        }
    }

    // Nothing else ever arrives (exactly-once, fabric-wide).
    fabric.advance(Duration::from_secs(5));
    for (_, subscription) in &mut subscriptions {
        assert!(subscription.poll().is_empty());
        assert_eq!(subscription.delivered(), PER_STREAM as u64);
    }
    assert_eq!(fabric.nodes().len(), NODES);
    assert_eq!(node_sum(&fabric, Metric::TuplesIngested), (STREAMS * PER_STREAM) as u64);
}

/// Batched routing under injected faults: one `push_batches` call spanning
/// every stream ships **one frame per owner node**, rides out a broker-link
/// drop window with virtual-time retries, and stays exactly-once with
/// latency-ordered delivery read through the unified
/// `Subscription::drain_settled`.
#[test]
fn batched_routing_survives_fault_windows_exactly_once() {
    const PER_STREAM: usize = 50;
    // The broker→node0 link drops during [50ms, 56ms) of virtual time (the
    // retry budget of 2+4+8ms outlives the window) and node1's link
    // runs an 8× latency spike; the batched fan-out lands inside both.
    let plan = FaultPlan::new()
        .inject(
            Fault::LinkDrop { a: NodeId::DataServer, b: NodeId::Server(0) },
            Duration::from_millis(50),
            Duration::from_millis(56),
        )
        .inject(
            Fault::LatencySpike { a: NodeId::DataServer, b: NodeId::Server(1), factor: 8.0 },
            Duration::from_millis(50),
            Duration::from_millis(200),
        );
    let fabric = Fabric::new(
        FabricConfig::new(NODES, TopologyPreset::PaperTestbed.topology())
            .with_fault_plan(Arc::new(plan)),
    );
    let schema = Schema::weather_example().shared();
    let names: Vec<String> = (0..STREAMS).map(|i| format!("stream{i}")).collect();
    let mut subscriptions = Vec::new();
    for (i, name) in names.iter().enumerate() {
        fabric.register_stream(name, Schema::weather_example()).unwrap();
        let policy = StreamPolicyBuilder::new(format!("p{i}"), name)
            .subject("LTA")
            .filter("rainrate > 5")
            .build();
        fabric.load_policy(policy).unwrap();
        let response = fabric.handle_request(&Request::subscribe("LTA", name), None).unwrap();
        // Subscribe through the trait: delivery is read below through the
        // unified `Subscription` enum, not the concrete fabric type.
        let subscription = StreamBackend::subscribe(&fabric, &response.response.handle).unwrap();
        subscriptions.push((i, subscription));
    }

    // Move into the fault windows, then fan out every stream in ONE call:
    // the broker groups by rendezvous-hashed owner and ships one frame per
    // node instead of one hop per tuple.
    fabric.advance(Duration::from_millis(51));
    let hops_before = node_sum(&fabric, Metric::BrokerFrames);
    let batches: Vec<StreamBatch> = names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            StreamBatch::new(name, (0..PER_STREAM).map(|k| marker_tuple(&schema, i, k)).collect())
        })
        .collect();
    assert_eq!(fabric.push_batches(batches).unwrap(), STREAMS * PER_STREAM);

    assert_eq!(node_sum(&fabric, Metric::TuplesIngested), (STREAMS * PER_STREAM) as u64);
    let hops = node_sum(&fabric, Metric::BrokerFrames) - hops_before;
    assert!(
        hops <= NODES as u64,
        "one fan-out must cost at most one frame per node, not per tuple (cost {hops} hops \
         for {} tuples)",
        STREAMS * PER_STREAM
    );
    // Riding out the drop window cost virtual-time retries, never an error.
    assert!(
        broker_counter(&fabric, Metric::BrokerRetries) > 0,
        "the drop window must degrade to retries"
    );

    for (i, subscription) in &mut subscriptions {
        let received = subscription.drain_settled();
        // Exactly once: every marker of the stream, no duplicates.
        assert_eq!(received.len(), PER_STREAM, "stream {i} lost or duplicated tuples");
        let markers: HashSet<i64> =
            received.iter().map(|d| d.tuple.event_time().expect("marker")).collect();
        let expected: HashSet<i64> =
            (0..PER_STREAM).map(|k| (*i as i64) * 1_000_000_000 + k as i64).collect();
        assert_eq!(markers, expected, "stream {i} delivered the wrong tuple set");
        // Latency-ordered: arrivals non-decreasing, FIFO preserves send
        // order, and every tuple paid at least the LAN propagation floor.
        for pair in received.windows(2) {
            assert!(pair[1].arrived_at_nanos >= pair[0].arrived_at_nanos);
            assert!(pair[1].tuple.event_time() > pair[0].tuple.event_time());
        }
        for d in &received {
            assert!(
                d.latency() >= Duration::from_micros(200),
                "stream {i}: latency {:?} below the LAN link floor",
                d.latency()
            );
        }
    }

    // Nothing else ever arrives (exactly-once, fabric-wide).
    fabric.advance(Duration::from_secs(1));
    for (_, subscription) in &mut subscriptions {
        assert!(subscription.drain_settled().is_empty());
    }
}

#[test]
fn fabric_release_access_edge_cases_match_single_server_semantics() {
    let (fabric, names) = testbed_fabric();
    let name = &names[0];
    let policy = StreamPolicyBuilder::new("p", name).subject("LTA").filter("rainrate > 5").build();
    fabric.load_policy(policy).unwrap();
    let response = fabric.handle_request(&Request::subscribe("LTA", name), None).unwrap();

    // Unknown pair → no-op; real release → true; double release → no-op.
    assert!(!fabric.release_access("nobody", name));
    assert!(!fabric.release_access("LTA", "unplaced-stream"));
    assert!(fabric.release_access("LTA", name));
    assert!(!fabric.release_access("LTA", name));
    assert!(!fabric.handle_is_live(&response.response.handle));
    assert!(matches!(
        fabric.subscribe(&response.response.handle),
        Err(ExacmlError::UnknownHandle(_))
    ));
}

// --- failure paths, on both fabric shapes -------------------------------------
//
// There is one broker, so each failure-path test below is written once,
// generically over the placement layer, and run on the plain fabric and on
// the replicated one. The shapes differ in exactly one expected answer: what
// happens to a node after its host is killed.

/// One fabric shape, built from the configuration every shape shares.
trait Shape {
    type Layer: Placement;
    /// Whether a node whose host was killed answers again on its next touch
    /// (failover) rather than with a typed error until the host restarts.
    const FAILS_OVER: bool;
    fn build(config: FabricConfig) -> Fabric<Self::Layer>;
}

struct Plain;
struct Replicated;

impl Shape for Plain {
    type Layer = Direct;
    const FAILS_OVER: bool = false;
    fn build(config: FabricConfig) -> Fabric {
        Fabric::new(config)
    }
}

impl Shape for Replicated {
    type Layer = Replication;
    const FAILS_OVER: bool = true;
    fn build(config: FabricConfig) -> ReplicatedFabric {
        static STORES: AtomicUsize = AtomicUsize::new(0);
        let n = STORES.fetch_add(1, Ordering::Relaxed);
        let root =
            std::env::temp_dir().join(format!("exacml-fabric-it-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let config = ReplicatedConfig::new(config.nodes, root)
            .with_fabric(|_| config.with_server_template(DurableConfig::local()));
        Replication::create(config).unwrap()
    }
}

/// What the simnet *model* charges one fixed workload on an `nodes`-node
/// fabric: 64 one-subscriber streams, two rounds of reuse requests and four
/// `push_batches` calls of 64 tuples per stream, all from this one thread.
/// Returns the ingest makespan (the slowest node's pipe-busy time — node
/// pipelines serialise their own frames and drain concurrently) and the
/// busiest node's summed broker→node round trips, both in virtual
/// nanoseconds. Deterministic: no wall clock is read.
fn modelled_load(preset: TopologyPreset, seed: u64, nodes: usize) -> (u64, u64) {
    let fabric = Fabric::new(FabricConfig::new(nodes, preset.topology()).with_seed(seed));
    let schema = Schema::weather_example().shared();
    let names: Vec<String> = (0..64).map(|i| format!("stream{i}")).collect();
    let mut requests = Vec::new();
    for (i, name) in names.iter().enumerate() {
        fabric.register_stream(name, Schema::weather_example()).unwrap();
        let policy = StreamPolicyBuilder::new(format!("p{i}"), name)
            .subject(format!("user{i}"))
            .filter("rainrate > 5")
            .build();
        fabric.load_policy(policy).unwrap();
        let request = Request::subscribe(&format!("user{i}"), name);
        fabric.handle_request(&request, None).unwrap();
        requests.push(request);
    }

    let mut trips: HashMap<NodeId, u64> = HashMap::new();
    for request in requests.iter().cycle().take(2 * requests.len()) {
        let response = fabric.handle_request(request, None).unwrap();
        *trips.entry(response.node).or_default() += response.broker_network.as_nanos() as u64;
    }

    let before: Vec<u64> = fabric.nodes().iter().map(|n| n.ingest_frontier_nanos()).collect();
    for round in 0..4 {
        let batches = names.iter().enumerate().map(|(i, name)| {
            let tuples = (0..64).map(|k| marker_tuple(&schema, i, round * 64 + k)).collect();
            StreamBatch::new(name, tuples)
        });
        fabric.push_batches(batches.collect()).unwrap();
    }
    let makespan = fabric
        .nodes()
        .iter()
        .zip(before)
        .map(|(node, before)| node.ingest_frontier_nanos() - before)
        .max()
        .unwrap();
    (makespan, trips.into_values().max().unwrap())
}

/// Doubling the fabric never makes the *modelled* system slower: with the
/// same seed and the same frames and requests offered to 1, 2, 4 and 8
/// nodes, neither the ingest makespan nor the busiest node's request load
/// grows, on either topology (the two presets differ on the client's links
/// only, which broker→node traffic never crosses, so each gets its own seed
/// and the second leg is a second sample of the link delays). This is a
/// property of the simnet model in virtual time, not a wall-clock claim —
/// measured ingest is the benchmark's
/// `core.fabric.push_batches_{1n,4n}_ns_per_tuple`.
#[test]
fn doubling_the_fabric_never_slows_the_simnet_model() {
    for (preset, seed) in [(TopologyPreset::PaperTestbed, 7), (TopologyPreset::PublicCloud, 107)] {
        let loads: Vec<(usize, (u64, u64))> =
            [1, 2, 4, 8].into_iter().map(|n| (n, modelled_load(preset, seed, n))).collect();
        for pair in loads.windows(2) {
            let ((low, (low_ingest, low_requests)), (high, (high_ingest, high_requests))) =
                (pair[0], pair[1]);
            assert!(
                high_ingest <= low_ingest,
                "{}: ingest makespan grew {low} → {high} nodes: {low_ingest} → {high_ingest} ns",
                preset.name()
            );
            assert!(
                high_requests <= low_requests,
                "{}: busiest node's round trips grew {low} → {high} nodes: \
                 {low_requests} → {high_requests} ns",
                preset.name()
            );
        }
    }
}

fn rain_policy(id: &str, stream: &str) -> Policy {
    StreamPolicyBuilder::new(id, stream).subject("LTA").filter("rainrate > 5").build()
}

#[test]
fn transient_link_faults_degrade_to_retries() {
    fn on<S: Shape>() {
        // Every broker→node link drops during [50ms, 53ms); the broker backs
        // off 2ms + 4ms, outliving the window.
        let window = (Duration::from_millis(50), Duration::from_millis(53));
        let plan = FaultPlan::new()
            .inject(Fault::NodeDown { node: NodeId::Server(0) }, window.0, window.1)
            .inject(Fault::NodeDown { node: NodeId::Server(1) }, window.0, window.1);
        let fabric = S::build(FabricConfig::local(2).with_fault_plan(Arc::new(plan)));
        assert_eq!(broker_counter(&fabric, Metric::BrokerRetries), 0);
        let now = || Duration::from_nanos(fabric.clock().now_nanos());
        fabric.advance(window.0 - now());
        fabric.register_stream("weather", Schema::weather_example()).unwrap();
        assert!(broker_counter(&fabric, Metric::BrokerRetries) > 0);
        assert!(now() >= window.1, "retries consumed virtual time");

        // A permanent fault exhausts the budget and reports typed failure,
        // naming the logical node and, in the detail, its host. The budget
        // is 4 attempts: 3 retries after backoffs of 2, 4 and 8 ms.
        let forever = FaultPlan::new()
            .inject_forever(Fault::NodeDown { node: NodeId::Server(0) }, Duration::ZERO)
            .inject_forever(Fault::NodeDown { node: NodeId::Server(1) }, Duration::ZERO);
        let fabric = S::build(FabricConfig::local(2).with_fault_plan(Arc::new(forever)));
        let owner = fabric.owner_of("weather");
        let retries_before = broker_counter(&fabric, Metric::BrokerRetries);
        let clock_before = fabric.clock().now_nanos();
        match fabric.register_stream("weather", Schema::weather_example()) {
            Err(ExacmlError::NodeUnavailable { node, detail }) => {
                assert_eq!(node, owner.to_string());
                assert!(detail.contains("host"), "detail: {detail}");
                assert!(detail.contains("4 attempt(s)"), "detail: {detail}");
            }
            other => panic!("expected NodeUnavailable, got {other:?}"),
        }
        assert_eq!(broker_counter(&fabric, Metric::BrokerRetries) - retries_before, 3);
        assert_eq!(
            Duration::from_nanos(fabric.clock().now_nanos() - clock_before),
            Duration::from_millis(14)
        );
    }
    on::<Plain>();
    on::<Replicated>();
}

#[test]
fn latency_spikes_inflate_the_broker_hop() {
    fn on<S: Shape>() {
        let spike = FaultPlan::new().inject_forever(
            Fault::LatencySpike { a: NodeId::DataServer, b: NodeId::Server(0), factor: 50.0 },
            Duration::ZERO,
        );
        let constant = || FabricConfig::new(1, Topology::uniform(LinkSpec::constant(300.0, 100.0)));
        let slow = S::build(constant().with_fault_plan(Arc::new(spike)));
        let fast = S::build(constant());
        for fabric in [&slow, &fast] {
            fabric.register_stream("weather", Schema::weather_example()).unwrap();
            fabric.load_policy(rain_policy("p", "weather")).unwrap();
        }
        let spiked = slow.handle_request(&Request::subscribe("LTA", "weather"), None).unwrap();
        let normal = fast.handle_request(&Request::subscribe("LTA", "weather"), None).unwrap();
        assert!(spiked.broker_network > normal.broker_network * 10);
    }
    on::<Plain>();
    on::<Replicated>();
}

/// The broker keeps no handle table: a handle's owner is read off its URI,
/// so a dead handle is simply unknown — as on every other shape — however
/// much grant/release churn preceded it.
#[test]
fn released_and_withdrawn_handles_are_unknown_to_the_broker() {
    fn on<S: Shape>() {
        let fabric = S::build(FabricConfig::local(2));
        let unknown = |handle: &StreamHandle| {
            !fabric.handle_is_live(handle)
                && matches!(fabric.subscribe(handle), Err(ExacmlError::UnknownHandle(_)))
        };
        fabric.register_stream("weather", Schema::weather_example()).unwrap();
        fabric.load_policy(rain_policy("p", "weather")).unwrap();
        for _ in 0..10 {
            let granted =
                fabric.handle_request(&Request::subscribe("LTA", "weather"), None).unwrap();
            let handle = &granted.response.handle;
            assert!(fabric.handle_is_live(handle) && fabric.subscribe(handle).is_ok());
            assert!(fabric.release_access("LTA", "weather"));
            assert!(unknown(handle), "a released handle is unknown");
        }
        // Policy withdrawal kills the handle the same way.
        let granted = fabric.handle_request(&Request::subscribe("LTA", "weather"), None).unwrap();
        assert_eq!(fabric.remove_policy("p").unwrap(), 1);
        assert!(unknown(&granted.response.handle), "a withdrawn handle is unknown");
        assert_eq!(fabric.live_deployments(), 0);

        // URIs no node of this fabric minted: a node index it does not have
        // (well-formed otherwise), a foreign host, and junk after the prefix.
        for uri in [
            "exacml://node2/streams/0",
            "exacml://node18446744073709551615/streams/0",
            "exacml://node99999999999999999999999/streams/0",
            "exacml://elsewhere/streams/0",
            "exacml://node/streams/0",
            "exacml://node-1/streams/0",
            "exacml://node",
        ] {
            assert!(unknown(&StreamHandle::from_uri(uri)), "{uri}");
        }
    }
    on::<Plain>();
    on::<Replicated>();
}

#[test]
fn multi_node_push_touches_no_node_when_one_owner_is_unreachable() {
    const PER_STREAM: usize = 4;
    fn streams<L: Placement>(fabric: &Fabric<L>) -> Vec<String> {
        let names: Vec<String> = (0..STREAMS).map(|i| format!("stream{i}")).collect();
        for name in &names {
            fabric.register_stream(name, Schema::weather_example()).unwrap();
        }
        let owners: HashSet<NodeId> = names.iter().map(|name| fabric.owner_of(name)).collect();
        assert!(owners.len() > 1, "the call below must target more than one node");
        names
    }
    fn frame(names: &[String]) -> Vec<StreamBatch> {
        let schema = Schema::weather_example().shared();
        let batch = |i| (0..PER_STREAM).map(|k| marker_tuple(&schema, i, k)).collect();
        names.iter().enumerate().map(|(i, name)| StreamBatch::new(name, batch(i))).collect()
    }
    fn assert_untouched<L: Placement>(fabric: &Fabric<L>, outcome: Result<usize, ExacmlError>) {
        assert!(matches!(outcome, Err(ExacmlError::NodeUnavailable { .. })), "got {outcome:?}");
        assert_eq!(node_sum(fabric, Metric::TuplesIngested), 0);
        assert_eq!(node_sum(fabric, Metric::BrokerFrames), 0);
        assert_eq!(fabric.telemetry().counter(Metric::TuplesIngested), 0);
    }
    fn on<S: Shape>() {
        let all = (STREAMS * PER_STREAM) as u64;
        // Unreachable behind a fault that outlasts the retry budget: a typed
        // error on every shape, with no node touched — not even the owners
        // the broker could have reached.
        let victim = rendezvous_owner("stream0", NODES) as u16;
        let cut = FaultPlan::new().inject_forever(
            Fault::NodeDown { node: NodeId::Server(victim) },
            Duration::from_secs(1),
        );
        let fabric = S::build(FabricConfig::local(NODES).with_fault_plan(Arc::new(cut)));
        let names = streams(&fabric);
        fabric.advance(Duration::from_secs(1));
        assert_untouched(&fabric, fabric.push_batches(frame(&names)));

        // Unreachable because its host was killed: the one answer the layers
        // give differently.
        let fabric = S::build(FabricConfig::local(NODES));
        let names = streams(&fabric);
        fabric.kill_node(victim as usize);
        if S::FAILS_OVER {
            assert_eq!(fabric.push_batches(frame(&names)).unwrap(), 0);
            assert_eq!(broker_counter(&fabric, Metric::Failovers), 1);
        } else {
            assert_untouched(&fabric, fabric.push_batches(frame(&names)));
            fabric.restart_node(victim as usize);
            assert_eq!(fabric.push_batches(frame(&names)).unwrap(), 0);
        }
        assert_eq!(node_sum(&fabric, Metric::TuplesIngested), all);
        assert_eq!(fabric.telemetry().counter(Metric::TuplesIngested), all);
    }
    on::<Plain>();
    on::<Replicated>();
}
