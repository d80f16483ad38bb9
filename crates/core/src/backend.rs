//! One backend API for every enforcement substrate.
//!
//! The paper describes a single enforcement model — XACML decisions compiled
//! into continuous queries on the stream engine — and this crate grows it
//! across deployment shapes: the in-process [`DataServer`], the N-node
//! brokering [`Fabric`], and whatever comes next (a persistent store, a real
//! network). This module is the one API they all speak, split into three
//! object-safe planes plus an umbrella trait:
//!
//! * [`StreamBackend`] — the data plane: register streams, push tuples,
//!   subscribe to granted handles;
//! * [`AccessControl`] — the request plane: the Section 3.2 workflow
//!   (`handle_request`) and explicit release;
//! * [`PolicyAdmin`] — the policy plane of Section 3.3: load / remove /
//!   update / count;
//! * [`Backend`] — the composition, adding the audit trail and deployment
//!   observability every backend must expose.
//!
//! Responses and errors are unified: every backend answers a request with a
//! [`BackendResponse`] (node identity + workflow response + brokering cost,
//! zero on a single server) and reports failures as [`ExacmlError`] — the
//! fabric's routing misses surface as [`ExacmlError::UnknownHandle`] exactly
//! like a withdrawn handle on a single server. Subscriptions are unified
//! behind [`Subscription`], which hides whether derived tuples arrive on an
//! in-process channel or through simulated links driven by a virtual clock.
//!
//! Scenario code written against `&dyn Backend` (or a generic
//! `B: Backend`) therefore runs unchanged on one node or N nodes; the
//! conformance suite in `tests/backend_conformance.rs` pins that promise.

use crate::audit::AuditEvent;
use crate::error::ExacmlError;
use crate::fabric::{DeliveredTuple, Fabric, FabricConfig, FabricSubscription, Placement};
use crate::server::{AccessResponse, DataServer, ServerConfig};
use crate::user_query::UserQuery;
use exacml_dsms::{Schema, StreamEngine, StreamHandle, Tuple, TupleReceiver};
use exacml_simnet::NodeId;
use exacml_telemetry::TelemetrySnapshot;
use exacml_xacml::{Policy, Request};
use serde::Serialize;
use std::sync::Arc;
use std::time::Duration;

/// The answer every backend returns for a granted access request.
///
/// On a single [`DataServer`] the request is handled in-process:
/// `node` is [`NodeId::DataServer`] and `broker_network` is zero. Through a
/// [`Fabric`] the request is routed to the stream's owner shard and the
/// simulated broker → node round trip is charged on top.
#[derive(Debug, Clone)]
pub struct BackendResponse {
    /// The node that handled the request.
    pub node: NodeId,
    /// The node-local Section 3.2 workflow response.
    pub response: AccessResponse,
    /// The simulated brokering round trip charged on top (zero when the
    /// backend is a single in-process server).
    pub broker_network: Duration,
}

impl BackendResponse {
    /// End-to-end latency: node-local workflow plus the brokering hop.
    #[must_use]
    pub fn total_latency(&self) -> Duration {
        self.response.timing.total + self.broker_network
    }

    /// The granted stream handle.
    #[must_use]
    pub fn handle(&self) -> &StreamHandle {
        &self.response.handle
    }
}

/// An audit record tagged with the node that produced it.
///
/// A single server tags everything with [`NodeId::DataServer`]; a fabric
/// aggregates its node-local logs and tags each event with the owning
/// shard's [`NodeId::Server`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TaggedAuditEvent {
    /// The node whose audit log recorded the event.
    pub node: NodeId,
    /// The record itself.
    pub event: AuditEvent,
}

/// A point-in-time health report for a backend, surfaced through
/// [`Backend::health`] so callers observe degradation *before* a mutation
/// fails — a sticky journal failure, replication falling behind, or dead
/// fabric nodes used to be discoverable only by tripping over the resulting
/// errors. What the fault-tolerance machinery has *done* (retries,
/// failovers, re-minted handles) is counted in [`Backend::telemetry`].
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct BackendHealth {
    /// Nodes the backend currently cannot serve from: declared dead,
    /// crashed and awaiting failover, or behind an active fault window.
    /// Empty on a healthy backend; always empty on a single server (its
    /// one node answering at all is what produced this report).
    pub degraded_nodes: Vec<NodeId>,
    /// The sticky journal failure, when the durability layer has refused
    /// further mutations (`None` when journaling is healthy or absent).
    /// On a replicated fabric, the first failed node's journal error.
    pub journal_failure: Option<String>,
    /// Journal records appended locally but not yet acknowledged by every
    /// replication peer (0 without replication).
    pub replication_lag_records: u64,
}

impl BackendHealth {
    /// A report with nothing wrong (what non-durable single-node backends
    /// always answer).
    #[must_use]
    pub fn healthy() -> Self {
        BackendHealth::default()
    }

    /// Whether anything in the report needs operator attention: a degraded
    /// node, a sticky journal failure, or replication lag.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        !self.degraded_nodes.is_empty()
            || self.journal_failure.is_some()
            || self.replication_lag_records > 0
    }
}

/// A subscription to a granted handle, independent of the backend shape.
///
/// A single server hands derived tuples straight to an in-process channel; a
/// fabric stamps them with simulated arrival times and releases them as its
/// virtual clock advances. [`Subscription::drain`] hides the difference:
/// it returns every tuple derived so far, advancing the fabric's virtual
/// clock until nothing remains in flight.
pub enum Subscription {
    /// In-process delivery straight off the engine's fan-out queue.
    Local(TupleReceiver),
    /// Delivery through the fabric's simulated links and virtual clock.
    Fabric(FabricSubscription),
}

impl Subscription {
    /// Every tuple derived so far. For a fabric subscription this advances
    /// the shared virtual clock until all in-flight deliveries have arrived,
    /// so the caller never has to know the backend simulates a network.
    pub fn drain(&mut self) -> Vec<Tuple> {
        self.drain_settled().into_iter().map(|d| d.tuple).collect()
    }

    /// Every delivery settled so far, **with** its arrival metadata: pull
    /// everything derived, then (on a fabric) advance the shared virtual
    /// clock until nothing remains in flight. In-process channels have no
    /// network to settle — each tuple reports zero latency — so callers
    /// flush in-flight delivery identically on every backend shape instead
    /// of matching on the enum to find a fabric.
    pub fn drain_settled(&mut self) -> Vec<DeliveredTuple> {
        match self {
            Subscription::Local(rx) => {
                rx.take_all().into_iter().map(DeliveredTuple::in_process).collect()
            }
            Subscription::Fabric(sub) => sub.drain_settled(),
        }
    }

    /// Tuples already deliverable without advancing any clock (in-flight
    /// fabric tuples stay in flight).
    pub fn poll_now(&mut self) -> Vec<Tuple> {
        match self {
            Subscription::Local(rx) => rx.take_all(),
            Subscription::Fabric(sub) => sub.poll().into_iter().map(|d| d.tuple).collect(),
        }
    }

    /// The fabric-side view, when the backend is a fabric (for
    /// latency-sensitive callers that drive the virtual clock themselves).
    pub fn as_fabric_mut(&mut self) -> Option<&mut FabricSubscription> {
        match self {
            Subscription::Local(_) => None,
            Subscription::Fabric(sub) => Some(sub),
        }
    }
}

/// One stream's slice of a multi-stream ingest call: the unit
/// [`StreamBackend::push_batches`] routes. On a fabric, batches sharing an
/// owner node travel as **one** broker→node frame, which is what makes
/// batched routing amortise the per-hop latency sample.
#[derive(Debug, Clone)]
pub struct StreamBatch {
    /// Target stream name.
    pub stream: String,
    /// Source tuples for that stream.
    pub tuples: Vec<Tuple>,
}

impl StreamBatch {
    /// A batch of tuples bound for one stream.
    #[must_use]
    pub fn new(stream: impl Into<String>, tuples: Vec<Tuple>) -> Self {
        StreamBatch { stream: stream.into(), tuples }
    }

    /// Approximate wire size of the batch: its tuples plus a small framing
    /// overhead for the stream name.
    #[must_use]
    pub fn wire_bytes(&self) -> usize {
        self.tuples.iter().map(Tuple::approx_size_bytes).sum::<usize>() + self.stream.len() + 16
    }
}

/// The data plane: stream registration, ingest and delivery.
///
/// Implemented by [`DataServer`], [`Fabric`] and the bare
/// [`StreamEngine`] (for feeds that bypass access control, e.g. benches).
pub trait StreamBackend: Send + Sync {
    /// Register an input stream; returns the node the stream was placed on
    /// ([`NodeId::DataServer`] when the backend is a single server,
    /// [`NodeId::Dsms`] on a bare engine).
    ///
    /// # Errors
    /// Fails when the name is taken on the owner or the schema invalid.
    fn register_stream(&self, name: &str, schema: Schema) -> Result<NodeId, ExacmlError>;

    /// Push one source tuple into a registered stream. Returns the number of
    /// derived tuples emitted on the owning node.
    ///
    /// # Errors
    /// Fails when the stream is unknown or the tuple malformed.
    fn push(&self, stream: &str, tuple: Tuple) -> Result<usize, ExacmlError>;

    /// Push a batch of source tuples, amortizing routing and shard locking
    /// over the whole batch. Returns the number of derived tuples emitted.
    ///
    /// # Errors
    /// Fails when the stream is unknown or any tuple malformed.
    fn push_batch(&self, stream: &str, tuples: Vec<Tuple>) -> Result<usize, ExacmlError>;

    /// Push batches for **several streams** in one call. Single-node
    /// backends apply them in order; a fabric groups them by owner node and
    /// ships one broker→node frame per `(node, call)` group, so producers
    /// feeding many streams pay one routed hop per node instead of one per
    /// stream. Returns the total number of derived tuples emitted.
    ///
    /// # Errors
    /// Fails when a stream is unknown or a tuple malformed; batches applied
    /// before the failing one stay applied (identical to issuing the same
    /// sequence of [`StreamBackend::push_batch`] calls).
    fn push_batches(&self, batches: Vec<StreamBatch>) -> Result<usize, ExacmlError> {
        let mut emitted = 0;
        for batch in batches {
            emitted += self.push_batch(&batch.stream, batch.tuples)?;
        }
        Ok(emitted)
    }

    /// Subscribe to the derived tuples behind a granted handle.
    ///
    /// # Errors
    /// [`ExacmlError::UnknownHandle`] when the handle was never granted here
    /// or its deployment is gone — on every backend.
    fn subscribe(&self, handle: &StreamHandle) -> Result<Subscription, ExacmlError>;

    /// Whether a handle still points at a live deployment.
    fn handle_is_live(&self, handle: &StreamHandle) -> bool;
}

/// The request plane: the Section 3.2 workflow and explicit release.
pub trait AccessControl: Send + Sync {
    /// Handle one access request, optionally refined by a customised query.
    ///
    /// # Errors
    /// * [`ExacmlError::AccessDenied`] when the PDP does not permit,
    /// * [`ExacmlError::MultipleAccess`] when a different live query exists,
    /// * [`ExacmlError::ConflictDetected`] on blocking NR/PR warnings,
    /// * plus translation/merging/DSMS errors.
    fn handle_request(
        &self,
        request: &Request,
        user_query: Option<&UserQuery>,
    ) -> Result<BackendResponse, ExacmlError>;

    /// Release the access a subject holds on a stream, withdrawing the
    /// backing deployment. Returns `true` when something was released;
    /// unknown pairs and double releases are no-ops on every backend.
    fn release_access(&self, subject: &str, stream: &str) -> bool;
}

/// The policy plane of Section 3.3: load / remove / update / count.
pub trait PolicyAdmin: Send + Sync {
    /// Load a policy; returns the (simulated-network-inclusive) load time.
    /// On a fabric the policy is propagated to every node and the slowest
    /// node's time is returned.
    ///
    /// # Errors
    /// Fails when the policy is invalid or its id already loaded.
    fn load_policy(&self, policy: Policy) -> Result<Duration, ExacmlError>;

    /// Load a policy from its XACML XML document.
    ///
    /// # Errors
    /// Fails when the document does not parse or the policy is invalid.
    fn load_policy_xml(&self, xml: &str) -> Result<Duration, ExacmlError>;

    /// Remove a policy; every query graph it spawned is withdrawn wherever
    /// it lives. Returns the number of withdrawn deployments.
    ///
    /// # Errors
    /// Fails when the policy is unknown.
    fn remove_policy(&self, policy_id: &str) -> Result<usize, ExacmlError>;

    /// Replace a policy; graphs spawned by the old version are withdrawn.
    /// Returns the number of withdrawn deployments.
    ///
    /// # Errors
    /// Fails when the policy is unknown or the new version invalid.
    fn update_policy(&self, policy: Policy) -> Result<usize, ExacmlError>;

    /// Number of loaded policies (per node on a fabric — propagation keeps
    /// every node's store identical).
    fn policy_count(&self) -> usize;
}

/// A complete eXACML+ enforcement backend: data, request and policy planes
/// plus the audit trail and deployment observability.
///
/// Write scenarios against `&dyn Backend` (or a generic `B: Backend + ?Sized`)
/// and they run unchanged on a single [`DataServer`] or an N-node
/// [`Fabric`]; `tests/backend_conformance.rs` pins the shared semantics.
pub trait Backend: StreamBackend + AccessControl + PolicyAdmin {
    /// A short human-readable name for diagnostics ("data-server",
    /// "fabric-3", …).
    fn backend_kind(&self) -> String;

    /// Number of live deployments across the whole backend.
    fn live_deployments(&self) -> usize;

    /// Number of live shared operator plans across the whole backend —
    /// the distinct compiled subgraphs actually executing. With plan
    /// sharing enabled (the default), N overlapping grants on one stream
    /// count one plan here while [`Backend::live_deployments`] stays at
    /// one too; with sharing disabled both counters grow per grant.
    fn live_plans(&self) -> usize;

    /// The audit trail, each event tagged with the node that recorded it.
    /// On a fabric the node-local logs are aggregated and interleaved by
    /// wall-clock timestamp.
    fn audit_events(&self) -> Vec<TaggedAuditEvent>;

    /// Audit events involving one subject.
    fn audit_events_for_subject(&self, subject: &str) -> Vec<TaggedAuditEvent>;

    /// The audit trail folded into per-kind counts (keyed by the kind's
    /// display name, see [`crate::AuditEventKind`]) — the oracle hook
    /// scenario packs check their audit invariants against. Counts span the
    /// whole backend; on a fabric, policy-lifecycle kinds therefore count
    /// once per node while decision kinds count once per decision.
    fn audit_kind_counts(&self) -> std::collections::BTreeMap<String, u64> {
        let mut counts = std::collections::BTreeMap::new();
        for tagged in self.audit_events() {
            *counts.entry(tagged.event.kind.to_string()).or_insert(0) += 1;
        }
        counts
    }

    /// A point-in-time health report: degraded nodes, sticky journal
    /// failures and replication lag. The
    /// default implementation reports a perfectly healthy backend, which is
    /// correct for the in-memory single-node shapes; backends with a
    /// durability or replication story override it.
    fn health(&self) -> BackendHealth {
        BackendHealth::healthy()
    }

    /// A point-in-time telemetry snapshot: event counters and per-stage
    /// latency histograms (see `docs/OBSERVABILITY.md` for the stage
    /// taxonomy). Multi-node shapes answer an aggregate whose `nodes` list
    /// carries one tagged sub-snapshot per node. The default is an empty
    /// snapshot, correct for shapes that carry no registry.
    fn telemetry(&self) -> TelemetrySnapshot {
        TelemetrySnapshot::default()
    }
}

/// Quick constructors so a backend swap is one line:
/// `<dyn Backend>::local()` vs `<dyn Backend>::fabric(3)`. The facade
/// crate's `BackendBuilder` offers the configurable version.
impl dyn Backend {
    /// A single in-process data server on loopback links.
    #[must_use]
    pub fn local() -> Arc<dyn Backend> {
        Arc::new(DataServer::new(ServerConfig::local()))
    }

    /// An N-node brokering fabric on loopback links.
    #[must_use]
    pub fn fabric(nodes: usize) -> Arc<dyn Backend> {
        Arc::new(Fabric::new(FabricConfig::local(nodes)))
    }

    /// An N-node fabric on the paper's coordinator/broker/server testbed.
    #[must_use]
    pub fn paper_testbed(nodes: usize) -> Arc<dyn Backend> {
        Arc::new(Fabric::new(FabricConfig::paper_testbed(nodes)))
    }
}

// --- DataServer: the single-node backend ----------------------------------

impl StreamBackend for DataServer {
    fn register_stream(&self, name: &str, schema: Schema) -> Result<NodeId, ExacmlError> {
        DataServer::register_stream(self, name, schema)?;
        Ok(NodeId::DataServer)
    }

    fn push(&self, stream: &str, tuple: Tuple) -> Result<usize, ExacmlError> {
        DataServer::push(self, stream, tuple)
    }

    fn push_batch(&self, stream: &str, tuples: Vec<Tuple>) -> Result<usize, ExacmlError> {
        DataServer::push_batch(self, stream, tuples)
    }

    fn subscribe(&self, handle: &StreamHandle) -> Result<Subscription, ExacmlError> {
        DataServer::subscribe(self, handle).map(Subscription::Local)
    }

    fn handle_is_live(&self, handle: &StreamHandle) -> bool {
        DataServer::handle_is_live(self, handle)
    }
}

impl AccessControl for DataServer {
    fn handle_request(
        &self,
        request: &Request,
        user_query: Option<&UserQuery>,
    ) -> Result<BackendResponse, ExacmlError> {
        let response = DataServer::handle_request(self, request, user_query)?;
        Ok(BackendResponse { node: NodeId::DataServer, response, broker_network: Duration::ZERO })
    }

    fn release_access(&self, subject: &str, stream: &str) -> bool {
        DataServer::release_access(self, subject, stream)
    }
}

impl PolicyAdmin for DataServer {
    fn load_policy(&self, policy: Policy) -> Result<Duration, ExacmlError> {
        DataServer::load_policy(self, policy)
    }

    fn load_policy_xml(&self, xml: &str) -> Result<Duration, ExacmlError> {
        DataServer::load_policy_xml(self, xml)
    }

    fn remove_policy(&self, policy_id: &str) -> Result<usize, ExacmlError> {
        DataServer::remove_policy(self, policy_id)
    }

    fn update_policy(&self, policy: Policy) -> Result<usize, ExacmlError> {
        DataServer::update_policy(self, policy)
    }

    fn policy_count(&self) -> usize {
        DataServer::policy_count(self)
    }
}

impl Backend for DataServer {
    fn backend_kind(&self) -> String {
        "data-server".to_string()
    }

    fn live_deployments(&self) -> usize {
        DataServer::live_deployments(self)
    }

    fn live_plans(&self) -> usize {
        DataServer::plan_count(self)
    }

    fn audit_events(&self) -> Vec<TaggedAuditEvent> {
        DataServer::audit_events(self)
            .into_iter()
            .map(|event| TaggedAuditEvent { node: NodeId::DataServer, event })
            .collect()
    }

    fn audit_events_for_subject(&self, subject: &str) -> Vec<TaggedAuditEvent> {
        DataServer::audit_events_for_subject(self, subject)
            .into_iter()
            .map(|event| TaggedAuditEvent { node: NodeId::DataServer, event })
            .collect()
    }

    fn telemetry(&self) -> TelemetrySnapshot {
        self.telemetry_registry().snapshot_tagged("data-server")
    }
}

// --- Fabric: the N-node backend, over any placement layer -------------------

impl<L: Placement> StreamBackend for Fabric<L> {
    fn register_stream(&self, name: &str, schema: Schema) -> Result<NodeId, ExacmlError> {
        Fabric::register_stream(self, name, schema)
    }

    fn push(&self, stream: &str, tuple: Tuple) -> Result<usize, ExacmlError> {
        Fabric::push(self, stream, tuple)
    }

    fn push_batch(&self, stream: &str, tuples: Vec<Tuple>) -> Result<usize, ExacmlError> {
        Fabric::push_batch(self, stream, tuples)
    }

    fn push_batches(&self, batches: Vec<StreamBatch>) -> Result<usize, ExacmlError> {
        Fabric::push_batches(self, batches)
    }

    fn subscribe(&self, handle: &StreamHandle) -> Result<Subscription, ExacmlError> {
        Fabric::subscribe(self, handle).map(Subscription::Fabric)
    }

    fn handle_is_live(&self, handle: &StreamHandle) -> bool {
        Fabric::handle_is_live(self, handle)
    }
}

impl<L: Placement> AccessControl for Fabric<L> {
    fn handle_request(
        &self,
        request: &Request,
        user_query: Option<&UserQuery>,
    ) -> Result<BackendResponse, ExacmlError> {
        Fabric::handle_request(self, request, user_query)
    }

    fn release_access(&self, subject: &str, stream: &str) -> bool {
        Fabric::release_access(self, subject, stream)
    }
}

impl<L: Placement> PolicyAdmin for Fabric<L> {
    fn load_policy(&self, policy: Policy) -> Result<Duration, ExacmlError> {
        Fabric::load_policy(self, policy)
    }

    fn load_policy_xml(&self, xml: &str) -> Result<Duration, ExacmlError> {
        Fabric::load_policy_xml(self, xml)
    }

    fn remove_policy(&self, policy_id: &str) -> Result<usize, ExacmlError> {
        Fabric::remove_policy(self, policy_id)
    }

    fn update_policy(&self, policy: Policy) -> Result<usize, ExacmlError> {
        Fabric::update_policy(self, policy)
    }

    fn policy_count(&self) -> usize {
        Fabric::policy_count(self)
    }
}

impl<L: Placement> Backend for Fabric<L> {
    fn backend_kind(&self) -> String {
        self.layer().backend_kind()
    }

    fn live_deployments(&self) -> usize {
        Fabric::live_deployments(self)
    }

    fn live_plans(&self) -> usize {
        Fabric::live_plans(self)
    }

    fn audit_events(&self) -> Vec<TaggedAuditEvent> {
        Fabric::audit_events(self)
    }

    fn audit_events_for_subject(&self, subject: &str) -> Vec<TaggedAuditEvent> {
        Fabric::audit_events_for_subject(self, subject)
    }

    fn health(&self) -> BackendHealth {
        Fabric::health(self)
    }

    fn telemetry(&self) -> TelemetrySnapshot {
        Fabric::telemetry(self)
    }
}

// --- StreamEngine: the bare data plane (no access control) -----------------

impl StreamBackend for StreamEngine {
    fn register_stream(&self, name: &str, schema: Schema) -> Result<NodeId, ExacmlError> {
        StreamEngine::register_stream(self, name, schema)?;
        Ok(NodeId::Dsms)
    }

    fn push(&self, stream: &str, tuple: Tuple) -> Result<usize, ExacmlError> {
        StreamEngine::push(self, stream, tuple).map_err(ExacmlError::from)
    }

    fn push_batch(&self, stream: &str, tuples: Vec<Tuple>) -> Result<usize, ExacmlError> {
        StreamEngine::push_batch(self, stream, tuples).map_err(ExacmlError::from)
    }

    fn subscribe(&self, handle: &StreamHandle) -> Result<Subscription, ExacmlError> {
        Ok(Subscription::Local(StreamEngine::subscribe(self, handle)?))
    }

    fn handle_is_live(&self, handle: &StreamHandle) -> bool {
        self.catalog().handle_is_live(handle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obligations::StreamPolicyBuilder;
    use exacml_dsms::Value;

    fn weather_tuple(schema: &Arc<Schema>, i: i64, rain: f64) -> Tuple {
        Tuple::builder_shared(schema)
            .set("samplingtime", Value::Timestamp(i * 30_000))
            .set("rainrate", rain)
            .finish_with_defaults()
    }

    /// One scenario, written once against `&dyn Backend`, exercised by both
    /// backend shapes (the full matrix lives in
    /// `tests/backend_conformance.rs`).
    fn grant_stream_release(backend: &dyn Backend) {
        let node = backend.register_stream("weather", Schema::weather_example()).unwrap();
        assert!(matches!(node, NodeId::DataServer | NodeId::Server(_)));
        backend
            .load_policy(
                StreamPolicyBuilder::new("p", "weather")
                    .subject("LTA")
                    .filter("rainrate > 5")
                    .build(),
            )
            .unwrap();
        assert_eq!(backend.policy_count(), 1);

        let granted = backend.handle_request(&Request::subscribe("LTA", "weather"), None).unwrap();
        assert_eq!(granted.node, node);
        assert!(backend.handle_is_live(granted.handle()));
        let mut subscription = backend.subscribe(granted.handle()).unwrap();

        let schema = Schema::weather_example().shared();
        let batch: Vec<Tuple> = (0..10).map(|i| weather_tuple(&schema, i, 10.0)).collect();
        assert_eq!(backend.push_batch("weather", batch).unwrap(), 10);
        assert_eq!(backend.push("weather", weather_tuple(&schema, 10, 1.0)).unwrap(), 0);
        assert_eq!(subscription.drain().len(), 10);

        assert!(backend.release_access("LTA", "weather"));
        assert!(!backend.release_access("LTA", "weather"));
        assert!(!backend.handle_is_live(granted.handle()));
        assert!(matches!(backend.subscribe(granted.handle()), Err(ExacmlError::UnknownHandle(_))));
        assert_eq!(backend.remove_policy("p").unwrap(), 0);
        assert_eq!(backend.policy_count(), 0);
    }

    #[test]
    fn the_same_scenario_runs_on_both_backend_shapes() {
        let local = <dyn Backend>::local();
        assert_eq!(local.backend_kind(), "data-server");
        grant_stream_release(local.as_ref());

        let fabric = <dyn Backend>::fabric(3);
        assert_eq!(fabric.backend_kind(), "fabric-3");
        grant_stream_release(fabric.as_ref());
    }

    #[test]
    fn bare_engine_speaks_the_data_plane() {
        let engine = StreamEngine::new();
        let backend: &dyn StreamBackend = &engine;
        assert_eq!(
            backend.register_stream("weather", Schema::weather_example()).unwrap(),
            NodeId::Dsms
        );
        let deployment = engine.deploy(&exacml_dsms::QueryGraph::identity("weather")).unwrap();
        let schema = Schema::weather_example().shared();
        assert_eq!(backend.push("weather", weather_tuple(&schema, 0, 1.0)).unwrap(), 1);
        assert_eq!(
            backend
                .push_batch("weather", (1..5).map(|i| weather_tuple(&schema, i, 2.0)).collect())
                .unwrap(),
            4
        );
        let mut subscription = backend.subscribe(&deployment.output_handle).unwrap();
        assert!(backend.handle_is_live(&deployment.output_handle));
        assert_eq!(backend.push("weather", weather_tuple(&schema, 5, 3.0)).unwrap(), 1);
        assert_eq!(subscription.drain().len(), 1);
        engine.withdraw(deployment.id).unwrap();
        assert!(matches!(
            backend.subscribe(&deployment.output_handle),
            Err(ExacmlError::UnknownHandle(_))
        ));
    }

    #[test]
    fn unified_response_exposes_handle_and_latency() {
        let backend = <dyn Backend>::paper_testbed(2);
        backend.register_stream("weather", Schema::weather_example()).unwrap();
        backend
            .load_policy(
                StreamPolicyBuilder::new("p", "weather")
                    .subject("LTA")
                    .filter("rainrate > 5")
                    .build(),
            )
            .unwrap();
        let granted = backend.handle_request(&Request::subscribe("LTA", "weather"), None).unwrap();
        assert!(granted.broker_network > Duration::ZERO);
        assert!(granted.total_latency() >= granted.broker_network);
        assert!(granted.handle().uri().starts_with("exacml://"));
    }
}
