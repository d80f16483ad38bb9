//! The distributed brokering fabric: **one** broker for every multi-node
//! shape.
//!
//! The paper deploys eXACML+ on a coordinator/broker/server testbed; this
//! module is that broker. N logical nodes — each running its **own** PDP,
//! policy store and stream engine — sit behind a routing [`Fabric`] over
//! `exacml-simnet` links with a virtual clock.
//!
//! * **Stream placement** is consistent: every stream is owned by exactly
//!   one logical node, chosen by rendezvous (highest-random-weight) hashing,
//!   so the mapping is stable, independent of registration order, and moves
//!   only `~1/(N+1)` of the streams when a node is added to a fresh fabric.
//! * **Request routing**: an access request is routed to the node owning the
//!   target stream, charging the broker → node hop on top of the node's own
//!   Section 3.2 workflow cost.
//! * **Policy propagation**: add / remove / update at the broker fans out to
//!   *every* node, and each node withdraws the grants it recorded for the
//!   policy — the Section 3.3 coupling between policy-change events and
//!   withdrawn state holds on every shard.
//! * **Subscriber delivery** fans back through a per-subscription
//!   [`SimLink`]: each poll sends what the engine gathered into the
//!   subscriber's inbox as one frame, the inbox's `Vec` itself, stamped with
//!   a simulated arrival time per tuple (propagation + jitter +
//!   serialisation for the tuple's wire size). A tuple is handed to the
//!   consumer only once the fabric's virtual clock passes its arrival, FIFO
//!   per link, and a frame that has wholly arrived is handed over as the
//!   `Vec` it was sent as — end-to-end latency therefore includes the
//!   network, as two thirds of the paper's measured latency did. Once the
//!   grant behind a subscription is released or withdrawn, its link drops
//!   what it still carries.
//!
//! How logical node `i` *keeps answering* is not the broker's business: it
//! asks a [`Placement`] layer. The plain fabric's layer ([`Direct`]) pins
//! node `i` to host `i` — dead means unavailable until restarted, commits
//! are no-ops. The replicated durable fabric (`exacml-durable`) supplies a
//! layer that ships each node's journal to mirrors and answers `resolve`
//! with a failover. The broker is generic over the layer (static dispatch),
//! never branches on which one it serves, and is the only implementation of
//! routing, frame grouping, policy fan-out and audit / telemetry aggregation
//! in the repository.
//!
//! The broker stores no ownership: a stream's owner is a pure function of
//! its name and the node count ([`rendezvous_owner`]), and a handle's owner
//! is the `node{i}` host its node minted into the URI — both fixed for the
//! fabric's lifetime and stable across any failover, so there is no routing
//! table to populate, prune or bound.

use crate::audit::AuditEvent;
use crate::backend::{
    Backend, BackendHealth, BackendResponse, NodeServer, StreamBatch, Subscription,
    TaggedAuditEvent,
};
use crate::error::ExacmlError;
use crate::server::{DataServer, ServerConfig};
use crate::user_query::UserQuery;
use exacml_dsms::{DataType, Schema, StreamHandle, Tuple, TupleReceiver};
use exacml_simnet::{FaultPlan, ManualClock, NodeId, SimLink, Topology};
use exacml_telemetry::{Metric, Stage, Telemetry, TelemetrySnapshot};
use exacml_xacml::{Policy, Request};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Attempts (first try included) a faulted broker→node hop gets before it
/// fails with [`ExacmlError::NodeUnavailable`]. The waits are *virtual*
/// time, so a transient fault window (a dropped link that heals) degrades to
/// a retried hop rather than an error.
const HOP_ATTEMPTS: u32 = 4;

/// Backoff before the first retry of a faulted hop; it doubles on each
/// further retry, so an exhausted budget waits 2 + 4 + 8 = 14 ms.
const HOP_BACKOFF: Duration = Duration::from_millis(2);

/// Configuration of a brokering fabric, whatever server type `T` configures
/// sits behind each node: [`ServerConfig`] for the plain fabric, the durable
/// store's configuration for the replicated one. Every field a fabric shape
/// shares is declared here, once.
#[derive(Debug, Clone)]
pub struct FabricConfig<T = ServerConfig> {
    /// Number of logical nodes behind the broker (at least 1).
    pub nodes: usize,
    /// Topology the broker and nodes communicate over. Per-node links
    /// default to the topology's default link unless overridden for
    /// `NodeId::Server(i)`.
    pub topology: Topology,
    /// Base seed; each node and link derives its own deterministic seed.
    pub seed: u64,
    /// Per-node server configuration template (the seed and the DSMS host
    /// name are overridden per node).
    pub server_template: T,
    /// Injected-fault schedule consulted (against the fabric's virtual
    /// clock) before every broker→node hop. `None` means a fault-free
    /// network.
    pub fault_plan: Option<Arc<FaultPlan>>,
}

impl FabricConfig {
    /// A fabric of `nodes` nodes on the given topology.
    #[must_use]
    pub fn new(nodes: usize, topology: Topology) -> Self {
        FabricConfig {
            nodes: nodes.max(1),
            topology,
            seed: 42,
            server_template: ServerConfig::default(),
            fault_plan: None,
        }
    }

    /// A fabric on the paper's coordinator/broker/server testbed links.
    #[must_use]
    pub fn paper_testbed(nodes: usize) -> Self {
        FabricConfig::new(nodes, Topology::paper_testbed())
    }

    /// A fabric where the client-facing hop crosses a WAN (the paper's
    /// "migrate to a commercial cloud" what-if).
    #[must_use]
    pub fn public_cloud(nodes: usize) -> Self {
        FabricConfig::new(nodes, Topology::public_cloud())
    }

    /// A fabric with loopback links everywhere (unit tests).
    #[must_use]
    pub fn local(nodes: usize) -> Self {
        FabricConfig::new(nodes, Topology::local())
    }
}

impl<T> FabricConfig<T> {
    /// Override the base seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the per-node server template (possibly changing the kind of
    /// server the fabric is configured for).
    #[must_use]
    pub fn with_server_template<U>(self, server_template: U) -> FabricConfig<U> {
        FabricConfig {
            nodes: self.nodes,
            topology: self.topology,
            seed: self.seed,
            server_template,
            fault_plan: self.fault_plan,
        }
    }

    /// Install an injected-fault schedule (consulted before every
    /// broker→node hop against the fabric's virtual clock).
    #[must_use]
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault_plan = Some(plan);
        self
    }
}

/// The simulated network a fabric lives on — topology, fault schedule,
/// virtual clock and the broker-level telemetry registry — shared
/// between the broker and its [`Placement`] layer so both wait out faults
/// and scale latency spikes with the same code.
pub struct FabricNet {
    topology: Topology,
    fault_plan: Option<Arc<FaultPlan>>,
    clock: ManualClock,
    /// Broker-level registry: request round trips ([`Stage::BrokerRoute`]),
    /// subscription delivery latency, replica shipping and the
    /// fault-tolerance counters (retries, failovers, re-minted handles) —
    /// the part that survives a failover. Per-node stages live in each node
    /// server's own registry; [`Fabric::telemetry`] aggregates.
    telemetry: Arc<Telemetry>,
}

impl FabricNet {
    /// The network a fabric built from `config` runs on, clock at zero.
    #[must_use]
    pub fn new<T>(config: &FabricConfig<T>) -> Arc<Self> {
        Arc::new(FabricNet {
            topology: config.topology.clone(),
            fault_plan: config.fault_plan.clone(),
            clock: ManualClock::new(),
            telemetry: Arc::new(Telemetry::new()),
        })
    }

    /// The fabric's virtual clock (shared with subscriptions).
    #[must_use]
    pub fn clock(&self) -> &ManualClock {
        &self.clock
    }

    /// The injected-fault schedule, if any.
    #[must_use]
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_deref()
    }

    /// The broker-level telemetry registry.
    #[must_use]
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Whether an active fault window currently drops messages between `a`
    /// and `b`.
    #[must_use]
    pub fn link_down(&self, a: NodeId, b: NodeId) -> bool {
        self.fault_plan.as_ref().is_some_and(|plan| plan.link_down(a, b, self.clock.now_nanos()))
    }

    /// The one backoff loop: wait out fault windows on the `a` ↔ `b` link,
    /// retrying with exponential backoff *in virtual time* up to
    /// `HOP_ATTEMPTS` tries, so a transient window the retries outlive
    /// degrades to a slower hop, not an error. Returns the retries spent and
    /// whether the link came up.
    pub fn await_link(&self, a: NodeId, b: NodeId) -> (u32, bool) {
        if self.fault_plan.is_none() {
            return (0, true);
        }
        for retries in 0..HOP_ATTEMPTS {
            if retries > 0 {
                self.clock.advance(HOP_BACKOFF * 2u32.pow(retries - 1));
            }
            if !self.link_down(a, b) {
                return (retries, true);
            }
        }
        (HOP_ATTEMPTS - 1, false)
    }

    /// Sample the simulated `a` → `b` → `a` round trip on the caller's RNG,
    /// multiplied by any latency spike the fault plan has active on the
    /// link.
    pub fn round_trip(
        &self,
        a: NodeId,
        b: NodeId,
        request_bytes: usize,
        reply_bytes: usize,
        rng: &mut StdRng,
    ) -> Duration {
        let sampled = self.topology.round_trip(a, b, request_bytes, reply_bytes, rng);
        match &self.fault_plan {
            Some(plan) => {
                sampled.mul_f64(plan.latency_factor(a, b, self.clock.now_nanos()).max(0.0))
            }
            None => sampled,
        }
    }
}

/// The typed error for a logical node that cannot answer: `node` names the
/// *logical* node, `detail` says what happened to its host.
#[must_use]
pub fn node_unavailable(logical: usize, detail: String) -> ExacmlError {
    ExacmlError::NodeUnavailable { node: NodeId::Server(logical as u16).to_string(), detail }
}

/// The placement layer under the broker: where logical node `i` lives and
/// how it keeps answering. The default methods are the plain fabric's
/// answers — a dead host makes its node unavailable, commits need no
/// follow-up, nothing lags.
pub trait Placement: Send + Sync {
    /// The server type behind every node.
    type Server: NodeServer;

    /// The backend's diagnostic name.
    fn backend_kind(&self) -> String;

    /// The server currently backing a logical node and the physical host it
    /// runs on — no probe, no failover: what observability reads use.
    fn current(&self, logical: usize) -> (Arc<Self::Server>, usize);

    /// Whether a physical host is alive.
    fn host_is_alive(&self, host: usize) -> bool;

    /// Resolve a logical node for an operation: its server and host, or a
    /// typed [`ExacmlError::NodeUnavailable`].
    ///
    /// # Errors
    /// When the node has no live host to answer from.
    fn resolve(&self, logical: usize) -> Result<(Arc<Self::Server>, usize), ExacmlError> {
        let (server, host) = self.current(logical);
        if self.host_is_alive(host) {
            Ok((server, host))
        } else {
            Err(node_unavailable(logical, format!("host {host} is declared dead")))
        }
    }

    /// A control-plane operation on the node just ran (whether it returned
    /// `Ok` or `Err` — a denial journals its event record too).
    fn control_committed(&self, _logical: usize) {}

    /// `records` ingest batches were just applied on the node.
    fn ingest_committed(&self, _logical: usize, _records: u64) {}

    /// Declare a physical host dead.
    fn kill_host(&self, host: usize);

    /// Bring a physical host back.
    fn restart_host(&self, host: usize);

    /// Journal records appended on primaries but not yet acknowledged by
    /// every mirror, summed across the fabric (the health report's
    /// replication-lag gauge).
    fn replication_lag(&self) -> u64 {
        0
    }
}

/// The plain fabric's placement: logical node `i` lives on host `i`, for
/// good. A killed host's in-memory state survives (there is no journal to
/// rebuild it from) and answers again after a restart.
pub struct Direct {
    servers: Vec<Arc<DataServer>>,
    alive: Vec<AtomicBool>,
}

impl Direct {
    /// The node servers, by node index.
    #[must_use]
    pub fn servers(&self) -> &[Arc<DataServer>] {
        &self.servers
    }
}

impl Placement for Direct {
    type Server = DataServer;

    fn backend_kind(&self) -> String {
        format!("fabric-{}", self.servers.len())
    }

    fn current(&self, logical: usize) -> (Arc<DataServer>, usize) {
        (Arc::clone(&self.servers[logical]), logical)
    }

    fn host_is_alive(&self, host: usize) -> bool {
        self.alive.get(host).is_some_and(|alive| alive.load(Ordering::Relaxed))
    }

    fn kill_host(&self, host: usize) {
        if let Some(alive) = self.alive.get(host) {
            alive.store(false, Ordering::Relaxed);
        }
    }

    fn restart_host(&self, host: usize) {
        if let Some(alive) = self.alive.get(host) {
            alive.store(true, Ordering::Relaxed);
        }
    }
}

/// The broker's side of one logical node: its identity and its broker→node
/// ingest pipeline. The server lives in the [`Placement`] layer, because
/// which server answers can change; what the node did is counted in the
/// node server's own telemetry registry (the node's part of
/// [`Fabric::telemetry`]).
pub struct FabricNode {
    id: NodeId,
    /// Samples this node's broker ↔ node request/response delays. Per-node,
    /// so routing to different nodes never serialises on a shared RNG.
    rng: Mutex<StdRng>,
    /// The node's ingest queue: a [`SimLink`] carrying frames of whole
    /// [`StreamBatch`]es, and the memo that sizes their tuples. The `Mutex`
    /// **is** the node's single-threaded apply loop — a real node applies
    /// its ingest RPCs in arrival order, one at a time, while other nodes'
    /// pipelines drain concurrently.
    ingest: Mutex<(SimLink<StreamBatch>, WireSize)>,
}

impl FabricNode {
    /// The node's identity in the topology.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The virtual instant this node's ingest pipe goes idle (the
    /// serialising-queue frontier of its broker→node link, propagation
    /// excluded). `frontier − start` across an ingest run is the node's
    /// simulated busy time; the max over nodes is the fabric's ingest
    /// makespan — the quantity a real N-node deployment's throughput is
    /// bounded by, and what the scaling bench divides tuple counts by.
    #[must_use]
    pub fn ingest_frontier_nanos(&self) -> u64 {
        self.ingest.lock().0.service_frontier_nanos()
    }

    /// Ship a group of stream batches to this node as **one frame** on its
    /// ingest link (a single sampled propagation delay for the group,
    /// serialisation per batch, the frame queueing behind the pipe's
    /// in-progress service), then apply the node's queue on `server` in
    /// arrival (FIFO) order under the pipeline lock — the node's
    /// single-threaded apply loop. Returns how many batches were applied
    /// and the number of derived tuples the node's engine emitted.
    ///
    /// The frame is counted on the node's registry: one `broker_frames`,
    /// however many tuples it carried (so the node part's
    /// `tuples_ingested / broker_frames` is the amortisation batched routing
    /// buys), and its virtual wire time under [`Stage::BrokerRoute`].
    ///
    /// On error (unknown stream, malformed tuple) the remaining batches of
    /// the frame are **not** applied and the queue is left empty — a frame
    /// either lands whole or fails typed partway with nothing lingering.
    fn apply_ingest_frame<S: NodeServer>(
        &self,
        server: &S,
        now_nanos: u64,
        batches: Vec<StreamBatch>,
    ) -> (u64, Result<usize, ExacmlError>) {
        let mut pipe = self.ingest.lock();
        let (link, sizes) = &mut *pipe;
        // A batch's wire size: its tuples plus a small framing overhead for
        // the stream name.
        link.send_queued(now_nanos, batches, |batch| {
            batch.tuples.iter().map(|tuple| sizes.of(tuple)).sum::<usize>()
                + batch.stream.len()
                + 16
        });
        let (mut applied, mut emitted) = (0, 0);
        let mut last_arrival = now_nanos;
        let mut failed = None;
        link.deliver_ready(u64::MAX, |_, arrivals, batches| {
            for (&arrival, batch) in arrivals.iter().zip(batches) {
                match server.push_batch(&batch.stream, batch.tuples) {
                    Ok(derived) => emitted += derived,
                    Err(error) => {
                        failed = Some(error);
                        return;
                    }
                }
                applied += 1;
                last_arrival = arrival;
            }
        });
        if let Some(error) = failed {
            return (applied, Err(error));
        }
        let frame_nanos = last_arrival.saturating_sub(now_nanos);
        // Frame time is *virtual* (sampled propagation + serialisation), so
        // it is recorded as a duration, never measured with a wall clock —
        // the node's snapshot stays deterministic per seed.
        let telemetry = server.data_server().telemetry_registry();
        telemetry.record_nanos(Stage::BrokerRoute, frame_nanos);
        telemetry.incr(Metric::BrokerFrames);
        (applied, Ok(emitted))
    }
}

/// A derived tuple delivered through a simulated link.
#[derive(Debug, Clone)]
pub struct DeliveredTuple {
    /// The derived tuple.
    pub tuple: Tuple,
    /// Virtual time at which the node handed the tuple to the link.
    pub sent_at_nanos: u64,
    /// Virtual time at which the tuple arrived at the subscriber.
    pub arrived_at_nanos: u64,
}

impl DeliveredTuple {
    /// The simulated network latency this tuple experienced.
    #[must_use]
    pub fn latency(&self) -> Duration {
        Duration::from_nanos(self.arrived_at_nanos - self.sent_at_nanos)
    }

    /// A tuple that never crossed a simulated link (in-process delivery):
    /// sent and arrived at the same instant, zero latency. Lets the unified
    /// [`crate::backend::Subscription::drain_settled`] report uniform
    /// delivery records whatever the backend shape.
    #[must_use]
    pub fn in_process(tuple: Tuple) -> Self {
        DeliveredTuple { tuple, sent_at_nanos: 0, arrived_at_nanos: 0 }
    }
}

/// The wire size of a tuple ([`Tuple::approx_size_bytes`]), remembered per
/// schema. Without a `Text` field a row's size depends only on its arity, so
/// a tuple of the schema last seen is answered with one pointer compare;
/// rows of a text schema are walked every time. The memo holds a clone of
/// the schema's `Arc`, so the address it compares cannot be reused by
/// another schema.
#[derive(Default)]
struct WireSize {
    schema: Option<Arc<Schema>>,
    /// Every row's size when `schema` has no `Text` field, else 0 (no row
    /// is smaller than its 16-byte header).
    fixed: usize,
}

impl WireSize {
    fn of(&mut self, tuple: &Tuple) -> usize {
        let schema = tuple.schema();
        if !self.schema.as_ref().is_some_and(|seen| Arc::ptr_eq(seen, schema)) {
            let text = schema.fields().iter().any(|field| field.data_type == DataType::Text);
            self.fixed = if text { 0 } else { tuple.approx_size_bytes() };
            self.schema = Some(Arc::clone(schema));
        }
        match self.fixed {
            0 => tuple.approx_size_bytes(),
            fixed => fixed,
        }
    }
}

/// A subscription whose deliveries travel the node → subscriber link of the
/// simulated topology. Owned by the consumer; poll it after advancing the
/// fabric's virtual clock.
///
/// Each poll moves whatever the node's engine has gathered into the
/// subscriber's inbox onto the link as one frame — the inbox's `Vec`, not a
/// copy — and hands back every tuple whose arrival time has passed. Once the
/// grant behind the subscription is released or withdrawn (the engine has
/// dropped its side of the inbox), a poll drops whatever the link still
/// carries instead, counted as [`Metric::TuplesDiscarded`] on the broker.
pub struct FabricSubscription {
    node: NodeId,
    rx: TupleReceiver,
    link: SimLink<Tuple>,
    sizes: WireSize,
    clock: ManualClock,
    delivered: u64,
    /// The broker's registry: per-tuple virtual delivery latency is recorded
    /// here under [`Stage::Delivery`], and tuples a release dropped from the
    /// link under [`Metric::TuplesDiscarded`].
    telemetry: Arc<Telemetry>,
}

impl FabricSubscription {
    /// The logical node the subscribed stream lives on.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Pull newly derived tuples from the node into the link (stamping each
    /// with its simulated arrival time), then deliver everything that has
    /// arrived by the fabric's current virtual time, in arrival order.
    ///
    /// Tuples whose arrival time is still in the future stay in flight;
    /// advance the fabric clock and poll again to receive them.
    pub fn poll(&mut self) -> Vec<DeliveredTuple> {
        let mut delivered = Vec::new();
        self.poll_into(|sent, arrivals, tuples| stamp(&mut delivered, sent, arrivals, tuples));
        delivered
    }

    /// Drain **everything** derived so far: pull the node-local inbox into
    /// the link, then advance the shared virtual clock in small steps until
    /// no delivery remains in flight. This is what
    /// [`crate::backend::Subscription::drain`] uses so scenario code written
    /// against the unified backend API never has to drive the clock itself.
    ///
    /// Advancing the clock moves virtual time for the whole fabric (all
    /// subscriptions share it), exactly as waiting on a real network would.
    pub fn drain_settled(&mut self) -> Vec<DeliveredTuple> {
        let mut delivered = Vec::new();
        self.drain_settled_into(|sent, arrivals, tuples| {
            stamp(&mut delivered, sent, arrivals, tuples);
        });
        delivered
    }

    /// [`FabricSubscription::drain_settled`], handing each delivered frame
    /// to `deliver` as [`FabricSubscription::poll_into`] does.
    pub(crate) fn drain_settled_into(&mut self, mut deliver: impl FnMut(u64, &[u64], Vec<Tuple>)) {
        self.poll_into(&mut deliver);
        while self.link.next_arrival().is_some() {
            self.clock.advance(Duration::from_millis(1));
            self.poll_into(&mut deliver);
        }
    }

    /// [`FabricSubscription::poll`], handing each delivered frame to
    /// `deliver` as `(sent at, arrival of each tuple, the tuples)`: the
    /// node's inbox crosses the link as one frame, and each delivered frame
    /// costs one histogram update for its latencies.
    pub(crate) fn poll_into(&mut self, mut deliver: impl FnMut(u64, &[u64], Vec<Tuple>)) {
        let now = self.clock.now_nanos();
        let frame = self.rx.take_all();
        if !self.rx.is_attached() {
            // Released or withdrawn: nothing more may arrive.
            let discarded = frame.len() + self.link.clear();
            if discarded > 0 {
                self.telemetry.add(Metric::TuplesDiscarded, discarded as u64);
            }
            return;
        }
        // Everything derived since the last poll leaves the node as one
        // frame: a single sampled propagation delay for the group, each
        // tuple paying its own serialisation on top (batched fan-back,
        // mirroring the broker→node ingest frames).
        if !frame.is_empty() {
            let sizes = &mut self.sizes;
            self.link.send(now, frame, |tuple| sizes.of(tuple));
        }
        let (telemetry, delivered) = (&self.telemetry, &mut self.delivered);
        self.link.deliver_ready(now, |sent, arrivals, tuples| {
            telemetry.record_nanos_all(
                Stage::Delivery,
                arrivals.iter().map(|arrived| arrived.saturating_sub(sent)),
            );
            *delivered += tuples.len() as u64;
            deliver(sent, arrivals, tuples);
        });
    }

    /// Tuples queued on the link, not yet past their arrival time. (Tuples
    /// still in the node-local inbox are not counted until the next
    /// [`FabricSubscription::poll`].)
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.link.in_flight()
    }

    /// Total tuples delivered to this subscriber so far.
    #[must_use]
    pub fn delivered(&self) -> u64 {
        self.delivered
    }
}

/// Append a delivered frame to `out`, one [`DeliveredTuple`] per tuple.
fn stamp(out: &mut Vec<DeliveredTuple>, sent: u64, arrivals: &[u64], tuples: Vec<Tuple>) {
    out.extend(arrivals.iter().zip(tuples).map(|(&arrived_at_nanos, tuple)| DeliveredTuple {
        tuple,
        sent_at_nanos: sent,
        arrived_at_nanos,
    }));
}

/// The routing broker plus its logical nodes, over a [`Placement`] layer
/// `L` that owns the node servers.
///
/// The broker itself sits at [`NodeId::DataServer`] of the topology (it is
/// the entity clients and the proxy reach); logical node `i` is tagged
/// [`NodeId::Server`]`(i)` everywhere — responses, audit events, telemetry
/// sub-snapshots, errors — whatever physical host currently runs it.
pub struct Fabric<L: Placement = Direct> {
    net: Arc<FabricNet>,
    layer: L,
    nodes: Vec<FabricNode>,
    /// Seeds handed to per-subscription links, derived deterministically.
    next_link_seed: AtomicU64,
}

impl Fabric {
    /// Build a plain fabric: one `DataServer` per node, each with its own
    /// policy store, PDP, engine (minting handles under a distinct host) and
    /// a node-specific seed, pinned to its host by the [`Direct`] layer.
    #[must_use]
    pub fn new(config: FabricConfig) -> Self {
        // `nodes` is a public field, so a literal config can bypass
        // `FabricConfig::new`'s clamp.
        let nodes = config.nodes.max(1);
        let servers = (0..nodes)
            .map(|i| {
                Arc::new(DataServer::new(ServerConfig {
                    topology: config.topology.clone(),
                    seed: config.seed.wrapping_add(1 + i as u64),
                    dsms_host: format!("node{i}"),
                    ..config.server_template.clone()
                }))
            })
            .collect();
        let alive = (0..nodes).map(|_| AtomicBool::new(true)).collect();
        Fabric::assemble(nodes, config.seed, FabricNet::new(&config), Direct { servers, alive })
    }
}

impl<L: Placement> Fabric<L> {
    /// Put a broker in front of `layer`'s `nodes` logical nodes on `net` (the
    /// network the layer was built with); `seed` is the configuration's base
    /// seed.
    #[must_use]
    pub fn assemble(nodes: usize, seed: u64, net: Arc<FabricNet>, layer: L) -> Self {
        // Derived seeds mix in the node count, so two fabrics sharing a base
        // seed but differing in shape sample *different* delay sequences —
        // identical-looking delivery stats across scale-out scenarios were
        // a measurement artifact of sharing the seed stream.
        let shape_salt = (nodes as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let salted = seed.wrapping_add(shape_salt);
        let nodes = (0..nodes)
            .map(|i| {
                let id = NodeId::Server(i as u16);
                FabricNode {
                    id,
                    rng: Mutex::new(StdRng::seed_from_u64(
                        seed.wrapping_mul(0x9e37_79b9).wrapping_add(shape_salt) ^ i as u64,
                    )),
                    ingest: Mutex::new((
                        SimLink::new(
                            net.topology.link(NodeId::DataServer, id),
                            salted.wrapping_add(0xbeef + i as u64),
                        ),
                        WireSize::default(),
                    )),
                }
            })
            .collect();
        Fabric { net, layer, nodes, next_link_seed: AtomicU64::new(salted.wrapping_add(0xf00d)) }
    }

    /// The placement layer (and with it the layer's own accessors — the
    /// plain fabric's node servers, the replicated fabric's hosts, mirrors
    /// and lag).
    #[must_use]
    pub fn layer(&self) -> &L {
        &self.layer
    }

    /// The broker's side of the logical nodes.
    #[must_use]
    pub fn nodes(&self) -> &[FabricNode] {
        &self.nodes
    }

    /// The fabric's virtual clock (shared with subscriptions).
    #[must_use]
    pub fn clock(&self) -> &ManualClock {
        &self.net.clock
    }

    /// Advance the virtual clock, making in-flight deliveries whose arrival
    /// time has passed available to [`FabricSubscription::poll`].
    pub fn advance(&self, by: Duration) {
        self.net.clock.advance(by);
    }

    // --- placement ---------------------------------------------------------

    /// The logical node that owns a stream, by rendezvous hashing: the owner
    /// is the node whose `hash(stream, node)` weight is highest.
    /// Deterministic, uniform, independent of registration order — and of
    /// which host runs the node, so ownership survives any failover.
    #[must_use]
    pub fn owner_of(&self, stream: &str) -> NodeId {
        self.nodes[self.owner_index(stream)].id
    }

    fn owner_index(&self, stream: &str) -> usize {
        rendezvous_owner(stream, self.nodes.len())
    }

    /// The logical node that minted a handle: node `i` mints every URI under
    /// the host `node{i}`, whatever physical host runs it. `None` for URIs
    /// of another shape or naming a node this fabric does not have.
    fn handle_owner(&self, handle: &StreamHandle) -> Option<usize> {
        let host = handle.uri().strip_prefix("exacml://node")?.split('/').next()?;
        host.parse().ok().filter(|&index| index < self.nodes.len())
    }

    /// Every node's current server, by node index — no probe, no failover.
    fn servers(&self) -> impl Iterator<Item = Arc<L::Server>> + '_ {
        (0..self.nodes.len()).map(|index| self.layer.current(index).0)
    }

    // --- liveness + fault handling ------------------------------------------

    /// Declare a physical host dead. What that means for the logical nodes
    /// it runs is the layer's answer: on the plain fabric every operation
    /// routed to the node fails with [`ExacmlError::NodeUnavailable`] until
    /// [`Fabric::restart_node`]; on the replicated fabric the node fails
    /// over to a mirror on its next touch.
    pub fn kill_node(&self, host: usize) {
        self.layer.kill_host(host);
    }

    /// Bring a dead physical host back.
    pub fn restart_node(&self, host: usize) {
        self.layer.restart_host(host);
    }

    /// The logical nodes the broker currently cannot serve from: their host
    /// is dead (awaiting restart or failover), or an active fault-plan
    /// window covers the broker→host link at the current virtual time.
    #[must_use]
    pub fn degraded_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(index, _)| {
                let host = self.layer.current(*index).1;
                !self.layer.host_is_alive(host)
                    || self.net.link_down(NodeId::DataServer, NodeId::Server(host as u16))
            })
            .map(|(_, node)| node.id)
            .collect()
    }

    /// Resolve a logical node for an operation and probe the broker→host
    /// hop: the layer answers with the node's server (failing over first if
    /// that is what it does) or a typed error; an active link fault is then
    /// waited out with [`FabricNet::await_link`], its retries counted as
    /// `broker_retries` on the broker's registry.
    fn reach(&self, index: usize) -> Result<(Arc<L::Server>, usize), ExacmlError> {
        let (server, host) = self.layer.resolve(index)?;
        let (retries, up) = self.net.await_link(NodeId::DataServer, NodeId::Server(host as u16));
        if retries > 0 {
            self.net.telemetry.add(Metric::BrokerRetries, u64::from(retries));
        }
        if !up {
            return Err(node_unavailable(
                index,
                format!("broker hop to host {host} still faulted after {} attempt(s)", retries + 1),
            ));
        }
        Ok((server, host))
    }

    /// Tell the layer a control-plane operation ran on a node — whatever its
    /// outcome: a refused operation leaves journal records (audit) behind
    /// just like a granted one.
    fn committed<T>(&self, index: usize, outcome: T) -> T {
        self.layer.control_committed(index);
        outcome
    }

    /// Subscribe to a granted handle. Deliveries travel the node → broker
    /// link of the topology: poll the subscription after advancing the
    /// fabric's virtual clock. After a failover, re-subscribing with the
    /// same handle attaches to the node's new host.
    ///
    /// # Errors
    /// Fails with [`ExacmlError::UnknownHandle`] when no node of this fabric
    /// minted the handle or the grant behind it is gone, and with
    /// [`ExacmlError::NodeUnavailable`] when the owning node is unreachable.
    pub fn subscribe(&self, handle: &StreamHandle) -> Result<FabricSubscription, ExacmlError> {
        let index = self
            .handle_owner(handle)
            .ok_or_else(|| ExacmlError::UnknownHandle(handle.uri().to_string()))?;
        let (server, _) = self.reach(index)?;
        // A released or policy-withdrawn handle fails here, reported exactly
        // as a handle no node minted.
        let rx = server.data_server().subscribe(handle)?;
        let node = self.nodes[index].id;
        let seed = self.next_link_seed.fetch_add(1, Ordering::Relaxed);
        Ok(FabricSubscription {
            node,
            rx,
            link: SimLink::new(self.net.topology.link(node, NodeId::DataServer), seed),
            sizes: WireSize::default(),
            clock: self.net.clock.clone(),
            delivered: 0,
            telemetry: Arc::clone(&self.net.telemetry),
        })
    }

    // --- fan-out for the policy and audit planes ----------------------------

    /// Run one policy-store operation on **every** node, returning each
    /// node's answer. Every node is resolved and probed first, so a fan-out
    /// either reaches all nodes or fails typed before mutating any of them;
    /// after that the first refusing node stops it (earlier nodes keep the
    /// change — policy ids make a retry idempotent per node). Each node's
    /// audit log records the change, so the fabric's policy-kind audit
    /// counts are its propagations.
    fn propagate<T>(
        &self,
        op: impl Fn(&L::Server) -> Result<T, ExacmlError>,
    ) -> Result<Vec<T>, ExacmlError> {
        let servers = (0..self.nodes.len())
            .map(|index| self.reach(index).map(|(server, _)| server))
            .collect::<Result<Vec<_>, _>>()?;
        servers
            .iter()
            .enumerate()
            .map(|(index, server)| self.committed(index, op(server)))
            .collect()
    }

    /// Aggregate node-local audit events, tag each with its *logical*
    /// [`NodeId`] (a failover preserves the tags because the journal
    /// preserves the events), and interleave by wall-clock timestamp
    /// (sequence numbers only order events *within* a node).
    fn tagged_audit_events(
        &self,
        fetch: impl Fn(&DataServer) -> Vec<AuditEvent>,
    ) -> Vec<TaggedAuditEvent> {
        let mut events: Vec<TaggedAuditEvent> = self
            .servers()
            .zip(&self.nodes)
            .flat_map(|(server, node)| {
                fetch(server.data_server())
                    .into_iter()
                    .map(move |event| TaggedAuditEvent { node: node.id, event })
            })
            .collect();
        events.sort_by_key(|t| (t.event.timestamp_ms, t.node, t.event.sequence));
        events
    }
}

/// The fabric's one [`Backend`] implementation: every call is routed to its
/// owner node, propagated to every node, or aggregated across them.
impl<L: Placement> Backend for Fabric<L> {
    // --- data plane: placement-routed ingest and delivery ------------------

    /// Register an input stream on its owning node.
    ///
    /// # Errors
    /// Fails when the name is taken on the owner, the schema invalid, or
    /// the owner node unreachable ([`ExacmlError::NodeUnavailable`]).
    fn register_stream(&self, name: &str, schema: Schema) -> Result<NodeId, ExacmlError> {
        let index = self.owner_index(name);
        let (server, _) = self.reach(index)?;
        self.committed(index, server.register_stream(name, schema))?;
        Ok(self.nodes[index].id)
    }

    /// Push one source tuple to the stream's owner node. A lone tuple is a
    /// one-message frame — it pays the full per-hop latency sample that
    /// [`Backend::push_batches`] amortises over a whole group.
    ///
    /// # Errors
    /// Fails when the stream is unknown on its owner, the tuple malformed,
    /// or the owner node unreachable ([`ExacmlError::NodeUnavailable`]) —
    /// ingest to a dead node is a typed error, never a silent drop.
    fn push(&self, stream: &str, tuple: Tuple) -> Result<usize, ExacmlError> {
        self.push_batches(vec![StreamBatch::new(stream, vec![tuple])])
    }

    /// Push a batch of source tuples to the stream's owner node as one
    /// broker→node frame.
    ///
    /// # Errors
    /// Fails when the stream is unknown on its owner, any tuple malformed,
    /// or the owner node unreachable ([`ExacmlError::NodeUnavailable`]).
    fn push_batch(&self, stream: &str, tuples: Vec<Tuple>) -> Result<usize, ExacmlError> {
        self.push_batches(vec![StreamBatch::new(stream, tuples)])
    }

    /// Route a multi-stream ingest call: group the batches by their
    /// rendezvous-hashed owner and ship **one broker→node frame per
    /// `(node, call)` group** instead of one hop per tuple. Each targeted
    /// node samples a single propagation delay for its frame, applies the
    /// group FIFO under its own ingest lock, and different nodes' pipelines
    /// drain concurrently — this is the batched routing that makes fabric
    /// ingest scale monotonically with the node count.
    ///
    /// Every targeted owner is resolved and probed *before* anything is
    /// applied, so a multi-node call either starts landing or fails typed
    /// with no node touched. Returns the total number of derived tuples
    /// emitted by the nodes' engines.
    ///
    /// # Errors
    /// Fails when any targeted owner is unreachable
    /// ([`ExacmlError::NodeUnavailable`]), a stream is unknown on its
    /// owner, or a tuple is malformed. When a batch inside a frame fails,
    /// that node's earlier batches in the frame have already been applied
    /// (exactly as separate `push_batch` calls would have), and the error
    /// propagates.
    fn push_batches(&self, batches: Vec<StreamBatch>) -> Result<usize, ExacmlError> {
        let mut per_node: BTreeMap<usize, Vec<StreamBatch>> = BTreeMap::new();
        for batch in batches {
            if !batch.tuples.is_empty() {
                per_node.entry(self.owner_index(&batch.stream)).or_default().push(batch);
            }
        }
        let mut frames = Vec::with_capacity(per_node.len());
        for (index, group) in per_node {
            frames.push((index, self.reach(index)?.0, group));
        }
        let now = self.net.clock.now_nanos();
        let mut emitted = 0;
        for (index, server, group) in frames {
            let (applied, derived) = self.nodes[index].apply_ingest_frame(&*server, now, group);
            self.layer.ingest_committed(index, applied);
            emitted += derived?;
        }
        Ok(emitted)
    }

    /// Whether a granted handle still points at a live deployment on its
    /// node — *including* after a failover re-minted it on another host.
    /// Unknown handles are simply not live, and neither is anything on a
    /// node with no live host. A read: it resolves the node (so a failover
    /// layer fails over) but never waits on the virtual clock.
    fn handle_is_live(&self, handle: &StreamHandle) -> bool {
        self.handle_owner(handle).is_some_and(|index| {
            self.layer
                .resolve(index)
                .is_ok_and(|(server, _)| server.data_server().handle_is_live(handle))
        })
    }

    fn subscribe(&self, handle: &StreamHandle) -> Result<Subscription, ExacmlError> {
        Fabric::subscribe(self, handle).map(|sub| Subscription::Fabric(Box::new(sub)))
    }

    // --- request plane: routed to the stream's owner ------------------------

    /// Route an access request to the node owning the target stream and run
    /// the Section 3.2 workflow there, charging the broker → node hop.
    ///
    /// # Errors
    /// Propagates the owner node's workflow errors
    /// ([`ExacmlError::AccessDenied`], [`ExacmlError::MultipleAccess`], …).
    fn handle_request(
        &self,
        request: &Request,
        user_query: Option<&UserQuery>,
    ) -> Result<BackendResponse, ExacmlError> {
        let stream = request
            .resource_id()
            .ok_or_else(|| ExacmlError::IncompleteRequest("missing resource-id".into()))?;
        let index = self.owner_index(stream);
        let (server, host) = self.reach(index)?;
        let node = &self.nodes[index];
        let request_bytes = exacml_xacml::xml::write_request(request).len()
            + user_query.map_or(0, |q| q.to_xml().len());
        let broker_network = self.net.round_trip(
            NodeId::DataServer,
            NodeId::Server(host as u16),
            request_bytes,
            128,
            &mut node.rng.lock(),
        );
        self.net.telemetry.record(Stage::BrokerRoute, broker_network);
        self.net.telemetry.incr(Metric::BrokerFrames);
        let response = self.committed(index, server.handle_request(request, user_query))?.response;
        Ok(BackendResponse { node: node.id, response, broker_network })
    }

    /// Release the access a subject holds on a stream at its owner node.
    /// Returns `true` when something was released (unknown pairs and double
    /// releases are no-ops, exactly as on a single server). An unreachable
    /// owner also answers `false` — the trait signature carries no error
    /// channel, and "nothing was released" is the truthful report; the
    /// grant stays held until the node returns.
    fn release_access(&self, subject: &str, stream: &str) -> bool {
        let index = self.owner_index(stream);
        let Ok((server, _)) = self.reach(index) else { return false };
        self.committed(index, server.release_access(subject, stream))
    }

    // --- policy plane (fabric-wide propagation) ----------------------------

    /// Load a policy on **every** node. Returns the slowest node's load time
    /// (the broker waits for full propagation).
    ///
    /// # Errors
    /// Fails if any node rejects the policy; earlier nodes keep it (the
    /// caller can retry — ids make the operation idempotent per node).
    /// Fails with [`ExacmlError::NodeUnavailable`] — before touching *any*
    /// node — when a node is unreachable, so propagation is never silently
    /// partial.
    fn load_policy(&self, policy: Policy) -> Result<Duration, ExacmlError> {
        let times = self.propagate(|server| server.load_policy(policy.clone()))?;
        Ok(times.into_iter().max().unwrap_or_default())
    }

    /// Remove a policy on **every** node; query graphs it spawned are
    /// withdrawn wherever they live. Returns the total number of withdrawn
    /// deployments across the fabric.
    ///
    /// # Errors
    /// Fails when the policy is unknown (on the first node — propagation is
    /// all-or-nothing for a policy that was loaded through the broker), or
    /// with [`ExacmlError::NodeUnavailable`] before touching any node when
    /// one is unreachable.
    fn remove_policy(&self, policy_id: &str) -> Result<usize, ExacmlError> {
        Ok(self.propagate(|server| server.remove_policy(policy_id))?.into_iter().sum())
    }

    /// Replace a policy on **every** node; as with removal, existing query
    /// graphs spawned by the old version are withdrawn fabric-wide. Returns
    /// the total number of withdrawn deployments.
    ///
    /// # Errors
    /// Fails when the policy is unknown, the new version invalid, or —
    /// before touching any node — a node is unreachable
    /// ([`ExacmlError::NodeUnavailable`]).
    fn update_policy(&self, policy: Policy) -> Result<usize, ExacmlError> {
        Ok(self.propagate(|server| server.update_policy(policy.clone()))?.into_iter().sum())
    }

    /// Load a policy from its XACML XML document on **every** node.
    ///
    /// # Errors
    /// Fails when the document does not parse or the policy is invalid.
    fn load_policy_xml(&self, xml: &str) -> Result<Duration, ExacmlError> {
        self.load_policy(exacml_xacml::xml::parse_policy(xml)?)
    }

    /// Number of loaded policies per node (propagation keeps every node's
    /// store identical, so any node answers for the fabric).
    fn policy_count(&self) -> usize {
        self.layer.current(0).0.data_server().policy_count()
    }

    // --- audit + observability (aggregated across nodes) --------------------

    fn backend_kind(&self) -> String {
        self.layer.backend_kind()
    }

    /// The fabric-wide audit trail: every node-local log, each event tagged
    /// with the [`NodeId`] of the logical node that recorded it, interleaved
    /// by wall-clock timestamp.
    fn audit_events(&self) -> Vec<TaggedAuditEvent> {
        self.tagged_audit_events(DataServer::audit_events)
    }

    /// Fabric-wide audit events involving one subject.
    fn audit_events_for_subject(&self, subject: &str) -> Vec<TaggedAuditEvent> {
        self.tagged_audit_events(|server| server.audit_events_for_subject(subject))
    }

    /// Number of live deployments across all nodes.
    fn live_deployments(&self) -> usize {
        self.servers().map(|server| server.data_server().live_deployments()).sum()
    }

    /// Number of live shared plans across all nodes. Plan identity is the
    /// merged graph's canonical signature, so on each node every distinct
    /// plan executes once no matter how many grants ride on it; across nodes
    /// the same signature may appear once per node that owns a stream it
    /// applies to.
    fn live_plans(&self) -> usize {
        self.servers().map(|server| server.data_server().plan_count()).sum()
    }

    /// Aggregated telemetry: the broker's own registry (request routing,
    /// delivery latency, replica shipping, fault-tolerance counters) merged
    /// with every node server's
    /// registry, each kept as a sub-snapshot under `nodes` tagged with its
    /// *logical* [`NodeId`] — the tag survives a failover, so pre- and
    /// post-failover snapshots stay diffable.
    fn telemetry(&self) -> TelemetrySnapshot {
        let mut parts = vec![self.net.telemetry.snapshot_tagged("broker")];
        parts.extend(self.servers().zip(&self.nodes).map(|(server, node)| {
            server.data_server().telemetry_registry().snapshot_tagged(&node.id.to_string())
        }));
        TelemetrySnapshot::aggregate(&self.layer.backend_kind(), parts)
    }

    /// The health report: degraded nodes, the first node's sticky journal
    /// failure and the layer's replication lag.
    fn health(&self) -> BackendHealth {
        BackendHealth {
            degraded_nodes: self.degraded_nodes(),
            journal_failure: self.servers().find_map(|server| server.health().journal_failure),
            replication_lag_records: self.layer.replication_lag(),
        }
    }
}

/// The rendezvous-hash (highest-random-weight) owner of `stream` among
/// `nodes` nodes: the index whose FNV-1a weight over `(stream, index)` is
/// highest. Case-insensitive over the stream name, deterministic, and
/// allocation-free (the broker calls it per stream per ingest frame).
#[must_use]
pub fn rendezvous_owner(stream: &str, nodes: usize) -> usize {
    (0..nodes.max(1))
        .max_by_key(|&i| rendezvous_weight(stream, i))
        .expect("at least one node participates")
}

/// FNV-1a over the ASCII-lower-cased stream name and the node index — the
/// per-node weight of rendezvous hashing.
fn rendezvous_weight(stream: &str, node_index: usize) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    let name = stream.bytes().map(|byte| byte.to_ascii_lowercase());
    for byte in name.chain(node_index.to_le_bytes()) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
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

    /// The node parts of a fabric's telemetry (the broker part excluded), in
    /// node order.
    fn node_parts(fabric: &Fabric) -> Vec<TelemetrySnapshot> {
        fabric.telemetry().nodes.split_off(1)
    }

    /// The memo sizes every tuple of a mixed sequence exactly as
    /// `approx_size_bytes` does: text rows of varying length, a projection,
    /// and two equal schemas behind different `Arc`s, interleaved so each
    /// schema change misses.
    #[test]
    fn the_wire_size_memo_agrees_with_approx_size_bytes() {
        let weather = Schema::weather_example().shared();
        let twin = Schema::weather_example().shared();
        let gps = Schema::gps_example().shared();
        let projected = Schema::from_pairs([
            ("samplingtime", DataType::Timestamp),
            ("rainrate", DataType::Double),
        ])
        .shared();
        let gps_tuple = |i: usize| {
            Tuple::builder_shared(&gps)
                .set("samplingtime", Value::Timestamp(i as i64))
                .set("deviceid", Value::Text("d".repeat(i % 7)))
                .set("speed", i as f64)
                .finish_with_defaults()
        };
        let mut tuples = Vec::new();
        for i in 0..40 {
            let rain = weather_tuple(&weather, i, i as f64);
            tuples.push(rain.project(Arc::clone(&projected)));
            tuples.push(rain);
            tuples.push(weather_tuple(&twin, i, 1.5));
            tuples.push(gps_tuple(i as usize));
            tuples.push(gps_tuple(i as usize * 3));
        }
        let mut sizes = WireSize::default();
        for (i, tuple) in tuples.iter().enumerate() {
            assert_eq!(sizes.of(tuple), tuple.approx_size_bytes(), "tuple {i}: {tuple:?}");
        }
        let distinct: std::collections::BTreeSet<usize> =
            tuples.iter().map(Tuple::approx_size_bytes).collect();
        assert!(distinct.len() > 3, "the sequence mixes sizes: {distinct:?}");
    }

    fn fabric_with_streams(nodes: usize, streams: usize) -> (Fabric, Vec<String>) {
        let fabric = Fabric::new(FabricConfig::local(nodes));
        let names: Vec<String> = (0..streams).map(|i| format!("stream{i}")).collect();
        for name in &names {
            fabric.register_stream(name, Schema::weather_example()).unwrap();
        }
        (fabric, names)
    }

    #[test]
    fn placement_is_deterministic_and_covers_all_nodes() {
        let (fabric, names) = fabric_with_streams(4, 64);
        let mut per_node = vec![0usize; 4];
        for name in &names {
            let owner = fabric.owner_of(name);
            assert_eq!(owner, fabric.owner_of(name), "placement must be stable");
            let NodeId::Server(i) = owner else { panic!("owner must be a server shard") };
            per_node[i as usize] += 1;
            // The stream exists exactly on its owner.
            for (node, server) in fabric.nodes().iter().zip(fabric.layer().servers()) {
                let has = server.stream_schema(name).is_ok();
                assert_eq!(has, node.id() == owner, "stream {name} misplaced on {}", node.id());
            }
        }
        assert!(per_node.iter().all(|&c| c > 0), "rendezvous spread: {per_node:?}");
        let placed: usize = fabric.layer().servers().iter().map(|s| s.stream_names().len()).sum();
        assert_eq!(placed, 64);
        // Case-insensitive, like the rest of the stack's stream handling.
        assert_eq!(fabric.owner_of("STREAM7"), fabric.owner_of("stream7"));
    }

    #[test]
    fn rendezvous_moves_few_streams_when_a_node_joins() {
        let names: Vec<String> = (0..200).map(|i| format!("s{i}")).collect();
        let small = Fabric::new(FabricConfig::local(4));
        let large = Fabric::new(FabricConfig::local(5));
        let moved = names
            .iter()
            .filter(|n| {
                small.owner_of(n) != large.owner_of(n)
                    && matches!(small.owner_of(n), NodeId::Server(_))
            })
            .count();
        // Expect ~1/5 of streams to move; allow generous slack.
        assert!(moved > 10 && moved < 90, "moved {moved}/200");
        // Every moved stream landed on the new node.
        for name in &names {
            if small.owner_of(name) != large.owner_of(name) {
                assert_eq!(large.owner_of(name), NodeId::Server(4));
            }
        }
    }

    #[test]
    fn requests_route_to_the_owner_and_grant_handles() {
        let (fabric, names) = fabric_with_streams(3, 9);
        for (i, name) in names.iter().enumerate() {
            let policy = StreamPolicyBuilder::new(format!("p{i}"), name)
                .subject(format!("user{i}"))
                .filter("rainrate > 5")
                .build();
            fabric.load_policy(policy).unwrap();
        }
        for (i, name) in names.iter().enumerate() {
            let response = fabric
                .handle_request(&Request::subscribe(&format!("user{i}"), name), None)
                .unwrap();
            assert_eq!(response.node, fabric.owner_of(name));
            assert!(fabric.handle_is_live(&response.response.handle));
            assert!(response.total_latency() >= response.broker_network);
        }
        let parts = node_parts(&fabric);
        assert_eq!(parts.iter().map(|part| part.counter(Metric::Requests)).sum::<u64>(), 9);
        // Requests landed where the streams live.
        for (node, part) in fabric.nodes().iter().zip(&parts) {
            let owned = names.iter().filter(|n| fabric.owner_of(n) == node.id()).count() as u64;
            assert_eq!(part.counter(Metric::Requests), owned);
        }
        // The broker part counts the request hops.
        assert_eq!(fabric.telemetry().nodes[0].counter(Metric::BrokerFrames), 9);
    }

    #[test]
    fn data_routes_to_the_owner_node() {
        let (fabric, names) = fabric_with_streams(3, 6);
        let schema = Schema::weather_example().shared();
        for name in &names {
            let batch: Vec<Tuple> = (0..10).map(|i| weather_tuple(&schema, i, 10.0)).collect();
            fabric.push_batch(name, batch).unwrap();
            fabric.push(name, weather_tuple(&schema, 10, 1.0)).unwrap();
        }
        let parts = node_parts(&fabric);
        let per_node_ingested: u64 =
            parts.iter().map(|part| part.counter(Metric::TuplesIngested)).sum();
        assert_eq!(per_node_ingested, 6 * 11);
        // Twelve frames, one per push call, each on the stream's owner.
        assert_eq!(parts.iter().map(|part| part.counter(Metric::BrokerFrames)).sum::<u64>(), 12);
        for (node, part) in fabric.nodes().iter().zip(&parts) {
            let owned = names.iter().filter(|n| fabric.owner_of(n) == node.id()).count() as u64;
            assert_eq!(part.counter(Metric::TuplesIngested), owned * 11);
        }
        assert!(fabric.push("unregistered", weather_tuple(&schema, 0, 1.0)).is_err());
    }

    #[test]
    fn policy_propagation_reaches_every_node_and_bumps_revisions() {
        let fabric = Fabric::new(FabricConfig::local(3));
        fabric.register_stream("weather", Schema::weather_example()).unwrap();
        let policy =
            StreamPolicyBuilder::new("p", "weather").subject("LTA").filter("rainrate > 5").build();
        let before: Vec<u64> =
            fabric.layer().servers().iter().map(|s| s.policy_revision()).collect();
        fabric.load_policy(policy).unwrap();
        for (server, revision) in fabric.layer().servers().iter().zip(&before) {
            assert_eq!(server.policy_count(), 1);
            assert!(server.policy_revision() > *revision);
        }
        let propagations = |fabric: &Fabric| -> u64 {
            let counts = fabric.audit_kind_counts();
            ["policy-loaded", "policy-removed", "policy-updated"]
                .iter()
                .map(|kind| counts.get(*kind).copied().unwrap_or(0))
                .sum()
        };
        assert_eq!(propagations(&fabric), 3);

        let updated =
            StreamPolicyBuilder::new("p", "weather").subject("LTA").filter("rainrate > 50").build();
        fabric.update_policy(updated).unwrap();
        fabric.remove_policy("p").unwrap();
        for server in fabric.layer().servers() {
            assert_eq!(server.policy_count(), 0);
        }
        assert_eq!(propagations(&fabric), 9);
        assert!(fabric.remove_policy("p").is_err());
    }

    #[test]
    fn subscription_delivers_through_the_virtual_clock() {
        let fabric = Fabric::new(FabricConfig::paper_testbed(2));
        fabric.register_stream("weather", Schema::weather_example()).unwrap();
        let policy =
            StreamPolicyBuilder::new("p", "weather").subject("LTA").filter("rainrate > 5").build();
        fabric.load_policy(policy).unwrap();
        let granted = fabric.handle_request(&Request::subscribe("LTA", "weather"), None).unwrap();
        let mut subscription = fabric.subscribe(&granted.response.handle).unwrap();
        assert_eq!(subscription.node(), fabric.owner_of("weather"));

        let schema = Schema::weather_example().shared();
        let batch: Vec<Tuple> = (0..20).map(|i| weather_tuple(&schema, i, 10.0)).collect();
        assert_eq!(fabric.push_batch("weather", batch).unwrap(), 20);

        // Nothing has arrived yet: the LAN link's latency is > 0 virtual time.
        assert!(subscription.poll().is_empty());
        assert_eq!(subscription.in_flight(), 20);

        // Advance far enough for every tuple to arrive.
        fabric.advance(Duration::from_secs(1));
        let delivered = subscription.poll();
        assert_eq!(delivered.len(), 20);
        assert_eq!(subscription.delivered(), 20);
        assert_eq!(subscription.in_flight(), 0);
        // Arrival order is the send order and timestamps are monotone.
        for pair in delivered.windows(2) {
            assert!(pair[1].arrived_at_nanos >= pair[0].arrived_at_nanos);
            assert!(
                pair[1].tuple.event_time().unwrap() > pair[0].tuple.event_time().unwrap(),
                "FIFO delivery must preserve send order"
            );
        }
        // Latency includes the LAN link's base propagation delay.
        for d in &delivered {
            assert!(d.latency() >= Duration::from_micros(200), "latency {:?}", d.latency());
        }
        // Exactly-once: nothing more arrives.
        fabric.advance(Duration::from_secs(1));
        assert!(subscription.poll().is_empty());
    }

    #[test]
    fn unknown_handles_are_rejected_and_not_live() {
        let fabric = Fabric::new(FabricConfig::local(2));
        let foreign = StreamHandle::mint("elsewhere", 7);
        assert!(!fabric.handle_is_live(&foreign));
        assert!(matches!(fabric.subscribe(&foreign), Err(ExacmlError::UnknownHandle(_))));
        let incomplete = Request::new();
        assert!(matches!(
            fabric.handle_request(&incomplete, None),
            Err(ExacmlError::IncompleteRequest(_))
        ));
    }

    #[test]
    fn dead_nodes_answer_with_typed_errors_until_restarted() {
        let fabric = Fabric::new(FabricConfig::local(2));
        fabric.register_stream("weather", Schema::weather_example()).unwrap();
        let policy =
            StreamPolicyBuilder::new("p", "weather").subject("LTA").filter("rainrate > 5").build();
        fabric.load_policy(policy).unwrap();
        let granted = fabric.handle_request(&Request::subscribe("LTA", "weather"), None).unwrap();
        let NodeId::Server(owner) = fabric.owner_of("weather") else { panic!("server owner") };

        fabric.kill_node(owner as usize);
        assert_eq!(fabric.degraded_nodes(), vec![NodeId::Server(owner)]);
        let schema = Schema::weather_example().shared();
        // Every broker path reports the typed error instead of panicking or
        // silently dropping.
        assert!(matches!(
            fabric.push("weather", weather_tuple(&schema, 0, 9.0)),
            Err(ExacmlError::NodeUnavailable { .. })
        ));
        assert!(matches!(
            fabric.push_batch("weather", vec![weather_tuple(&schema, 0, 9.0)]),
            Err(ExacmlError::NodeUnavailable { .. })
        ));
        assert!(matches!(
            fabric.handle_request(&Request::subscribe("LTA", "weather"), None),
            Err(ExacmlError::NodeUnavailable { .. })
        ));
        assert!(matches!(
            fabric.subscribe(&granted.response.handle),
            Err(ExacmlError::NodeUnavailable { .. })
        ));
        // Policy fan-out refuses before mutating any node.
        let p2 =
            StreamPolicyBuilder::new("p2", "weather").subject("EMA").filter("rainrate > 1").build();
        assert!(matches!(fabric.load_policy(p2), Err(ExacmlError::NodeUnavailable { .. })));
        for server in fabric.layer().servers() {
            assert_eq!(server.policy_count(), 1, "partial propagation");
        }
        // Release has no error channel: nothing is released, grant survives.
        assert!(!fabric.release_access("LTA", "weather"));
        assert!(!fabric.handle_is_live(&granted.response.handle));

        fabric.restart_node(owner as usize);
        assert!(fabric.degraded_nodes().is_empty());
        assert!(fabric.handle_is_live(&granted.response.handle));
        assert!(fabric.release_access("LTA", "weather"));
    }

    #[test]
    fn rendezvous_owner_matches_fabric_placement() {
        let fabric = Fabric::new(FabricConfig::local(5));
        for name in ["weather", "gps", "STREAM7", "a-very-long-stream-name"] {
            let NodeId::Server(i) = fabric.owner_of(name) else { panic!("server owner") };
            assert_eq!(rendezvous_owner(name, 5), i as usize);
        }
    }

    #[test]
    fn fabric_telemetry_aggregates_node_tagged_snapshots() {
        let fabric = Fabric::new(FabricConfig::local(2));
        fabric.register_stream("weather", Schema::weather_example()).unwrap();
        let policy =
            StreamPolicyBuilder::new("p", "weather").subject("LTA").filter("rainrate > 5").build();
        fabric.load_policy(policy).unwrap();
        let granted = fabric.handle_request(&Request::subscribe("LTA", "weather"), None).unwrap();
        let mut subscription = fabric.subscribe(&granted.response.handle).unwrap();
        let schema = Schema::weather_example().shared();
        let batch: Vec<Tuple> = (0..8).map(|t| weather_tuple(&schema, t, 9.0)).collect();
        fabric.push_batch("weather", batch).unwrap();
        assert!(subscription.poll().is_empty(), "nothing arrives before the clock advances");
        fabric.advance(Duration::from_secs(1));
        let delivered = subscription.poll();
        assert!(!delivered.is_empty());

        let snapshot = fabric.telemetry();
        assert_eq!(snapshot.node, "fabric-2");
        let tags: Vec<&str> = snapshot.nodes.iter().map(|part| part.node.as_str()).collect();
        assert_eq!(tags, ["broker", "server-0", "server-1"]);

        // Top-level counters reconcile with the operations we performed: one
        // routed request, one ingest frame, eight tuples into the owner node.
        assert_eq!(snapshot.counter(Metric::Requests), 1);
        assert_eq!(snapshot.counter(Metric::TuplesIngested), 8);
        assert_eq!(snapshot.counter(Metric::BrokerFrames), 2, "request route + ingest frame");

        // Stage routing: broker round-trips and deliveries live in the
        // broker part; ingest frames are recorded on the owning node.
        let broker = &snapshot.nodes[0];
        assert_eq!(broker.stage(Stage::BrokerRoute).map(|s| s.count), Some(1));
        assert_eq!(broker.stage(Stage::Delivery).map(|s| s.count), Some(delivered.len() as u64));
        let node_ingest: u64 =
            snapshot.nodes[1..].iter().map(|part| part.counter(Metric::TuplesIngested)).sum();
        assert_eq!(node_ingest, 8);
        // The virtual clock, not the wall clock, times broker stages: the
        // same scenario replays to the same snapshot.
        let replay = Fabric::new(FabricConfig::local(2));
        replay.register_stream("weather", Schema::weather_example()).unwrap();
        let policy =
            StreamPolicyBuilder::new("p", "weather").subject("LTA").filter("rainrate > 5").build();
        replay.load_policy(policy).unwrap();
        replay.handle_request(&Request::subscribe("LTA", "weather"), None).unwrap();
        assert_eq!(
            replay.telemetry().nodes[0].stage(Stage::BrokerRoute).map(|s| s.total_nanos),
            broker.stage(Stage::BrokerRoute).map(|s| s.total_nanos),
        );
    }

    #[test]
    fn nodes_mint_globally_unique_handles() {
        let (fabric, names) = fabric_with_streams(4, 16);
        let mut seen = std::collections::HashSet::new();
        for (i, name) in names.iter().enumerate() {
            let policy = StreamPolicyBuilder::new(format!("p{i}"), name)
                .subject("LTA")
                .filter("rainrate > 5")
                .build();
            fabric.load_policy(policy).unwrap();
            let granted = fabric.handle_request(&Request::subscribe("LTA", name), None).unwrap();
            assert!(
                seen.insert(granted.response.handle.uri().to_string()),
                "duplicate handle URI across nodes"
            );
        }
    }
}
