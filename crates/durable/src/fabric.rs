//! [`ReplicatedFabric`]: a brokering fabric of durable nodes that survives
//! losing one.
//!
//! The plain [`Fabric`](exacml_plus::Fabric) scales the enforcement point
//! out to N nodes but a dead node takes its streams, grants and audit trail
//! with it. This module closes that gap by combining the two existing
//! layers:
//!
//! * each **logical node** `i` runs a [`DurableServer`] journaling every
//!   state-mutating operation (PR 5's WAL + snapshot store), minting handle
//!   URIs under the stable host name `node{i}`;
//! * a [`ReplicaMirror`] per peer ships the journal's bytes to K other
//!   **physical hosts** over the simulated topology — control-plane records
//!   synchronously (the broker waits for the ack in virtual time, so an
//!   acknowledged grant is always on K+1 disks), ingest records in
//!   batches (bounded lag, surfaced as
//!   [`RobustnessStats::replication_lag_records`]);
//! * when the broker finds a node's host **dead**, it *fails over*: the
//!   first surviving peer holding a replica replays the shipped journal
//!   through the ordinary recovery workflow
//!   ([`DurableServer::recover_with`]), re-minting the dead node's handles
//!   at their recorded URIs — the logical node keeps its identity,
//!   rendezvous ownership and audit trail, only its physical host changes.
//!
//! Subscribers whose node failed over re-subscribe with their (unchanged)
//! handle and are re-attached to the adopter. Transient faults from an
//! installed [`FaultPlan`] degrade to retried hops exactly as on the plain
//! fabric; `Fault::Crash` windows go further and kill the scheduled host at
//! their virtual-clock instant, which is what the chaos tests drive.

use crate::replication::ReplicaMirror;
use crate::server::{DurableConfig, DurableServer};
use exacml_dsms::{Schema, StreamHandle, Tuple};
use exacml_plus::{
    rendezvous_owner, AccessControl, Backend, BackendHealth, BackendResponse, ExacmlError,
    FabricSubscription, PolicyAdmin, RetryPolicy, RobustnessStats, ShardedMap, StreamBackend,
    StreamBatch, Subscription, TaggedAuditEvent, UserQuery,
};
use exacml_simnet::{Clock, FaultPlan, ManualClock, NodeId, SimLink, Topology};
use exacml_telemetry::{Metric, Stage, Telemetry, TelemetrySnapshot};
use exacml_xacml::{Policy, Request};
use parking_lot::{Mutex, RwLock};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of a replicated durable fabric.
#[derive(Debug, Clone)]
pub struct ReplicatedConfig {
    /// Logical nodes (and initial physical hosts) behind the broker.
    pub nodes: usize,
    /// Replication factor K: every logical node's journal is mirrored onto
    /// K peer hosts (clamped to `nodes - 1`). K = 0 disables replication —
    /// a dead host then loses its nodes exactly like the plain fabric.
    pub replication: usize,
    /// Root directory; host `p` stores its primary under `node{p}/store`
    /// and its mirror of logical node `i` under `node{p}/replica-of-{i}`.
    pub root: PathBuf,
    /// Topology the broker, nodes and shipping links live on.
    pub topology: Topology,
    /// Base seed; nodes and links derive deterministic sub-seeds.
    pub seed: u64,
    /// Per-node durable-store template (`dsms_host` and `seed` are
    /// overridden per node so URIs stay stable across failover).
    pub durable_template: DurableConfig,
    /// Injected-fault schedule, consulted against the fabric's virtual
    /// clock on every broker hop and shipping send.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Retry/backoff for broker→node hops and shipping sends under faults.
    pub retry: RetryPolicy,
    /// Ship buffered ingest records after this many unshipped journal
    /// appends (control-plane records always ship immediately).
    pub ingest_ship_every: u64,
}

impl ReplicatedConfig {
    /// A replicated fabric of `nodes` nodes under `root`, loopback links,
    /// K = 1.
    #[must_use]
    pub fn new(nodes: usize, root: impl Into<PathBuf>) -> Self {
        ReplicatedConfig {
            nodes: nodes.max(1),
            replication: 1,
            root: root.into(),
            topology: Topology::local(),
            seed: 42,
            durable_template: DurableConfig::local(),
            fault_plan: None,
            retry: RetryPolicy::default(),
            ingest_ship_every: 256,
        }
    }

    /// Override the replication factor K.
    #[must_use]
    pub fn with_replication(mut self, k: usize) -> Self {
        self.replication = k;
        self
    }

    /// Override the topology.
    #[must_use]
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Override the base seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the per-node durable-store template.
    #[must_use]
    pub fn with_durable_template(mut self, template: DurableConfig) -> Self {
        self.durable_template = template;
        self
    }

    /// Install an injected-fault schedule.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Override the retry/backoff policy.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Override the ingest shipping batch threshold.
    #[must_use]
    pub fn with_ingest_ship_every(mut self, records: u64) -> Self {
        self.ingest_ship_every = records.max(1);
        self
    }

    /// The effective replication factor (K clamped to the peer count).
    #[must_use]
    pub fn effective_replication(&self) -> usize {
        self.replication.min(self.nodes.saturating_sub(1))
    }
}

/// Where a logical node currently lives.
struct Slot {
    server: Arc<DurableServer>,
    host: usize,
}

/// The shipping state of one logical node: its peer mirrors and the count
/// of ingest appends not yet shipped.
struct NodeShipper {
    mirrors: Vec<ReplicaMirror>,
    unshipped_ingest: u64,
}

/// A fabric of [`DurableServer`] nodes with WAL shipping and owner
/// failover. See the module docs for the failure model.
pub struct ReplicatedFabric {
    config: ReplicatedConfig,
    clock: ManualClock,
    /// Logical node `i` → its current server and physical host.
    slots: Vec<RwLock<Slot>>,
    /// Logical node `i` → its replication state.
    shippers: Vec<Mutex<NodeShipper>>,
    /// Physical host `p` → alive?
    hosts_alive: Vec<AtomicBool>,
    /// Granted handle → owning *logical* node (stable across failover).
    /// Sharded like the plain fabric's broker tables, so concurrent
    /// subscribe/release lookups for different handles never serialise.
    handles: ShardedMap<StreamHandle, usize>,
    /// Samples broker↔node and shipping delays.
    rng: Mutex<StdRng>,
    next_link_seed: AtomicU64,
    /// `Fault::Crash` windows already applied (edge-triggered kills).
    crashes_applied: Mutex<HashSet<usize>>,
    failovers_completed: AtomicU64,
    handles_reminted: AtomicU64,
    batches_acked: AtomicU64,
    batches_retried: AtomicU64,
    broker_retries: AtomicU64,
    /// Broker-level registry: request routing (virtual durations) and
    /// replica shipping (wall-clock I/O). Per-node stages live in each
    /// slot server's registry; [`Backend::telemetry`] aggregates.
    telemetry: Arc<Telemetry>,
}

impl ReplicatedFabric {
    /// Create a fresh replicated fabric: one durable store per node under
    /// `config.root`, mirrors attached to each node's K ring successors.
    ///
    /// # Errors
    /// Fails when `root` already holds stores, or on I/O errors.
    pub fn create(config: ReplicatedConfig) -> Result<Self, ExacmlError> {
        let nodes = config.nodes;
        let k = config.effective_replication();
        let mut slots = Vec::with_capacity(nodes);
        let mut shippers = Vec::with_capacity(nodes);
        for i in 0..nodes {
            let store = config.root.join(format!("node{i}")).join("store");
            let server = DurableServer::create(store, node_config(&config, i))?;
            slots.push(RwLock::new(Slot { server: Arc::new(server), host: i }));
            let mirrors = ring_peers(i, i, nodes, k)
                .map(|p| ReplicaMirror::new(p, replica_dir(&config.root, p, i)))
                .collect();
            shippers.push(Mutex::new(NodeShipper { mirrors, unshipped_ingest: 0 }));
        }
        let rng = StdRng::seed_from_u64(config.seed.wrapping_mul(0x9e37_79b9));
        let fabric = ReplicatedFabric {
            clock: ManualClock::new(),
            slots,
            shippers,
            hosts_alive: (0..nodes).map(|_| AtomicBool::new(true)).collect(),
            handles: ShardedMap::new(),
            rng: Mutex::new(rng),
            next_link_seed: AtomicU64::new(config.seed.wrapping_add(0xf00d)),
            crashes_applied: Mutex::new(HashSet::new()),
            failovers_completed: AtomicU64::new(0),
            handles_reminted: AtomicU64::new(0),
            batches_acked: AtomicU64::new(0),
            batches_retried: AtomicU64::new(0),
            broker_retries: AtomicU64::new(0),
            telemetry: Arc::new(Telemetry::new()),
            config,
        };
        // Attach every mirror now: a node that dies before its first
        // control-plane operation must still leave a recoverable replica.
        for i in 0..nodes {
            fabric.ship_node(i, true);
        }
        Ok(fabric)
    }

    // --- observability ------------------------------------------------------

    /// The fabric's configuration.
    #[must_use]
    pub fn config(&self) -> &ReplicatedConfig {
        &self.config
    }

    /// The fabric's virtual clock (shared with subscriptions).
    #[must_use]
    pub fn clock(&self) -> &ManualClock {
        &self.clock
    }

    /// Advance the virtual clock.
    pub fn advance(&self, by: Duration) {
        self.clock.advance(by);
    }

    /// Number of logical nodes.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.config.nodes
    }

    /// The physical host a logical node currently lives on.
    #[must_use]
    pub fn host_of(&self, logical: usize) -> usize {
        self.slots[logical].read().host
    }

    /// The logical node owning a stream (rendezvous hashing over *logical*
    /// nodes, so ownership survives any number of host changes).
    #[must_use]
    pub fn owner_of(&self, stream: &str) -> NodeId {
        NodeId::Server(rendezvous_owner(stream, self.config.nodes) as u16)
    }

    /// The durable server currently backing a logical node (triggers
    /// failover when its host is dead).
    ///
    /// # Errors
    /// [`ExacmlError::NodeUnavailable`] when the node's host is dead and no
    /// live replica exists, or a fault window outlasts the retry budget.
    pub fn node_server(&self, logical: usize) -> Result<Arc<DurableServer>, ExacmlError> {
        self.server_of(logical)
    }

    /// Live grants across the fabric, in grant order per node.
    #[must_use]
    pub fn live_grants(&self) -> Vec<crate::record::GrantRecord> {
        (0..self.config.nodes).flat_map(|i| self.slots[i].read().server.live_grants()).collect()
    }

    /// Fault-tolerance counters, including the current replication lag.
    #[must_use]
    pub fn robustness(&self) -> RobustnessStats {
        RobustnessStats {
            failovers_completed: self.failovers_completed.load(Ordering::Relaxed),
            handles_reminted: self.handles_reminted.load(Ordering::Relaxed),
            replication_batches_acked: self.batches_acked.load(Ordering::Relaxed),
            replication_batches_retried: self.batches_retried.load(Ordering::Relaxed),
            replication_lag_records: self.replication_lag(),
            broker_retries: self.broker_retries.load(Ordering::Relaxed),
        }
    }

    /// Journal records appended on primaries but not yet acknowledged by
    /// every mirror, summed across the fabric.
    #[must_use]
    pub fn replication_lag(&self) -> u64 {
        let mut lag = 0u64;
        for i in 0..self.config.nodes {
            let slot = self.slots[i].read();
            let seq = slot.server.journal_seq();
            for mirror in &self.shippers[i].lock().mirrors {
                lag += seq.saturating_sub(mirror.acked_seq());
            }
        }
        lag
    }

    /// Logical nodes currently hosted on a dead physical host (they will
    /// fail over on their next touch) or behind an active fault window.
    #[must_use]
    pub fn degraded_nodes(&self) -> Vec<NodeId> {
        let now = self.clock.now_nanos();
        (0..self.config.nodes)
            .filter(|&i| {
                let host = self.slots[i].read().host;
                !self.host_is_alive(host)
                    || self.config.fault_plan.as_ref().is_some_and(|plan| {
                        plan.link_down(NodeId::DataServer, NodeId::Server(host as u16), now)
                    })
            })
            .map(|i| NodeId::Server(i as u16))
            .collect()
    }

    // --- liveness -----------------------------------------------------------

    /// Whether a physical host is alive.
    #[must_use]
    pub fn host_is_alive(&self, host: usize) -> bool {
        self.hosts_alive.get(host).is_some_and(|alive| alive.load(Ordering::Relaxed))
    }

    /// Kill a physical host: its disk becomes unreachable, every logical
    /// node it hosts fails over to a surviving replica on its next touch,
    /// and mirrors it held stop acknowledging ships (lag grows).
    pub fn kill_node(&self, host: usize) {
        if let Some(alive) = self.hosts_alive.get(host) {
            alive.store(false, Ordering::Relaxed);
        }
    }

    /// Bring a physical host back, *empty*: whatever its disk held when it
    /// died is stale (failover moved its nodes elsewhere, journals moved
    /// on), so every mirror it hosts is re-attached from scratch on the
    /// next ship. The host immediately starts accepting mirrors again.
    pub fn restart_node(&self, host: usize) {
        let Some(alive) = self.hosts_alive.get(host) else { return };
        alive.store(true, Ordering::Relaxed);
        for shipper in &self.shippers {
            for mirror in shipper.lock().mirrors.iter_mut() {
                if mirror.host() == host {
                    mirror.detach();
                }
            }
        }
    }

    /// Apply `Fault::Crash` windows whose start the virtual clock has
    /// passed: each kills its host once (edge-triggered, like pulling the
    /// power at that instant).
    fn apply_crash_schedule(&self) {
        let Some(plan) = &self.config.fault_plan else { return };
        let now = self.clock.now_nanos();
        let mut applied = self.crashes_applied.lock();
        for (index, node, from, _) in plan.crash_windows() {
            if from <= now && !applied.contains(&index) {
                if let NodeId::Server(host) = node {
                    self.kill_node(host as usize);
                }
                applied.insert(index);
            }
        }
    }

    /// Probe the broker→host hop, retrying active fault windows with
    /// exponential backoff in virtual time (mirrors
    /// `Fabric::ensure_reachable`).
    fn ensure_host_reachable(&self, host: usize, logical: usize) -> Result<(), ExacmlError> {
        if !self.host_is_alive(host) {
            return Err(ExacmlError::NodeUnavailable {
                node: NodeId::Server(logical as u16).to_string(),
                detail: format!("host {host} is dead"),
            });
        }
        let Some(plan) = &self.config.fault_plan else { return Ok(()) };
        let target = NodeId::Server(host as u16);
        let retry = self.config.retry;
        let mut attempt: u32 = 0;
        loop {
            if !plan.link_down(NodeId::DataServer, target, self.clock.now_nanos()) {
                if attempt > 0 {
                    self.broker_retries.fetch_add(u64::from(attempt), Ordering::Relaxed);
                }
                return Ok(());
            }
            attempt += 1;
            if attempt >= retry.max_attempts.max(1) {
                self.broker_retries.fetch_add(u64::from(attempt - 1), Ordering::Relaxed);
                return Err(ExacmlError::NodeUnavailable {
                    node: NodeId::Server(logical as u16).to_string(),
                    detail: format!(
                        "broker hop to host {host} still faulted after {attempt} attempt(s)"
                    ),
                });
            }
            self.clock.advance(retry.backoff * 2u32.pow(attempt - 1));
        }
    }

    /// The server backing a logical node, failing over first when its host
    /// is dead.
    fn server_of(&self, logical: usize) -> Result<Arc<DurableServer>, ExacmlError> {
        self.apply_crash_schedule();
        let (server, host) = {
            let slot = self.slots[logical].read();
            (Arc::clone(&slot.server), slot.host)
        };
        if self.host_is_alive(host) {
            self.ensure_host_reachable(host, logical)?;
            return Ok(server);
        }
        self.fail_over(logical)
    }

    // --- failover -----------------------------------------------------------

    /// Move a logical node whose host died onto the first surviving peer
    /// holding its replica: replay the shipped journal through the ordinary
    /// recovery workflow, re-minting every live handle at its recorded URI,
    /// then re-attach fresh mirrors from the adopter.
    fn fail_over(&self, logical: usize) -> Result<Arc<DurableServer>, ExacmlError> {
        let mut slot = self.slots[logical].write();
        // Another thread may have completed the failover while we waited.
        if self.host_is_alive(slot.host) {
            return Ok(Arc::clone(&slot.server));
        }
        let mut shipper = self.shippers[logical].lock();
        let adopter = shipper
            .mirrors
            .iter()
            .find(|mirror| self.host_is_alive(mirror.host()))
            .map(|mirror| (mirror.host(), mirror.dir().to_path_buf()))
            .ok_or_else(|| ExacmlError::NodeUnavailable {
                node: NodeId::Server(logical as u16).to_string(),
                detail: format!(
                    "host {} is dead and no live replica remains (K = {})",
                    slot.host,
                    self.config.effective_replication()
                ),
            })?;
        let (adopter_host, replica) = adopter;
        let recovered = DurableServer::recover_with(replica, node_config(&self.config, logical))?;
        self.failovers_completed.fetch_add(1, Ordering::Relaxed);
        self.handles_reminted.fetch_add(recovered.live_grants().len() as u64, Ordering::Relaxed);
        slot.server = Arc::new(recovered);
        slot.host = adopter_host;
        // The adopter's former mirror directory is now the primary store;
        // re-home the replica set on the adopter's ring successors.
        shipper.mirrors = ring_peers(logical, adopter_host, self.config.nodes, {
            self.config.effective_replication()
        })
        .map(|p| ReplicaMirror::new(p, replica_dir(&self.config.root, p, logical)))
        .collect();
        shipper.unshipped_ingest = 0;
        let server = Arc::clone(&slot.server);
        drop(slot);
        drop(shipper);
        self.ship_node(logical, true);
        Ok(server)
    }

    // --- replication --------------------------------------------------------

    /// Ship a logical node's journal to its mirrors. `sync` ships charge
    /// the link's round trip on the virtual clock (the broker waits for the
    /// ack); batched ingest ships do not (they model a background pipe).
    /// A mirror behind a dead host or an exhausted fault window is skipped
    /// — the batch stays pending and the lag metric grows.
    fn ship_node(&self, logical: usize, sync: bool) {
        let slot = self.slots[logical].read();
        if !self.host_is_alive(slot.host) {
            return;
        }
        let from = NodeId::Server(slot.host as u16);
        let mut shipper = self.shippers[logical].lock();
        shipper.unshipped_ingest = 0;
        for mirror in shipper.mirrors.iter_mut() {
            if !self.host_is_alive(mirror.host()) {
                self.batches_retried.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let to = NodeId::Server(mirror.host() as u16);
            if !self.await_link(from, to) {
                self.batches_retried.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            // Shipping flushes the primary's journal and copies its new
            // bytes — real I/O, timed on the wall clock like WAL appends
            // (the *round trip* charged below for sync ships stays on the
            // virtual clock). A primary whose journal failed cannot even
            // flush: the ship fails and its mirrors keep whatever they
            // acknowledged last.
            let started = self.telemetry.is_enabled().then(Instant::now);
            let shipped = mirror.ship_from(&slot.server);
            if let Some(started) = started {
                self.telemetry.record(Stage::ReplicaShip, started.elapsed());
            }
            match shipped {
                Ok(outcome) => {
                    if outcome.shipped_anything() {
                        self.telemetry.incr(Metric::ReplicaBatchesShipped);
                        self.batches_acked.fetch_add(1, Ordering::Relaxed);
                        if sync {
                            let delay =
                                self.sample_ship_round_trip(from, to, outcome.wal_bytes as usize);
                            self.clock.advance(delay);
                        }
                    }
                }
                Err(_) => {
                    self.batches_retried.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Ship every node's outstanding journal bytes now (tests and benches
    /// call this to bound ingest lag before measuring or killing).
    pub fn settle_replication(&self) {
        for i in 0..self.config.nodes {
            self.ship_node(i, false);
        }
    }

    /// Wait out fault windows on a shipping link, retrying with backoff in
    /// virtual time. `true` when the link came up within the budget.
    fn await_link(&self, from: NodeId, to: NodeId) -> bool {
        let Some(plan) = &self.config.fault_plan else { return true };
        let retry = self.config.retry;
        let mut attempt: u32 = 0;
        loop {
            if !plan.link_down(from, to, self.clock.now_nanos()) {
                return true;
            }
            attempt += 1;
            if attempt >= retry.max_attempts.max(1) {
                return false;
            }
            self.clock.advance(retry.backoff * 2u32.pow(attempt - 1));
        }
    }

    /// Sample the shipping round trip (batch out, ack back), scaled by any
    /// active latency spike.
    fn sample_ship_round_trip(&self, from: NodeId, to: NodeId, bytes: usize) -> Duration {
        let mut rng = self.rng.lock();
        let sampled = self.config.topology.round_trip(from, to, bytes, 64, &mut *rng);
        match &self.config.fault_plan {
            Some(plan) => {
                let factor = plan.latency_factor(from, to, self.clock.now_nanos());
                sampled.mul_f64(factor.max(0.0))
            }
            None => sampled,
        }
    }

    /// Sample the broker→node→broker round trip for a routed request.
    fn broker_round_trip(&self, host: usize, request_bytes: usize) -> Duration {
        let node = NodeId::Server(host as u16);
        let mut rng = self.rng.lock();
        let sampled = self.config.topology.round_trip(
            NodeId::DataServer,
            node,
            request_bytes,
            128,
            &mut *rng,
        );
        match &self.config.fault_plan {
            Some(plan) => {
                let factor = plan.latency_factor(NodeId::DataServer, node, self.clock.now_nanos());
                sampled.mul_f64(factor.max(0.0))
            }
            None => sampled,
        }
    }

    // --- the brokered operations -------------------------------------------

    fn owner_index(&self, stream: &str) -> usize {
        rendezvous_owner(stream, self.config.nodes)
    }

    /// Register an input stream on its owning logical node (journaled and
    /// shipped before the call returns).
    ///
    /// # Errors
    /// As the node's own registration, plus
    /// [`ExacmlError::NodeUnavailable`].
    pub fn register_stream(&self, name: &str, schema: Schema) -> Result<NodeId, ExacmlError> {
        let owner = self.owner_index(name);
        let server = self.server_of(owner)?;
        DurableServer::register_stream(&server, name, schema)?;
        self.ship_node(owner, true);
        Ok(NodeId::Server(owner as u16))
    }

    /// Push one source tuple to the stream's owner node. The ingest record
    /// ships to the mirrors in batches (see
    /// [`ReplicatedConfig::ingest_ship_every`]).
    ///
    /// # Errors
    /// As the node's own push, plus [`ExacmlError::NodeUnavailable`].
    pub fn push(&self, stream: &str, tuple: Tuple) -> Result<usize, ExacmlError> {
        let owner = self.owner_index(stream);
        let server = self.server_of(owner)?;
        let emitted = DurableServer::push(&server, stream, tuple)?;
        self.note_ingest(owner, 1);
        Ok(emitted)
    }

    /// Push a batch of source tuples to the stream's owner node.
    ///
    /// # Errors
    /// As the node's own push, plus [`ExacmlError::NodeUnavailable`].
    pub fn push_batch(&self, stream: &str, tuples: Vec<Tuple>) -> Result<usize, ExacmlError> {
        let owner = self.owner_index(stream);
        let server = self.server_of(owner)?;
        let emitted = DurableServer::push_batch(&server, stream, tuples)?;
        self.note_ingest(owner, 1);
        Ok(emitted)
    }

    /// Route a multi-stream ingest call: group the batches by their
    /// rendezvous-hashed logical owner and land each group on its node in
    /// **one** call — one slot lookup (with at most one lazy failover
    /// probe), one journal session, and one shipper-ledger update per
    /// `(node, call)` group instead of one per stream. WAL shipping
    /// therefore amortises over the whole group, the batched counterpart of
    /// the plain fabric's one-frame-per-node routing.
    ///
    /// # Errors
    /// As [`ReplicatedFabric::push_batch`]; batches applied before a
    /// failing one stay applied (and journaled) exactly as separate calls
    /// would have left them.
    pub fn push_batches(&self, batches: Vec<StreamBatch>) -> Result<usize, ExacmlError> {
        let mut per_node: BTreeMap<usize, Vec<StreamBatch>> = BTreeMap::new();
        for batch in batches {
            if batch.tuples.is_empty() {
                continue;
            }
            per_node.entry(self.owner_index(&batch.stream)).or_default().push(batch);
        }
        let mut emitted = 0;
        for (owner, group) in per_node {
            let server = self.server_of(owner)?;
            // One journal record per stream batch: count the ones that
            // landed even when a later batch of the group fails.
            let mut appended = 0;
            let pushed = group.into_iter().try_for_each(|batch| -> Result<(), ExacmlError> {
                emitted += DurableServer::push_batch(&server, &batch.stream, batch.tuples)?;
                appended += 1;
                Ok(())
            });
            self.note_ingest(owner, appended);
            pushed?;
        }
        Ok(emitted)
    }

    /// Count ingest records appended to a node's journal and ship them once
    /// the threshold is reached.
    fn note_ingest(&self, logical: usize, appends: u64) {
        let due = {
            let mut shipper = self.shippers[logical].lock();
            shipper.unshipped_ingest += appends;
            shipper.unshipped_ingest >= self.config.ingest_ship_every
        };
        if due {
            self.ship_node(logical, false);
        }
    }

    /// Route an access request to the owner node, journal + ship the grant
    /// synchronously (an acknowledged grant is on K+1 disks), and charge
    /// the broker hop.
    ///
    /// # Errors
    /// Propagates the owner's workflow errors, plus
    /// [`ExacmlError::NodeUnavailable`].
    pub fn handle_request(
        &self,
        request: &Request,
        user_query: Option<&UserQuery>,
    ) -> Result<BackendResponse, ExacmlError> {
        let stream = request
            .resource_id()
            .ok_or_else(|| ExacmlError::IncompleteRequest("missing resource-id".into()))?;
        let owner = self.owner_index(stream);
        let server = self.server_of(owner)?;
        let host = self.slots[owner].read().host;
        let request_bytes = exacml_xacml::xml::write_request(request).len()
            + user_query.map_or(0, |q| q.to_xml().len());
        let broker_network = self.broker_round_trip(host, request_bytes);
        self.telemetry.record(Stage::BrokerRoute, broker_network);
        self.telemetry.incr(Metric::BrokerFrames);
        let response = DurableServer::handle_request(&server, request, user_query)?;
        self.handles.insert(response.response.handle.clone(), owner);
        self.ship_node(owner, true);
        Ok(BackendResponse {
            node: NodeId::Server(owner as u16),
            response: response.response,
            broker_network,
        })
    }

    /// Release a subject's access on a stream at its owner node (journaled
    /// and shipped). `false` when nothing was held or the owner is
    /// unreachable with no replica.
    pub fn release_access(&self, subject: &str, stream: &str) -> bool {
        let owner = self.owner_index(stream);
        let Ok(server) = self.server_of(owner) else { return false };
        let released = DurableServer::release_access(&server, subject, stream);
        if released {
            self.ship_node(owner, true);
            self.handles.retain(|handle, &index| index != owner || server.handle_is_live(handle));
        }
        released
    }

    /// Whether a granted handle still points at a live deployment —
    /// *including* after a failover re-minted it on another host.
    #[must_use]
    pub fn handle_is_live(&self, handle: &StreamHandle) -> bool {
        let Some(owner) = self.handles.get(handle) else { return false };
        self.server_of(owner).is_ok_and(|server| server.handle_is_live(handle))
    }

    /// Subscribe to a granted handle; deliveries travel the node→broker
    /// link. After a failover, re-subscribing with the same handle attaches
    /// to the adopter.
    ///
    /// # Errors
    /// [`ExacmlError::UnknownHandle`] for handles not granted here or
    /// withdrawn; [`ExacmlError::NodeUnavailable`] when the owner is gone
    /// with no replica.
    pub fn subscribe(&self, handle: &StreamHandle) -> Result<FabricSubscription, ExacmlError> {
        let owner = self
            .handles
            .get(handle)
            .ok_or_else(|| ExacmlError::UnknownHandle(handle.uri().to_string()))?;
        let server = self.server_of(owner)?;
        let rx = match server.inner().subscribe(handle) {
            Ok(rx) => rx,
            Err(error) => {
                if matches!(error, ExacmlError::Dsms(exacml_dsms::DsmsError::UnknownHandle(_))) {
                    self.handles.remove(handle);
                    return Err(ExacmlError::UnknownHandle(handle.uri().to_string()));
                }
                return Err(error);
            }
        };
        let node = NodeId::Server(owner as u16);
        let link_spec = self.config.topology.link(node, NodeId::DataServer);
        let seed = self.next_link_seed.fetch_add(1, Ordering::Relaxed);
        Ok(FabricSubscription::attach(node, rx, SimLink::new(link_spec, seed), self.clock.clone()))
    }

    // --- policy plane (fabric-wide propagation) -----------------------------

    /// The servers of every logical node, failing over dead-hosted ones
    /// first, so a fan-out either reaches all nodes or fails typed before
    /// mutating any of them.
    fn all_servers(&self) -> Result<Vec<Arc<DurableServer>>, ExacmlError> {
        (0..self.config.nodes).map(|i| self.server_of(i)).collect()
    }

    /// Load a policy on **every** node (journaled and shipped per node).
    ///
    /// # Errors
    /// As [`exacml_plus::Fabric::load_policy`].
    pub fn load_policy(&self, policy: Policy) -> Result<Duration, ExacmlError> {
        let servers = self.all_servers()?;
        let mut slowest = Duration::ZERO;
        for (i, server) in servers.iter().enumerate() {
            slowest = slowest.max(DurableServer::load_policy(server, policy.clone())?);
            self.ship_node(i, true);
        }
        Ok(slowest)
    }

    /// Load a policy from its XML document on every node.
    ///
    /// # Errors
    /// As [`ReplicatedFabric::load_policy`].
    pub fn load_policy_xml(&self, xml: &str) -> Result<Duration, ExacmlError> {
        self.load_policy(exacml_xacml::xml::parse_policy(xml)?)
    }

    /// Remove a policy on **every** node, withdrawing its graphs wherever
    /// they live. Returns the fabric-wide withdrawn count.
    ///
    /// # Errors
    /// As [`exacml_plus::Fabric::remove_policy`].
    pub fn remove_policy(&self, policy_id: &str) -> Result<usize, ExacmlError> {
        let servers = self.all_servers()?;
        let mut withdrawn = 0;
        for (i, server) in servers.iter().enumerate() {
            withdrawn += DurableServer::remove_policy(server, policy_id)?;
            self.ship_node(i, true);
        }
        if withdrawn > 0 {
            self.prune_dead_handles();
        }
        Ok(withdrawn)
    }

    /// Replace a policy on **every** node. Returns the fabric-wide
    /// withdrawn count.
    ///
    /// # Errors
    /// As [`exacml_plus::Fabric::update_policy`].
    pub fn update_policy(&self, policy: Policy) -> Result<usize, ExacmlError> {
        let servers = self.all_servers()?;
        let mut withdrawn = 0;
        for (i, server) in servers.iter().enumerate() {
            withdrawn += DurableServer::update_policy(server, policy.clone())?;
            self.ship_node(i, true);
        }
        if withdrawn > 0 {
            self.prune_dead_handles();
        }
        Ok(withdrawn)
    }

    /// Number of loaded policies per node (propagation keeps the stores
    /// identical).
    #[must_use]
    pub fn policy_count(&self) -> usize {
        self.slots[0].read().server.policy_count()
    }

    fn prune_dead_handles(&self) {
        self.handles.retain(|handle, &owner| {
            let slot = self.slots[owner].read();
            self.host_is_alive(slot.host) && slot.server.handle_is_live(handle)
        });
    }

    // --- audit plane --------------------------------------------------------

    fn tagged_audit_events(
        &self,
        fetch: impl Fn(&DurableServer) -> Vec<exacml_plus::AuditEvent>,
    ) -> Vec<TaggedAuditEvent> {
        let mut events: Vec<TaggedAuditEvent> = (0..self.config.nodes)
            .flat_map(|i| {
                let slot = self.slots[i].read();
                let node = NodeId::Server(i as u16);
                fetch(&slot.server)
                    .into_iter()
                    .map(move |event| TaggedAuditEvent { node, event })
                    .collect::<Vec<_>>()
            })
            .collect();
        events.sort_by_key(|t| (t.event.timestamp_ms, t.node, t.event.sequence));
        events
    }

    /// The fabric-wide audit trail, each event tagged with its *logical*
    /// node — failover preserves the tags because the journal preserves the
    /// events.
    #[must_use]
    pub fn audit_events(&self) -> Vec<TaggedAuditEvent> {
        self.tagged_audit_events(|server| server.inner().audit_events())
    }

    /// Fabric-wide audit events involving one subject.
    #[must_use]
    pub fn audit_events_for_subject(&self, subject: &str) -> Vec<TaggedAuditEvent> {
        self.tagged_audit_events(|server| server.inner().audit_events_for_subject(subject))
    }

    /// Live deployments across all nodes.
    #[must_use]
    pub fn live_deployments(&self) -> usize {
        (0..self.config.nodes).map(|i| self.slots[i].read().server.inner().live_deployments()).sum()
    }

    /// Live shared plans across all nodes.
    #[must_use]
    pub fn live_plans(&self) -> usize {
        (0..self.config.nodes).map(|i| self.slots[i].read().server.inner().plan_count()).sum()
    }
}

/// The durable-store configuration of logical node `i`: the template with
/// the node's stable host name (so handle URIs survive failover verbatim)
/// and a node-specific seed.
fn node_config(config: &ReplicatedConfig, logical: usize) -> DurableConfig {
    DurableConfig {
        dsms_host: format!("node{logical}"),
        seed: config.seed.wrapping_add(1 + logical as u64),
        ..config.durable_template.clone()
    }
}

/// The replica directory of logical node `logical` on physical host `host`.
fn replica_dir(root: &std::path::Path, host: usize, logical: usize) -> PathBuf {
    root.join(format!("node{host}")).join(format!("replica-of-{logical}"))
}

/// The K ring successors of `start` (skipping `exclude`) among `nodes`
/// hosts — the peer set a logical node's journal ships to.
fn ring_peers(exclude: usize, start: usize, nodes: usize, k: usize) -> impl Iterator<Item = usize> {
    (1..nodes.max(1)).map(move |step| (start + step) % nodes).filter(move |&p| p != exclude).take(k)
}

// --- the unified backend API -------------------------------------------------

impl StreamBackend for ReplicatedFabric {
    fn register_stream(&self, name: &str, schema: Schema) -> Result<NodeId, ExacmlError> {
        ReplicatedFabric::register_stream(self, name, schema)
    }

    fn push(&self, stream: &str, tuple: Tuple) -> Result<usize, ExacmlError> {
        ReplicatedFabric::push(self, stream, tuple)
    }

    fn push_batch(&self, stream: &str, tuples: Vec<Tuple>) -> Result<usize, ExacmlError> {
        ReplicatedFabric::push_batch(self, stream, tuples)
    }

    fn push_batches(&self, batches: Vec<StreamBatch>) -> Result<usize, ExacmlError> {
        ReplicatedFabric::push_batches(self, batches)
    }

    fn subscribe(&self, handle: &StreamHandle) -> Result<Subscription, ExacmlError> {
        ReplicatedFabric::subscribe(self, handle).map(Subscription::Fabric)
    }

    fn handle_is_live(&self, handle: &StreamHandle) -> bool {
        ReplicatedFabric::handle_is_live(self, handle)
    }
}

impl AccessControl for ReplicatedFabric {
    fn handle_request(
        &self,
        request: &Request,
        user_query: Option<&UserQuery>,
    ) -> Result<BackendResponse, ExacmlError> {
        ReplicatedFabric::handle_request(self, request, user_query)
    }

    fn release_access(&self, subject: &str, stream: &str) -> bool {
        ReplicatedFabric::release_access(self, subject, stream)
    }
}

impl PolicyAdmin for ReplicatedFabric {
    fn load_policy(&self, policy: Policy) -> Result<Duration, ExacmlError> {
        ReplicatedFabric::load_policy(self, policy)
    }

    fn load_policy_xml(&self, xml: &str) -> Result<Duration, ExacmlError> {
        ReplicatedFabric::load_policy_xml(self, xml)
    }

    fn remove_policy(&self, policy_id: &str) -> Result<usize, ExacmlError> {
        ReplicatedFabric::remove_policy(self, policy_id)
    }

    fn update_policy(&self, policy: Policy) -> Result<usize, ExacmlError> {
        ReplicatedFabric::update_policy(self, policy)
    }

    fn policy_count(&self) -> usize {
        ReplicatedFabric::policy_count(self)
    }
}

impl Backend for ReplicatedFabric {
    fn backend_kind(&self) -> String {
        "fabric-replicated".to_string()
    }

    fn live_deployments(&self) -> usize {
        ReplicatedFabric::live_deployments(self)
    }

    fn live_plans(&self) -> usize {
        ReplicatedFabric::live_plans(self)
    }

    fn audit_events(&self) -> Vec<TaggedAuditEvent> {
        ReplicatedFabric::audit_events(self)
    }

    fn audit_events_for_subject(&self, subject: &str) -> Vec<TaggedAuditEvent> {
        ReplicatedFabric::audit_events_for_subject(self, subject)
    }

    fn health(&self) -> BackendHealth {
        let journal_failure =
            (0..self.config.nodes).find_map(|i| self.slots[i].read().server.journal_failure());
        BackendHealth {
            degraded_nodes: self.degraded_nodes(),
            journal_failure,
            replication_lag_records: self.replication_lag(),
            robustness: self.robustness(),
        }
    }

    fn telemetry(&self) -> TelemetrySnapshot {
        let mut parts = vec![self.telemetry.snapshot_tagged("broker")];
        parts.extend((0..self.config.nodes).map(|i| {
            let slot = self.slots[i].read();
            // Tag by *logical* node: the slot keeps its tag across failover,
            // so pre- and post-failover snapshots stay diffable.
            slot.server.inner().telemetry_registry().snapshot_tagged(&format!("node-{i}"))
        }));
        TelemetrySnapshot::aggregate("fabric-replicated", parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exacml_plus::StreamPolicyBuilder;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("exacml-repfab-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn weather_policy(id: &str) -> Policy {
        StreamPolicyBuilder::new(id, "weather").subject("LTA").filter("rainrate > 5").build()
    }

    #[test]
    fn grants_survive_killing_their_host() {
        let root = temp_root("failover");
        let fabric = ReplicatedFabric::create(ReplicatedConfig::new(3, &root)).unwrap();
        fabric.register_stream("weather", Schema::weather_example()).unwrap();
        fabric.load_policy(weather_policy("p")).unwrap();
        let granted = fabric.handle_request(&Request::subscribe("LTA", "weather"), None).unwrap();
        let uri = granted.response.handle.uri().to_string();
        let NodeId::Server(owner) = granted.node else { panic!("expected a server node") };
        let owner = owner as usize;

        // Kill the owner's host: the handle survives, at the same URI, on a
        // surviving peer.
        fabric.kill_node(owner);
        assert!(fabric.handle_is_live(&StreamHandle::from_uri(uri.clone())));
        assert_ne!(fabric.host_of(owner), owner, "the logical node moved hosts");
        let stats = fabric.robustness();
        assert_eq!(stats.failovers_completed, 1);
        assert_eq!(stats.handles_reminted, 1);

        // The audit trail kept the logical node's tags, and the grant is
        // still in force: a second request for the held stream is refused.
        let tags: Vec<NodeId> = fabric
            .audit_events()
            .iter()
            .filter(|t| t.event.kind == exacml_plus::AuditEventKind::Granted)
            .map(|t| t.node)
            .collect();
        assert_eq!(tags, vec![NodeId::Server(owner as u16)]);
        let query = UserQuery::for_stream("weather").with_filter("rainrate > 70");
        assert!(matches!(
            fabric.handle_request(&Request::subscribe("LTA", "weather"), Some(&query)),
            Err(ExacmlError::MultipleAccess { .. })
        ));
        // Released grants stay released across the fabric.
        assert!(fabric.release_access("LTA", "weather"));
        assert!(!fabric.handle_is_live(&StreamHandle::from_uri(uri)));
    }

    #[test]
    fn no_replica_means_a_typed_error_not_a_panic() {
        let root = temp_root("no-replica");
        let fabric =
            ReplicatedFabric::create(ReplicatedConfig::new(2, &root).with_replication(0)).unwrap();
        fabric.register_stream("weather", Schema::weather_example()).unwrap();
        let owner = rendezvous_owner("weather", 2);
        fabric.kill_node(owner);
        let err = fabric.register_stream("gps", Schema::gps_example()).err();
        let err = match err {
            Some(e) if matches!(e, ExacmlError::NodeUnavailable { .. }) => e,
            // "gps" may be owned by the surviving node; the dead one must
            // still fail typed.
            _ => fabric
                .node_server(owner)
                .err()
                .expect("dead host without replicas must be unavailable"),
        };
        assert!(err.to_string().contains("unavailable"));
    }

    #[test]
    fn replication_lag_is_bounded_by_the_ship_threshold() {
        let root = temp_root("lag");
        let config = ReplicatedConfig::new(2, &root).with_ingest_ship_every(4);
        let fabric = ReplicatedFabric::create(config).unwrap();
        fabric.register_stream("weather", Schema::weather_example()).unwrap();
        let schema = Schema::weather_example().shared();
        for i in 0..10i64 {
            let tuple = Tuple::builder_shared(&schema)
                .set("samplingtime", exacml_dsms::Value::Timestamp(i * 30_000))
                .set("rainrate", 10.0)
                .finish_with_defaults();
            fabric.push("weather", tuple).unwrap();
        }
        // Lag never exceeds the threshold per mirror.
        assert!(fabric.replication_lag() < 4 * 2);

        // Multi-stream frames append one record per stream batch; each one
        // counts towards the threshold, not each call.
        let streams: Vec<String> = (0..6).map(|i| format!("district{i}")).collect();
        for stream in &streams {
            fabric.register_stream(stream, Schema::weather_example()).unwrap();
        }
        for frame in 0..5i64 {
            let batches = streams
                .iter()
                .map(|stream| {
                    let tuple = Tuple::builder_shared(&schema)
                        .set("samplingtime", exacml_dsms::Value::Timestamp(frame * 30_000))
                        .finish_with_defaults();
                    StreamBatch::new(stream, vec![tuple])
                })
                .collect();
            fabric.push_batches(batches).unwrap();
            assert!(fabric.replication_lag() < 4 * 2, "lag after frame {frame}");
        }

        // Settling clears it.
        fabric.settle_replication();
        assert_eq!(fabric.replication_lag(), 0);
        assert!(fabric.robustness().replication_batches_acked > 0);
    }

    #[test]
    fn killed_then_restarted_host_reattaches_as_a_mirror() {
        let root = temp_root("restart");
        let fabric =
            ReplicatedFabric::create(ReplicatedConfig::new(3, &root).with_seed(7)).unwrap();
        fabric.register_stream("weather", Schema::weather_example()).unwrap();
        let owner = rendezvous_owner("weather", 3);
        fabric.kill_node(owner);
        fabric.load_policy(weather_policy("p")).unwrap(); // triggers failover of the owner
        assert_eq!(fabric.robustness().failovers_completed, 1);

        fabric.restart_node(owner);
        fabric.load_policy(weather_policy("p2")).unwrap();
        fabric.settle_replication();
        // The restarted host acknowledged fresh ships: lag is zero again
        // and no host is degraded.
        assert_eq!(fabric.replication_lag(), 0);
        assert!(fabric.degraded_nodes().is_empty());
        assert_eq!(fabric.policy_count(), 2);
    }
}
