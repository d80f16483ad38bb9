//! [`Replication`]: the placement layer that lets a fabric of durable nodes
//! survive losing one.
//!
//! The broker — routing, handle tables, frame grouping, policy fan-out,
//! audit and telemetry aggregation — is [`exacml_plus::Fabric`], the same
//! one the plain fabric uses. On the plain fabric a dead node takes its
//! streams, grants and audit trail with it until it is restarted. This
//! module supplies only what closes that gap, as the broker's
//! [`Placement`] layer:
//!
//! * each **logical node** `i` runs a [`DurableServer`] journaling every
//!   state-mutating operation (the WAL + snapshot store), minting handle
//!   URIs under the stable host name `node{i}`;
//! * a [`ReplicaMirror`] per peer ships the journal's bytes to K other
//!   **physical hosts** over the simulated topology — after every
//!   control-plane operation synchronously (the broker waits for the ack in
//!   virtual time, so an acknowledged grant *and* a journaled denial are
//!   always on K+1 disks), ingest records in batches (bounded lag, surfaced
//!   as `BackendHealth::replication_lag_records`);
//! * when the broker resolves a node whose host is **dead**, the layer
//!   *fails over*: the first surviving peer holding a replica replays the
//!   shipped journal through the ordinary recovery workflow
//!   ([`DurableServer::recover_with`]), re-minting the dead node's handles
//!   at their recorded URIs — the logical node keeps its identity,
//!   rendezvous ownership and audit trail, only its physical host changes.
//!
//! What the layer does is counted on the broker's registry, the part of the
//! fabric's telemetry that outlives any host: `replica_batches_shipped`,
//! `replica_ship_retries`, `failovers` and `handles_reminted`.
//!
//! Subscribers whose node failed over re-subscribe with their (unchanged)
//! handle and are re-attached to the adopter. Transient faults from an
//! installed `FaultPlan` degrade to retried hops exactly as on the plain
//! fabric; `Fault::Crash` windows go further and kill the scheduled host at
//! their virtual-clock instant, which is what the chaos tests drive.

use crate::replication::ReplicaMirror;
use crate::server::{DurableConfig, DurableServer};
use exacml_plus::{node_unavailable, ExacmlError, Fabric, FabricConfig, FabricNet, Placement};
use exacml_simnet::{Clock, NodeId};
use exacml_telemetry::{Metric, Stage};
use parking_lot::{Mutex, RwLock};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A brokering fabric of [`DurableServer`] nodes with WAL shipping and owner
/// failover: the one [`Fabric`] broker over the [`Replication`] layer. Build
/// it with [`Replication::create`]; the replication-only accessors are on
/// the layer, reached through [`Fabric::layer`].
pub type ReplicatedFabric = Fabric<Replication>;

/// Configuration of a replicated durable fabric: the fabric configuration
/// every shape shares, plus what only replication needs.
#[derive(Debug, Clone)]
pub struct ReplicatedConfig {
    /// Nodes, topology, seed, fault plan, and the per-node
    /// durable-store template (`dsms_host` and `seed` are overridden per
    /// node so URIs stay stable across failover).
    pub fabric: FabricConfig<DurableConfig>,
    /// Replication factor K: every logical node's journal is mirrored onto
    /// K peer hosts (clamped to `nodes - 1`). K = 0 disables replication —
    /// a dead host then loses its nodes exactly like the plain fabric.
    pub replication: usize,
    /// Root directory; host `p` stores its primary under `node{p}/store`
    /// and its mirror of logical node `i` under `node{p}/replica-of-{i}`.
    pub root: PathBuf,
}

/// Ship buffered ingest records after this many unshipped journal appends
/// (control-plane records always ship immediately), so a node's mirrors lag
/// it by fewer than this many ingest records.
const INGEST_SHIP_EVERY: u64 = 256;

impl ReplicatedConfig {
    /// A replicated fabric of `nodes` nodes under `root`, loopback links,
    /// K = 1.
    #[must_use]
    pub fn new(nodes: usize, root: impl Into<PathBuf>) -> Self {
        ReplicatedConfig {
            fabric: FabricConfig::local(nodes).with_server_template(DurableConfig::local()),
            replication: 1,
            root: root.into(),
        }
    }

    /// Adjust the shared fabric configuration (topology, seed, durable
    /// template, fault plan).
    #[must_use]
    pub fn with_fabric(
        mut self,
        adjust: impl FnOnce(FabricConfig<DurableConfig>) -> FabricConfig<DurableConfig>,
    ) -> Self {
        self.fabric = adjust(self.fabric);
        self
    }

    /// Override the replication factor K.
    #[must_use]
    pub fn with_replication(mut self, k: usize) -> Self {
        self.replication = k;
        self
    }

    /// The effective replication factor (K clamped to the peer count).
    #[must_use]
    pub fn effective_replication(&self) -> usize {
        self.replication.min(self.fabric.nodes.saturating_sub(1))
    }
}

/// Where a logical node currently lives.
struct Slot {
    server: Arc<DurableServer>,
    host: usize,
}

/// The shipping state of one logical node: its peer mirrors, the count of
/// ingest appends not yet shipped, and the RNG its ship round trips are
/// sampled on.
struct NodeShipper {
    mirrors: Vec<ReplicaMirror>,
    unshipped_ingest: u64,
    rng: StdRng,
}

/// The replicated placement layer: slots (logical node → server + host),
/// mirrors, shipping, failover and the crash schedule. See the module docs
/// for the failure model.
pub struct Replication {
    config: ReplicatedConfig,
    net: Arc<FabricNet>,
    /// Logical node `i` → its current server and physical host.
    slots: Vec<RwLock<Slot>>,
    /// Logical node `i` → its replication state.
    shippers: Vec<Mutex<NodeShipper>>,
    /// Physical host `p` → alive?
    hosts_alive: Vec<AtomicBool>,
    /// `Fault::Crash` windows already applied (edge-triggered kills).
    crashes_applied: Mutex<HashSet<usize>>,
}

impl Replication {
    /// Create a fresh replicated fabric: one durable store per node under
    /// `config.root`, mirrors attached to each node's K ring successors,
    /// the broker in front.
    ///
    /// # Errors
    /// Fails when `root` already holds stores, or on I/O errors.
    pub fn create(config: ReplicatedConfig) -> Result<ReplicatedFabric, ExacmlError> {
        let nodes = config.fabric.nodes;
        let mut slots = Vec::with_capacity(nodes);
        let mut shippers = Vec::with_capacity(nodes);
        for i in 0..nodes {
            let store = config.root.join(format!("node{i}")).join("store");
            let server = DurableServer::create(store, node_config(&config, i))?;
            slots.push(RwLock::new(Slot { server: Arc::new(server), host: i }));
            shippers.push(Mutex::new(NodeShipper {
                mirrors: mirrors_of(&config, i, i),
                unshipped_ingest: 0,
                rng: StdRng::seed_from_u64(config.fabric.seed.wrapping_mul(0x9e37_79b9) ^ i as u64),
            }));
        }
        let net = FabricNet::new(&config.fabric);
        let layer = Replication {
            net: Arc::clone(&net),
            slots,
            shippers,
            hosts_alive: (0..nodes).map(|_| AtomicBool::new(true)).collect(),
            crashes_applied: Mutex::new(HashSet::new()),
            config,
        };
        // Attach every mirror now: a node that dies before its first
        // control-plane operation must still leave a recoverable replica.
        layer.settle_replication();
        Ok(Fabric::assemble(nodes, layer.config.fabric.seed, net, layer))
    }

    /// The physical host a logical node currently lives on.
    #[must_use]
    pub fn host_of(&self, logical: usize) -> usize {
        self.slots[logical].read().host
    }

    /// The durable server currently backing a logical node (triggers
    /// failover when its host is dead).
    ///
    /// # Errors
    /// [`ExacmlError::NodeUnavailable`] when the node's host is dead and no
    /// live replica exists.
    pub fn node_server(&self, logical: usize) -> Result<Arc<DurableServer>, ExacmlError> {
        self.resolve(logical).map(|(server, _)| server)
    }

    /// Ship every node's outstanding journal bytes now (tests and benches
    /// call this to bound ingest lag before measuring or killing).
    pub fn settle_replication(&self) {
        for logical in 0..self.slots.len() {
            self.ship_node(logical, false);
        }
    }

    /// Apply `Fault::Crash` windows whose start the virtual clock has
    /// passed: each kills its host once (edge-triggered, like pulling the
    /// power at that instant).
    fn apply_crash_schedule(&self) {
        let Some(plan) = self.net.fault_plan() else { return };
        let now = self.net.clock().now_nanos();
        let mut applied = self.crashes_applied.lock();
        for (index, node, from, _) in plan.crash_windows() {
            if from <= now && applied.insert(index) {
                if let NodeId::Server(host) = node {
                    self.kill_host(host as usize);
                }
            }
        }
    }

    /// Move a logical node whose host died onto the first surviving peer
    /// holding its replica: replay the shipped journal through the ordinary
    /// recovery workflow, re-minting every live handle at its recorded URI,
    /// then re-attach fresh mirrors from the adopter.
    fn fail_over(&self, logical: usize) -> Result<(Arc<DurableServer>, usize), ExacmlError> {
        let mut slot = self.slots[logical].write();
        // Another thread may have completed the failover while we waited.
        if self.host_is_alive(slot.host) {
            return Ok((Arc::clone(&slot.server), slot.host));
        }
        let mut shipper = self.shippers[logical].lock();
        let (adopter, replica) = shipper
            .mirrors
            .iter()
            .find(|mirror| self.host_is_alive(mirror.host()))
            .map(|mirror| (mirror.host(), mirror.dir().to_path_buf()))
            .ok_or_else(|| {
                node_unavailable(
                    logical,
                    format!(
                        "host {} is dead and no live replica remains (K = {})",
                        slot.host,
                        self.config.effective_replication()
                    ),
                )
            })?;
        let recovered = DurableServer::recover_with(replica, node_config(&self.config, logical))?;
        let telemetry = self.net.telemetry();
        telemetry.incr(Metric::Failovers);
        telemetry.add(Metric::HandlesReminted, recovered.inner().grant_count() as u64);
        slot.server = Arc::new(recovered);
        slot.host = adopter;
        // The adopter's former mirror directory is now the primary store;
        // re-home the replica set on the adopter's ring successors.
        shipper.mirrors = mirrors_of(&self.config, logical, adopter);
        shipper.unshipped_ingest = 0;
        let placed = (Arc::clone(&slot.server), adopter);
        drop(slot);
        drop(shipper);
        self.ship_node(logical, true);
        Ok(placed)
    }

    /// Ship a logical node's journal to its mirrors. `sync` ships charge
    /// the link's round trip on the virtual clock (the broker waits for the
    /// ack); batched ingest ships do not (they model a background pipe).
    /// A mirror behind a dead host or an exhausted fault window is skipped
    /// — the batch stays pending, the lag gauge grows and the skip counts as
    /// a `replica_ship_retries`, like a failed ship.
    fn ship_node(&self, logical: usize, sync: bool) {
        let slot = self.slots[logical].read();
        if !self.host_is_alive(slot.host) {
            return;
        }
        let from = NodeId::Server(slot.host as u16);
        let mut shipper = self.shippers[logical].lock();
        let NodeShipper { mirrors, unshipped_ingest, rng } = &mut *shipper;
        *unshipped_ingest = 0;
        let telemetry = self.net.telemetry();
        for mirror in mirrors {
            let to = NodeId::Server(mirror.host() as u16);
            if !self.host_is_alive(mirror.host()) || !self.net.await_link(from, to).1 {
                telemetry.incr(Metric::ReplicaShipRetries);
                continue;
            }
            // Shipping flushes the primary's journal and copies its new
            // bytes — real I/O, timed on the wall clock like WAL appends
            // (the *round trip* charged below for sync ships stays on the
            // virtual clock). A primary whose journal failed cannot even
            // flush: the ship fails and its mirrors keep whatever they
            // acknowledged last.
            let started = telemetry.is_enabled().then(Instant::now);
            let shipped = mirror.ship_from(&slot.server);
            if let Some(started) = started {
                telemetry.record(Stage::ReplicaShip, started.elapsed());
            }
            match shipped {
                Ok(outcome) if outcome.shipped_anything() => {
                    telemetry.incr(Metric::ReplicaBatchesShipped);
                    if sync {
                        let bytes = outcome.wal_bytes as usize;
                        self.net.clock().advance(self.net.round_trip(from, to, bytes, 64, rng));
                    }
                }
                Ok(_) => {}
                Err(_) => telemetry.incr(Metric::ReplicaShipRetries),
            }
        }
    }
}

impl Placement for Replication {
    type Server = DurableServer;

    fn backend_kind(&self) -> String {
        "fabric-replicated".to_string()
    }

    fn current(&self, logical: usize) -> (Arc<DurableServer>, usize) {
        let slot = self.slots[logical].read();
        (Arc::clone(&slot.server), slot.host)
    }

    fn host_is_alive(&self, host: usize) -> bool {
        self.hosts_alive.get(host).is_some_and(|alive| alive.load(Ordering::Relaxed))
    }

    /// The node's server, failing over first when its host is dead.
    fn resolve(&self, logical: usize) -> Result<(Arc<DurableServer>, usize), ExacmlError> {
        self.apply_crash_schedule();
        let (server, host) = self.current(logical);
        if self.host_is_alive(host) {
            Ok((server, host))
        } else {
            self.fail_over(logical)
        }
    }

    /// Ship synchronously: whatever the operation journaled — a grant, a
    /// policy change, or just the audit record of a refusal — is on K+1
    /// disks before the broker answers.
    fn control_committed(&self, logical: usize) {
        self.ship_node(logical, true);
    }

    /// Count ingest records appended to the node's journal and ship them
    /// once the threshold is reached.
    fn ingest_committed(&self, logical: usize, records: u64) {
        let due = {
            let mut shipper = self.shippers[logical].lock();
            shipper.unshipped_ingest += records;
            shipper.unshipped_ingest >= INGEST_SHIP_EVERY
        };
        if due {
            self.ship_node(logical, false);
        }
    }

    /// Kill a physical host: its disk becomes unreachable, every logical
    /// node it hosts fails over to a surviving replica on its next touch,
    /// and mirrors it held stop acknowledging ships (lag grows).
    fn kill_host(&self, host: usize) {
        if let Some(alive) = self.hosts_alive.get(host) {
            alive.store(false, Ordering::Relaxed);
        }
    }

    /// Bring a physical host back, *empty*: whatever its disk held when it
    /// died is stale (failover moved its nodes elsewhere, journals moved
    /// on), so every mirror it hosts is re-attached from scratch on the
    /// next ship. The host immediately starts accepting mirrors again.
    fn restart_host(&self, host: usize) {
        let Some(alive) = self.hosts_alive.get(host) else { return };
        alive.store(true, Ordering::Relaxed);
        for shipper in &self.shippers {
            for mirror in shipper.lock().mirrors.iter_mut().filter(|m| m.host() == host) {
                mirror.detach();
            }
        }
    }

    fn replication_lag(&self) -> u64 {
        let mut lag = 0u64;
        for (slot, shipper) in self.slots.iter().zip(&self.shippers) {
            let seq = slot.read().server.journal_seq();
            for mirror in &shipper.lock().mirrors {
                lag += seq.saturating_sub(mirror.acked_seq());
            }
        }
        lag
    }
}

/// The durable-store configuration of logical node `i`: the template with
/// the node's stable host name (so handle URIs survive failover verbatim)
/// and a node-specific seed.
fn node_config(config: &ReplicatedConfig, logical: usize) -> DurableConfig {
    DurableConfig {
        dsms_host: format!("node{logical}"),
        seed: config.fabric.seed.wrapping_add(1 + logical as u64),
        ..config.fabric.server_template.clone()
    }
}

/// Detached mirrors of logical node `logical`, whose primary lives on
/// `host`: one per ring successor of `host` (skipping the node's home host
/// `logical`), K in all, each under `node{p}/replica-of-{logical}`.
fn mirrors_of(config: &ReplicatedConfig, logical: usize, host: usize) -> Vec<ReplicaMirror> {
    let nodes = config.fabric.nodes;
    (1..nodes)
        .map(|step| (host + step) % nodes)
        .filter(|&peer| peer != logical)
        .take(config.effective_replication())
        .map(|peer| ReplicaMirror::new(peer, replica_dir(&config.root, peer, logical)))
        .collect()
}

/// The replica directory of logical node `logical` on physical host `host`.
fn replica_dir(root: &Path, host: usize, logical: usize) -> PathBuf {
    root.join(format!("node{host}")).join(format!("replica-of-{logical}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use exacml_dsms::{Schema, StreamHandle, Tuple};
    use exacml_plus::{StreamBatch, StreamPolicyBuilder, UserQuery};
    use exacml_xacml::{Policy, Request};

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("exacml-repfab-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn weather_policy(id: &str) -> Policy {
        StreamPolicyBuilder::new(id, "weather").subject("LTA").filter("rainrate > 5").build()
    }

    /// The broker's part of the fabric's telemetry.
    fn broker_part(fabric: &ReplicatedFabric) -> exacml_telemetry::TelemetrySnapshot {
        fabric.telemetry().nodes.swap_remove(0)
    }

    fn owner_index(fabric: &ReplicatedFabric, stream: &str) -> usize {
        let NodeId::Server(owner) = fabric.owner_of(stream) else {
            panic!("expected a server node")
        };
        owner as usize
    }

    #[test]
    fn grants_survive_killing_their_host() {
        let root = temp_root("failover");
        let fabric = Replication::create(ReplicatedConfig::new(3, &root)).unwrap();
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
        assert_ne!(fabric.layer().host_of(owner), owner, "the logical node moved hosts");
        let broker = broker_part(&fabric);
        assert_eq!(broker.counter(Metric::Failovers), 1);
        assert_eq!(broker.counter(Metric::HandlesReminted), 1);

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
            Replication::create(ReplicatedConfig::new(2, &root).with_replication(0)).unwrap();
        fabric.register_stream("weather", Schema::weather_example()).unwrap();
        let owner = owner_index(&fabric, "weather");
        fabric.kill_node(owner);
        let err = fabric.register_stream("gps", Schema::gps_example()).err();
        let err = match err {
            Some(e) if matches!(e, ExacmlError::NodeUnavailable { .. }) => e,
            // "gps" may be owned by the surviving node; the dead one must
            // still fail typed.
            _ => fabric
                .layer()
                .node_server(owner)
                .err()
                .expect("dead host without replicas must be unavailable"),
        };
        assert!(err.to_string().contains("unavailable"));
    }

    #[test]
    fn replication_lag_is_bounded_by_the_ship_threshold() {
        let root = temp_root("lag");
        let fabric = Replication::create(ReplicatedConfig::new(2, &root)).unwrap();
        fabric.register_stream("weather", Schema::weather_example()).unwrap();
        let schema = Schema::weather_example().shared();
        // Two nodes with one mirror each: the summed lag stays below twice
        // the threshold. 600 pushes cross it twice.
        let bound = 2 * INGEST_SHIP_EVERY;
        for i in 0..600i64 {
            let tuple = Tuple::builder_shared(&schema)
                .set("samplingtime", exacml_dsms::Value::Timestamp(i * 30_000))
                .set("rainrate", 10.0)
                .finish_with_defaults();
            fabric.push("weather", tuple).unwrap();
            assert!(fabric.layer().replication_lag() < bound, "lag after push {i}");
        }

        // Multi-stream frames append one record per stream batch; each one
        // counts towards the threshold, not each call: counted per call, 100
        // frames of 600 records would never reach it.
        let streams: Vec<String> = (0..6).map(|i| format!("district{i}")).collect();
        for stream in &streams {
            fabric.register_stream(stream, Schema::weather_example()).unwrap();
        }
        for frame in 0..100i64 {
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
            assert!(fabric.layer().replication_lag() < bound, "lag after frame {frame}");
        }

        // Settling clears it.
        fabric.layer().settle_replication();
        assert_eq!(fabric.layer().replication_lag(), 0);
        assert!(broker_part(&fabric).counter(Metric::ReplicaBatchesShipped) > 0);
    }

    #[test]
    fn killed_then_restarted_host_reattaches_as_a_mirror() {
        let root = temp_root("restart");
        let fabric =
            Replication::create(ReplicatedConfig::new(3, &root).with_fabric(|f| f.with_seed(7)))
                .unwrap();
        fabric.register_stream("weather", Schema::weather_example()).unwrap();
        let owner = owner_index(&fabric, "weather");
        fabric.kill_node(owner);
        fabric.load_policy(weather_policy("p")).unwrap(); // triggers failover of the owner
        assert_eq!(broker_part(&fabric).counter(Metric::Failovers), 1);

        fabric.restart_node(owner);
        fabric.load_policy(weather_policy("p2")).unwrap();
        fabric.layer().settle_replication();
        // The restarted host acknowledged fresh ships: lag is zero again
        // and no host is degraded.
        assert_eq!(fabric.layer().replication_lag(), 0);
        assert!(fabric.degraded_nodes().is_empty());
        assert_eq!(fabric.policy_count(), 2);
    }
}
