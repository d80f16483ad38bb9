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
//!   always on K+1 disks), ingest records continuously from one background
//!   ship pump, and inline from the ingest call that finds
//!   `INGEST_SHIP_EVERY` records unshipped (bounded lag, surfaced as
//!   `BackendHealth::replication_lag_records`);
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
use exacml_simnet::NodeId;
use exacml_telemetry::{Metric, Stage};
use parking_lot::{Mutex, RwLock};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
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

/// An ingest call that finds this many of its node's journal appends
/// unshipped ships them itself (control-plane records always ship
/// immediately, the pump ships whatever it reaches first), so a node's
/// reachable mirrors lag it by fewer than this many ingest records.
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

/// The shipping state of one logical node: its peer mirrors and the RNG
/// its barrier ships sample round trips on.
struct NodeShipper {
    mirrors: Vec<ReplicaMirror>,
    rng: StdRng,
}

/// How a ship treats the network.
#[derive(Debug, Clone, Copy)]
enum Ship {
    /// The broker waits for it (a control operation, a failover, a settle)
    /// until every reachable mirror has acknowledged journal sequence
    /// `upto`; a mirror the pump already brought that far is not shipped
    /// to again. Fault windows are waited out in virtual time, a mirror it
    /// cannot reach counts one `replica_ship_retries`, and each
    /// acknowledging mirror charges one round trip for `charged` bytes
    /// (none when 0).
    Barrier { charged: u64, upto: u64 },
    /// Ingest bytes moving behind the broker's back (the pump, or an ingest
    /// call at the threshold): links are checked, never waited on; an
    /// unreachable mirror is skipped silently; nothing is charged. A
    /// background ship never touches virtual time.
    Background,
}

/// What the broker's calls and the ship pump share.
struct Shared {
    config: ReplicatedConfig,
    net: Arc<FabricNet>,
    /// Logical node `i` → its current server and physical host.
    slots: Vec<RwLock<Slot>>,
    /// Logical node `i` → its replication state.
    shippers: Vec<Mutex<NodeShipper>>,
    /// Logical node `i` → ingest records appended but not yet acknowledged
    /// by every live mirror (an upper bound: records a ship carried after
    /// it read the count stay counted until the next one).
    unshipped_ingest: Vec<AtomicU64>,
    /// Physical host `p` → alive?
    hosts_alive: Vec<AtomicBool>,
}

/// The background ship pump: one thread that ships every node with
/// unshipped ingest whenever an ingest call rings, so mirrors follow their
/// primaries continuously and a control operation's barrier ship finds
/// only its own record group left to move.
struct Pump {
    doorbell: SyncSender<()>,
    thread: JoinHandle<()>,
}

/// The replicated placement layer: slots (logical node → server + host),
/// mirrors, shipping, failover and the crash schedule. See the module docs
/// for the failure model.
pub struct Replication {
    shared: Arc<Shared>,
    /// `None` only while the layer drops.
    pump: Option<Pump>,
    /// `Fault::Crash` windows already applied (edge-triggered kills).
    crashes_applied: Mutex<HashSet<usize>>,
}

impl Replication {
    /// Create a fresh replicated fabric: one durable store per node under
    /// `config.root`, mirrors attached to each node's K ring successors,
    /// the ship pump started, the broker in front.
    ///
    /// # Errors
    /// Fails when `root` already holds stores, on I/O errors, or when the
    /// pump thread cannot be started.
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
                rng: StdRng::seed_from_u64(config.fabric.seed.wrapping_mul(0x9e37_79b9) ^ i as u64),
            }));
        }
        let net = FabricNet::new(&config.fabric);
        let seed = config.fabric.seed;
        let shared = Arc::new(Shared {
            net: Arc::clone(&net),
            slots,
            shippers,
            unshipped_ingest: (0..nodes).map(|_| AtomicU64::new(0)).collect(),
            hosts_alive: (0..nodes).map(|_| AtomicBool::new(true)).collect(),
            config,
        });
        // Attach every mirror now: a node that dies before its first
        // control-plane operation must still leave a recoverable replica.
        shared.settle();
        let pump = Pump::start(Arc::clone(&shared))?;
        let layer =
            Replication { shared, pump: Some(pump), crashes_applied: Mutex::new(HashSet::new()) };
        Ok(Fabric::assemble(nodes, seed, net, layer))
    }

    /// The physical host a logical node currently lives on.
    #[must_use]
    pub fn host_of(&self, logical: usize) -> usize {
        self.shared.slots[logical].read().host
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
        self.shared.settle();
    }

    /// Apply `Fault::Crash` windows whose start the virtual clock has
    /// passed: each kills its host once (edge-triggered, like pulling the
    /// power at that instant).
    fn apply_crash_schedule(&self) {
        let net = &self.shared.net;
        let Some(plan) = net.fault_plan() else { return };
        let now = net.clock().now_nanos();
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
        let shared = &*self.shared;
        let mut slot = shared.slots[logical].write();
        // Another thread may have completed the failover while we waited.
        if shared.host_is_alive(slot.host) {
            return Ok((Arc::clone(&slot.server), slot.host));
        }
        let mut shipper = shared.shippers[logical].lock();
        let (adopter, replica) = shipper
            .mirrors
            .iter()
            .find(|mirror| shared.host_is_alive(mirror.host()))
            .map(|mirror| (mirror.host(), mirror.dir().to_path_buf()))
            .ok_or_else(|| {
                node_unavailable(
                    logical,
                    format!(
                        "host {} is dead and no live replica remains (K = {})",
                        slot.host,
                        shared.config.effective_replication()
                    ),
                )
            })?;
        let recovered = DurableServer::recover_with(replica, node_config(&shared.config, logical))?;
        let telemetry = shared.net.telemetry();
        telemetry.incr(Metric::Failovers);
        telemetry.add(Metric::HandlesReminted, recovered.inner().grant_count() as u64);
        // The new mirrors attach with the whole adopted journal.
        let charged = std::fs::metadata(recovered.wal_path()).map_or(0, |meta| meta.len());
        let upto = recovered.journal_seq();
        slot.server = Arc::new(recovered);
        slot.host = adopter;
        // The adopter's former mirror directory is now the primary store;
        // re-home the replica set on the adopter's ring successors.
        shipper.mirrors = mirrors_of(&shared.config, logical, adopter);
        shared.unshipped_ingest[logical].store(0, Ordering::Release);
        let placed = (Arc::clone(&slot.server), adopter);
        drop(slot);
        drop(shipper);
        shared.ship_node(logical, Ship::Barrier { charged, upto });
        Ok(placed)
    }
}

impl Drop for Replication {
    /// Stop the pump: dropping the doorbell ends its loop once the pass in
    /// progress finishes.
    fn drop(&mut self) {
        if let Some(Pump { doorbell, thread }) = self.pump.take() {
            drop(doorbell);
            let _ = thread.join();
        }
    }
}

impl Pump {
    /// Start the pump thread over `shared`.
    fn start(shared: Arc<Shared>) -> Result<Pump, ExacmlError> {
        let (doorbell, rings) = sync_channel(1);
        let thread = std::thread::Builder::new()
            .name("replica-ship-pump".to_string())
            .spawn(move || {
                while rings.recv().is_ok() {
                    for logical in 0..shared.slots.len() {
                        if shared.unshipped_ingest[logical].load(Ordering::Acquire) > 0 {
                            shared.ship_node(logical, Ship::Background);
                        }
                    }
                }
            })
            .map_err(|e| ExacmlError::Durability(format!("start the replica ship pump: {e}")))?;
        Ok(Pump { doorbell, thread })
    }
}

impl Shared {
    fn host_is_alive(&self, host: usize) -> bool {
        self.hosts_alive.get(host).is_some_and(|alive| alive.load(Ordering::Relaxed))
    }

    /// Ship every node, waiting on its mirrors.
    fn settle(&self) {
        for logical in 0..self.slots.len() {
            let upto = self.slots[logical].read().server.journal_seq();
            self.ship_node(logical, Ship::Barrier { charged: 0, upto });
        }
    }

    /// Ship a logical node's journal to its mirrors, treating the network
    /// as `ship` says. A mirror on a dead host is skipped. The node's
    /// unshipped-ingest count drops by what it read before the ship only
    /// once every mirror on a live host has been shipped to, so a skipped
    /// or failed ship forgets nothing.
    fn ship_node(&self, logical: usize, ship: Ship) {
        let slot = self.slots[logical].read();
        if !self.host_is_alive(slot.host) {
            return;
        }
        let from = NodeId::Server(slot.host as u16);
        let mut shipper = self.shippers[logical].lock();
        let NodeShipper { mirrors, rng } = &mut *shipper;
        // Read before the ship's mark: every record counted so far was
        // appended before it, so a ship below carries all of them.
        let counted = self.unshipped_ingest[logical].load(Ordering::Acquire);
        let telemetry = self.net.telemetry();
        let mut carried = true;
        for mirror in mirrors {
            let to = NodeId::Server(mirror.host() as u16);
            let alive = self.host_is_alive(mirror.host());
            let reachable = alive
                && match ship {
                    Ship::Barrier { .. } => self.net.await_link(from, to).1,
                    Ship::Background => !self.net.link_down(from, to),
                };
            if !reachable {
                if matches!(ship, Ship::Barrier { .. }) {
                    telemetry.incr(Metric::ReplicaShipRetries);
                }
                // A dead mirror host holds nothing back: it re-attaches
                // from scratch when it restarts.
                carried &= !alive;
                continue;
            }
            let due = match ship {
                Ship::Barrier { upto, .. } => mirror.acked_seq() < upto,
                Ship::Background => true,
            };
            if due {
                // Shipping flushes the primary's journal and copies its new
                // bytes — real I/O, timed on the wall clock like WAL
                // appends (the *round trip* charged below for barrier ships
                // stays on the virtual clock). A primary whose journal
                // failed cannot even flush: the ship fails and its mirrors
                // keep whatever they acknowledged last.
                let started = telemetry.is_enabled().then(Instant::now);
                let shipped = mirror.ship_from(&slot.server);
                if let Some(started) = started {
                    telemetry.record(Stage::ReplicaShip, started.elapsed());
                }
                match shipped {
                    Ok(outcome) if outcome.shipped_anything() => {
                        telemetry.incr(Metric::ReplicaBatchesShipped);
                    }
                    Ok(_) => {}
                    Err(_) => {
                        telemetry.incr(Metric::ReplicaShipRetries);
                        carried = false;
                        continue;
                    }
                }
            } else {
                carried = false;
            }
            // The charge is for the operation's own bytes, whether this ship
            // or an earlier background one carried them: virtual time never
            // depends on how far the pump got.
            if let Ship::Barrier { charged, .. } = ship {
                if charged > 0 {
                    let trip = self.net.round_trip(from, to, charged as usize, 64, rng);
                    self.net.clock().advance(trip);
                }
            }
        }
        if carried {
            self.unshipped_ingest[logical].fetch_sub(counted, Ordering::AcqRel);
        }
    }
}

impl Placement for Replication {
    type Server = DurableServer;

    fn backend_kind(&self) -> String {
        "fabric-replicated".to_string()
    }

    fn current(&self, logical: usize) -> (Arc<DurableServer>, usize) {
        let slot = self.shared.slots[logical].read();
        (Arc::clone(&slot.server), slot.host)
    }

    fn host_is_alive(&self, host: usize) -> bool {
        self.shared.host_is_alive(host)
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
    /// policy change, or the event record of a refusal — is on K+1
    /// disks before the broker answers. The round trip charged is for the
    /// operation's own record group.
    fn control_committed(&self, logical: usize) {
        let group = self.shared.slots[logical].read().server.last_control_group();
        self.shared.ship_node(logical, Ship::Barrier { charged: group.bytes, upto: group.end_seq });
    }

    /// Count ingest records appended to the node's journal: ship them inline
    /// once the threshold is reached, otherwise ring the pump.
    fn ingest_committed(&self, logical: usize, records: u64) {
        // A refused ingest call appended nothing and rings nothing.
        if records == 0 {
            return;
        }
        let unshipped =
            self.shared.unshipped_ingest[logical].fetch_add(records, Ordering::AcqRel) + records;
        if unshipped >= INGEST_SHIP_EVERY {
            self.shared.ship_node(logical, Ship::Background);
        } else if let Some(pump) = &self.pump {
            // A full doorbell means a pass is already due.
            let _ = pump.doorbell.try_send(());
        }
    }

    /// Kill a physical host: its disk becomes unreachable, every logical
    /// node it hosts fails over to a surviving replica on its next touch,
    /// and mirrors it held stop acknowledging ships (lag grows).
    fn kill_host(&self, host: usize) {
        if let Some(alive) = self.shared.hosts_alive.get(host) {
            alive.store(false, Ordering::Relaxed);
        }
    }

    /// Bring a physical host back, *empty*: whatever its disk held when it
    /// died is stale (failover moved its nodes elsewhere, journals moved
    /// on), so every mirror it hosts is re-attached from scratch on the
    /// next ship. The host immediately starts accepting mirrors again.
    fn restart_host(&self, host: usize) {
        let Some(alive) = self.shared.hosts_alive.get(host) else { return };
        alive.store(true, Ordering::Relaxed);
        for shipper in &self.shared.shippers {
            for mirror in shipper.lock().mirrors.iter_mut().filter(|m| m.host() == host) {
                mirror.detach();
            }
        }
    }

    fn replication_lag(&self) -> u64 {
        let mut lag = 0u64;
        for (slot, shipper) in self.shared.slots.iter().zip(&self.shared.shippers) {
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
    use exacml_plus::{Backend, StreamBatch, StreamPolicyBuilder, UserQuery};
    use exacml_xacml::{Policy, Request};

    fn temp_root(tag: &str) -> (PathBuf, crate::tests::RemoveOnDrop) {
        crate::tests::temp_dir(&format!("repfab-{tag}"))
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
        let (root, _guard) = temp_root("failover");
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
        let (root, _guard) = temp_root("no-replica");
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
        let (root, _guard) = temp_root("lag");
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

    fn rainy(schema: &Arc<Schema>, i: i64) -> Tuple {
        Tuple::builder_shared(schema)
            .set("samplingtime", exacml_dsms::Value::Timestamp(i * 30_000))
            .set("rainrate", 10.0)
            .finish_with_defaults()
    }

    #[test]
    fn a_skipped_ship_keeps_its_records_pending() {
        use exacml_simnet::{Fault, FaultPlan};
        use std::time::Duration;
        let (root, _guard) = temp_root("skipped");
        let window = (Duration::from_millis(100), Duration::from_millis(1_100));
        let plan = FaultPlan::new().inject(
            Fault::LinkDrop { a: NodeId::Server(0), b: NodeId::Server(1) },
            window.0,
            window.1,
        );
        let fabric = Replication::create(
            ReplicatedConfig::new(2, &root).with_fabric(|f| f.with_fault_plan(Arc::new(plan))),
        )
        .unwrap();
        fabric.register_stream("weather", Schema::weather_example()).unwrap();
        let schema = Schema::weather_example().shared();
        let now = || Duration::from_nanos(fabric.clock().now_nanos());
        fabric.advance(window.0 - now());
        // The only link between the two hosts is down: nothing ships, the
        // threshold is crossed, and every record stays unshipped.
        for i in 0..300 {
            fabric.push("weather", rainy(&schema, i)).unwrap();
        }
        assert!(now() < window.1, "the pushes ran inside the window");
        assert_eq!(fabric.layer().replication_lag(), 300);

        // Once the link is back, the next ingest call finds all 301 records
        // pending and ships them inline.
        fabric.advance(window.1 - now());
        fabric.push("weather", rainy(&schema, 300)).unwrap();
        assert_eq!(fabric.layer().replication_lag(), 0);
        // Background ships wait on nothing and count no retries.
        assert_eq!(broker_part(&fabric).counter(Metric::ReplicaShipRetries), 0);
    }

    #[test]
    fn the_pump_drains_the_lag_without_help() {
        let (root, _guard) = temp_root("pump");
        let fabric = Replication::create(ReplicatedConfig::new(3, &root)).unwrap();
        fabric.register_stream("weather", Schema::weather_example()).unwrap();
        let schema = Schema::weather_example().shared();
        for i in 0..100 {
            fabric.push("weather", rainy(&schema, i)).unwrap();
        }
        // Below the threshold no ingest call ships; only the pump can.
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while fabric.layer().replication_lag() > 0 {
            assert!(Instant::now() < deadline, "the pump left the lag standing");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(broker_part(&fabric).counter(Metric::ReplicaBatchesShipped) > 0);
        assert_eq!(broker_part(&fabric).counter(Metric::ReplicaShipRetries), 0);
    }

    #[test]
    fn killed_then_restarted_host_reattaches_as_a_mirror() {
        let (root, _guard) = temp_root("restart");
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
