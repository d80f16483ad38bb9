//! The continuous-query engine.
//!
//! This is the part of StreamBase the eXACML+ framework talks to: it
//! registers input streams, accepts query-graph deployments (returning a
//! [`StreamHandle`] for the derived output stream), pushes source tuples
//! through every deployed graph and delivers derived tuples to subscribers,
//! and withdraws deployments when the policy layer revokes them
//! (Section 3.3 — "whenever a policy has been removed or modified, all query
//! graphs that are spawned by the policy are immediately withdrawn").
//!
//! # Concurrency
//!
//! The engine is internally synchronized and every operation takes `&self`:
//! callers share one engine behind an `Arc` with no external lock. State is
//! **sharded by input stream** — each registered stream owns a `Shard`
//! whose deployments are protected by their own mutex — so pushes to
//! different streams proceed in parallel and only pushes to the *same*
//! stream serialize (they must: window buffers are order-sensitive).
//! Cross-shard indexes (handle → deployment, deployment → stream) live in
//! `RwLock`ed maps that pushes only ever read-lock briefly, and counters live
//! in the engine's sharded telemetry registry. [`StreamEngine::push_batch`]
//! amortizes the shard lookup and lock acquisition over a whole batch of
//! tuples.
//!
//! # The batch is the unit of work
//!
//! A push — one tuple or a batch — runs each deployment **stage-at-a-time**
//! over the whole input slice, then hands every subscriber **one**
//! `Vec<Tuple>` holding what its residual let through (nothing at all when
//! that is empty): one inbox append per subscriber per batch, not per tuple.
//! The inbox is a `Vec<Tuple>` the engine and the subscriber's
//! [`TupleReceiver`] share; the receiver takes everything waiting in one
//! move ([`TupleReceiver::take_all`], [`TupleReceiver::try_iter`]). Because
//! the engine holds the inbox, withdrawing or retiring a handle empties it:
//! nothing a revoked grant had not yet taken stays readable (Section 3.3).
//! A linear chain's output sequence depends only on its input sequence, so
//! how a stream is cut into batches never changes what a subscriber
//! receives.
//!
//! # Filters select, they don't copy
//!
//! Operator chains are compiled at deploy time (`compiled.rs`), so
//! attribute positions are resolved once. Each stream's shard keeps one
//! column cache: the `f64` view of a column is built once per push, in
//! buffers kept from the last push, and read by every filter and residual
//! rider of every deployment on the stream. A filter stage moves no row: it
//! refines a selection (a flag per row) over the batch it reads. A map or an
//! aggregation reads the selected rows by position. A rider of a filter
//! chain ANDs its residual's flags, read from the same source columns, into
//! the chain's. Flags become positions in one branch-free compaction, and
//! a row is cloned only when it is delivered: a [`Tuple`] is a single
//! `Arc` pointer, so fan-out to N deployments and M subscribers costs one
//! reference-count operation per tuple a subscriber actually receives.
//!
//! The delivered type stays `Vec<Tuple>` on purpose. Consumers drain it as
//! a `Vec<Tuple>`, so a shared delivered-batch type would only move each
//! clone from the push to the drain.

use crate::catalog::{StreamCatalog, StreamHandle};
use crate::compiled::{
    gather, ColumnBuffers, Columns, CompiledResidual, CompiledStage, ResidualSpec, Selection,
};
use crate::error::DsmsError;
use crate::graph::QueryGraph;
use crate::schema::Schema;
use crate::tuple::Tuple;
use exacml_telemetry::{Metric, Stage, Telemetry};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Identifier of one deployed query graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeploymentId(pub u64);

impl std::fmt::Display for DeploymentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deployment-{}", self.0)
    }
}

/// Public description of a successful deployment.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// Engine-assigned identifier.
    pub id: DeploymentId,
    /// Handle (URI) of the derived output stream.
    pub output_handle: StreamHandle,
    /// Schema of the derived output stream.
    pub output_schema: Arc<Schema>,
}

/// The derived tuples waiting for one subscriber, in emission order. The
/// engine's slot and the subscriber's [`TupleReceiver`] hold the only two
/// references, so a strong count of 1 means the other side has gone.
type Inbox = Arc<Mutex<Vec<Tuple>>>;

/// The receiving half of a subscription: derived tuples in emission order.
///
/// Dropping it unsubscribes: the engine prunes the slot on the next push.
/// Once its handle is withdrawn or retired the receiver stays empty.
pub struct TupleReceiver {
    inbox: Inbox,
}

impl TupleReceiver {
    /// Every tuple queued now, one at a time: [`TupleReceiver::take_all`]
    /// as an iterator.
    pub fn try_iter(&self) -> impl Iterator<Item = Tuple> {
        self.take_all().into_iter()
    }

    /// Everything queued, in order, leaving the inbox empty. A batch that
    /// found the inbox empty is moved out as the engine built it.
    pub fn take_all(&self) -> Vec<Tuple> {
        std::mem::take(&mut *self.inbox.lock())
    }

    /// Whether the engine still holds this subscriber's slot: `false` once
    /// the handle was withdrawn or retired (or the engine dropped), after
    /// which nothing more is delivered here.
    #[must_use]
    pub fn is_attached(&self) -> bool {
        Arc::strong_count(&self.inbox) > 1
    }
}

/// One subscriber of a deployment's output: the handle it subscribed
/// through, its inbox, and the per-grant residual (if the handle was
/// attached with one) applied to each batch before delivery.
struct SubscriberSlot {
    handle: StreamHandle,
    inbox: Inbox,
    residual: Option<Arc<CompiledResidual>>,
}

impl SubscriberSlot {
    /// Empty the inbox of a slot that is being removed; returns how many
    /// tuples it held.
    fn discard(&self) -> usize {
        std::mem::take(&mut *self.inbox.lock()).len()
    }
}

/// Runtime state of one deployed query graph.
struct DeploymentState {
    id: DeploymentId,
    stages: Vec<CompiledStage>,
    output_handle: StreamHandle,
    output_schema: Arc<Schema>,
    /// Per-grant handles attached via [`StreamEngine::attach_handle`]
    /// (the primary `output_handle` is not in this list).
    attached: Vec<StreamHandle>,
    subscribers: Vec<SubscriberSlot>,
    emitted: u64,
    /// Reusable buffers, empty or stale between batches: the working set
    /// allocates little once the deployment has warmed up. `current` holds
    /// the rows the last map or aggregation derived, `next` receives the
    /// following one's; `selection` is what the chain keeps of the batch
    /// it reads, `rider` a residual rider's share of it.
    current: Vec<Tuple>,
    next: Vec<Tuple>,
    selection: Selection,
    rider: Selection,
}

impl DeploymentState {
    /// Push a source batch through the compiled chain, one stage at a time,
    /// deliver the derived tuples to the live subscribers, and return how
    /// many were emitted.
    ///
    /// `source` is the batch with the column cache every deployment on the
    /// shard shares. Leading filters select from it without moving a row;
    /// the first map or aggregation derives rows into `current` from the
    /// selected ones, and later stages read those. The chain's output is
    /// therefore a batch plus a selection over it, and each rider's share
    /// is that selection ANDed with its residual's flags — read from the
    /// same cache as the chain's, since a filter never changes the schema.
    ///
    /// Slots whose receiver was dropped are removed first, on every batch
    /// whether it emits or not. Each remaining subscriber gets one `Vec` per
    /// batch, sized to what it receives: a delivered tuple costs one
    /// reference-count bump (or one projected row), a rejected one nothing
    /// beyond its flags, and an empty batch no inbox access at all. The
    /// shared chain above runs once either way.
    fn process_and_fan_out(&mut self, source: &mut Columns<'_>) -> usize {
        self.subscribers.retain(|slot| Arc::strong_count(&slot.inbox) > 1);

        let DeploymentState { stages, subscribers, current, next, selection, rider, .. } = self;
        selection.reset();
        let mut derived = false;
        for stage in stages.iter_mut() {
            let moved = if derived {
                stage.process_batch(&mut Columns::new(current), selection, next)
            } else {
                stage.process_batch(source, selection, next)
            };
            if moved {
                std::mem::swap(current, next);
                next.clear();
                derived = true;
                if current.is_empty() {
                    break;
                }
            }
        }

        let emitted = if derived {
            fan_out(subscribers, &mut Columns::new(current), selection, rider)
        } else {
            fan_out(subscribers, source, selection, rider)
        };
        self.emitted += emitted as u64;
        current.clear();
        emitted
    }
}

/// Append each subscriber's share of the rows of `columns` that `selection`
/// keeps to its inbox: moved into an empty inbox, extending a non-empty
/// one. Returns how many rows the selection keeps.
fn fan_out(
    subscribers: &[SubscriberSlot],
    columns: &mut Columns<'_>,
    selection: &mut Selection,
    rider: &mut Selection,
) -> usize {
    let chain = selection.settle();
    let emitted = chain.map_or(columns.rows().len(), |picked| picked.positions.len());
    if emitted == 0 {
        return 0;
    }
    for slot in subscribers {
        let batch: Vec<Tuple> = match &slot.residual {
            None => gather(columns.rows(), chain.map(|p| p.positions), Tuple::clone),
            Some(residual) => residual.apply(columns, chain, rider),
        };
        if !batch.is_empty() {
            let mut inbox = slot.inbox.lock();
            if inbox.is_empty() {
                *inbox = batch;
            } else {
                inbox.extend(batch);
            }
        }
    }
    emitted
}

/// Per-stream shard: the stream's schema plus what its lock guards.
struct Shard {
    schema: Arc<Schema>,
    state: Mutex<ShardState>,
}

/// The deployments attached to a stream, in deployment order, and the
/// buffers of the column cache they share on every push.
#[derive(Default)]
struct ShardState {
    deployments: Vec<DeploymentState>,
    columns: ColumnBuffers,
}

/// What one live handle resolves to: the deployment behind it plus the
/// residual applied to that handle's subscribers (per-grant handles attached
/// to a shared deployment carry one; primary handles never do).
struct HandleEntry {
    id: DeploymentId,
    residual: Option<Arc<CompiledResidual>>,
}

/// The Aurora-model continuous query engine (see the module docs for the
/// sharded locking structure).
pub struct StreamEngine {
    catalog: StreamCatalog,
    shards: RwLock<HashMap<String, Arc<Shard>>>,
    /// Deployment → input stream, the authority on deployment liveness.
    routes: RwLock<HashMap<DeploymentId, String>>,
    by_handle: RwLock<HashMap<StreamHandle, HandleEntry>>,
    next_id: AtomicU64,
    telemetry: Arc<Telemetry>,
}

impl Default for StreamEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamEngine {
    /// A new engine whose handles are minted under the host name `dsms`.
    #[must_use]
    pub fn new() -> Self {
        Self::with_host("dsms")
    }

    /// A new engine with an explicit host name (used in handle URIs).
    #[must_use]
    pub fn with_host(host: &str) -> Self {
        Self::with_telemetry(host, Arc::new(Telemetry::new()))
    }

    /// A new engine recording into a caller-supplied telemetry registry, so
    /// an enclosing server and its engine share one set of counters and
    /// stage histograms.
    #[must_use]
    pub fn with_telemetry(host: &str, telemetry: Arc<Telemetry>) -> Self {
        StreamEngine {
            catalog: StreamCatalog::new(host),
            shards: RwLock::new(HashMap::new()),
            routes: RwLock::new(HashMap::new()),
            by_handle: RwLock::new(HashMap::new()),
            next_id: AtomicU64::new(0),
            telemetry,
        }
    }

    /// The engine's catalog (stream registry and handle registry).
    #[must_use]
    pub fn catalog(&self) -> &StreamCatalog {
        &self.catalog
    }

    /// The telemetry registry the engine records into.
    #[must_use]
    pub fn telemetry_handle(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Register an input stream.
    ///
    /// # Errors
    /// Fails when the name is taken or the schema invalid.
    pub fn register_stream(&self, name: &str, schema: Schema) -> Result<(), DsmsError> {
        let shared = self.catalog.register(name, schema)?;
        self.shards
            .write()
            .insert(name.to_string(), Arc::new(Shard { schema: shared, state: Mutex::default() }));
        Ok(())
    }

    /// Schema of a registered input stream.
    ///
    /// # Errors
    /// Fails when the stream is unknown.
    pub fn stream_schema(&self, name: &str) -> Result<Arc<Schema>, DsmsError> {
        self.catalog.schema_of(name)
    }

    /// The shard of a registered stream.
    fn shard(&self, stream: &str) -> Result<Arc<Shard>, DsmsError> {
        self.shards
            .read()
            .get(stream)
            .cloned()
            .ok_or_else(|| DsmsError::UnknownStream(stream.to_string()))
    }

    /// Deploy a query graph. Validates the graph against the input stream's
    /// schema, compiles the operator chain (resolving attribute names to
    /// value-row positions once) and mints an output-stream handle.
    ///
    /// # Errors
    /// Fails when the input stream is unknown or the graph invalid.
    pub fn deploy(&self, graph: &QueryGraph) -> Result<Deployment, DsmsError> {
        let shard = self.shard(&graph.stream)?;

        // Validate the chain, record every intermediate schema, compile each
        // operator against its input schema, then fuse adjacent stages
        // (map→map, map→aggregate) so the hot path skips intermediate rows.
        let mut stages = Vec::with_capacity(graph.nodes.len());
        let mut current: Schema = (*shard.schema).clone();
        for node in &graph.nodes {
            let out = node.operator.output_schema(&current)?;
            let out_shared = out.clone().shared();
            stages.push(CompiledStage::compile(&node.operator, &current, out_shared));
            current = out;
        }
        let stages = crate::compiled::fuse_stages(stages);
        let output_schema = current.shared();

        let id = DeploymentId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let output_handle = self.catalog.mint_handle(format!("{id}"));

        let state = DeploymentState {
            id,
            stages,
            output_handle: output_handle.clone(),
            output_schema: Arc::clone(&output_schema),
            attached: Vec::new(),
            subscribers: Vec::new(),
            emitted: 0,
            current: Vec::new(),
            next: Vec::new(),
            selection: Selection::default(),
            rider: Selection::default(),
        };
        self.routes.write().insert(id, graph.stream.clone());
        self.by_handle.write().insert(output_handle.clone(), HandleEntry { id, residual: None });
        shard.state.lock().deployments.push(state);

        Ok(Deployment { id, output_handle, output_schema })
    }

    /// Withdraw a deployment by id, releasing its primary output handle
    /// **and** every per-grant handle attached to it. Every subscriber's
    /// inbox is emptied and stays empty; the tuples it held are counted as
    /// [`Metric::TuplesDiscarded`].
    ///
    /// # Errors
    /// Fails when the deployment is unknown.
    pub fn withdraw(&self, id: DeploymentId) -> Result<(), DsmsError> {
        let stream = self
            .routes
            .write()
            .remove(&id)
            .ok_or_else(|| DsmsError::UnknownHandle(format!("{id}")))?;
        let shard = self.shard(&stream)?;
        let state = {
            let mut guard = shard.state.lock();
            let deployments = &mut guard.deployments;
            let index = deployments
                .iter()
                .position(|d| d.id == id)
                .expect("routes and shard deployments are kept consistent");
            deployments.remove(index)
        };
        let discarded: usize = state.subscribers.iter().map(SubscriberSlot::discard).sum();
        self.telemetry.add(Metric::TuplesDiscarded, discarded as u64);
        let mut by_handle = self.by_handle.write();
        self.catalog.release_handle(&state.output_handle);
        by_handle.remove(&state.output_handle);
        for handle in &state.attached {
            self.catalog.release_handle(handle);
            by_handle.remove(handle);
        }
        Ok(())
    }

    /// Attach a per-grant handle to a live deployment, optionally carrying a
    /// residual (predicate + projection over the deployment's *output*
    /// schema) applied to that handle's subscribers at fan-out. This is how
    /// many grants share one compiled operator chain: the chain runs once
    /// per source tuple, each attached handle pays only its residual.
    ///
    /// The returned handle behaves like a deployment's own handle for
    /// [`StreamEngine::subscribe`] / [`StreamEngine::output_schema`] /
    /// liveness, and is released by [`StreamEngine::retire_handle`] (one
    /// grant ends) or [`StreamEngine::withdraw`] (the whole plan ends).
    ///
    /// # Errors
    /// Fails when the deployment is unknown or the residual projection names
    /// an attribute the output schema lacks.
    pub fn attach_handle(
        &self,
        id: DeploymentId,
        residual: Option<&ResidualSpec>,
    ) -> Result<StreamHandle, DsmsError> {
        self.attach_handle_inner(id, residual, None)
    }

    /// Recovery variant of [`StreamEngine::attach_handle`]: attach under a
    /// specific, pre-existing handle URI instead of minting a fresh serial.
    /// A recovering server replays each journaled grant with the exact
    /// handle its consumer still holds — minting arithmetic cannot reproduce
    /// pre-crash serials once released grants have been pruned from the
    /// journal, so the URI itself is the replay contract.
    ///
    /// # Errors
    /// As [`StreamEngine::attach_handle`], plus when the URI is already live.
    pub fn attach_handle_as(
        &self,
        id: DeploymentId,
        residual: Option<&ResidualSpec>,
        handle: StreamHandle,
    ) -> Result<StreamHandle, DsmsError> {
        self.attach_handle_inner(id, residual, Some(handle))
    }

    fn attach_handle_inner(
        &self,
        id: DeploymentId,
        residual: Option<&ResidualSpec>,
        adopt: Option<StreamHandle>,
    ) -> Result<StreamHandle, DsmsError> {
        let unknown = || DsmsError::UnknownHandle(format!("{id}"));
        let stream = self.routes.read().get(&id).cloned().ok_or_else(unknown)?;
        let shard = self.shard(&stream)?;
        let mut guard = shard.state.lock();
        let deployments = &mut guard.deployments;
        let state = deployments.iter_mut().find(|d| d.id == id).ok_or_else(unknown)?;
        let compiled = match residual {
            Some(spec) if !spec.is_passthrough() => {
                Some(Arc::new(CompiledResidual::compile(spec, &state.output_schema)?))
            }
            _ => None,
        };
        let handle = match adopt {
            Some(handle) => {
                self.catalog.adopt_handle(handle.clone(), format!("{id}"))?;
                handle
            }
            None => self.catalog.mint_handle(format!("{id}")),
        };
        state.attached.push(handle.clone());
        self.by_handle.write().insert(handle.clone(), HandleEntry { id, residual: compiled });
        Ok(handle)
    }

    /// Retire one per-grant handle attached via
    /// [`StreamEngine::attach_handle`]: the handle dies, its subscribers'
    /// inboxes are emptied as on [`StreamEngine::withdraw`], and the shared
    /// deployment (and every other attached handle) lives on. Returns the
    /// deployment the handle belonged to so callers tracking plan refcounts
    /// can decide whether to [`StreamEngine::withdraw`] it.
    ///
    /// # Errors
    /// Fails when the handle is unknown or is a deployment's *primary*
    /// handle (primary handles die only with the deployment).
    pub fn retire_handle(&self, handle: &StreamHandle) -> Result<DeploymentId, DsmsError> {
        let unknown = || DsmsError::UnknownHandle(handle.uri().to_string());
        let id = self.by_handle.read().get(handle).map(|entry| entry.id).ok_or_else(unknown)?;
        let stream = self.routes.read().get(&id).cloned().ok_or_else(unknown)?;
        let shard = self.shard(&stream)?;
        let mut guard = shard.state.lock();
        let deployments = &mut guard.deployments;
        let state = deployments.iter_mut().find(|d| d.id == id).ok_or_else(unknown)?;
        let index = state.attached.iter().position(|h| h == handle).ok_or_else(|| {
            DsmsError::UnknownHandle(format!("{} is a primary handle", handle.uri()))
        })?;
        state.attached.remove(index);
        let discarded: usize = state
            .subscribers
            .extract_if(.., |slot| slot.handle == *handle)
            .map(|slot| slot.discard())
            .sum();
        self.catalog.release_handle(handle);
        self.by_handle.write().remove(handle);
        self.telemetry.add(Metric::TuplesDiscarded, discarded as u64);
        Ok(id)
    }

    /// Subscribe to the derived tuples of an output stream. Subscribing
    /// through a per-grant handle attaches that handle's residual to the
    /// returned receiver.
    ///
    /// # Errors
    /// Fails when the handle does not correspond to a live deployment.
    pub fn subscribe(&self, handle: &StreamHandle) -> Result<TupleReceiver, DsmsError> {
        let unknown = || DsmsError::UnknownHandle(handle.uri().to_string());
        let (id, residual) = {
            let by_handle = self.by_handle.read();
            let entry = by_handle.get(handle).ok_or_else(unknown)?;
            (entry.id, entry.residual.clone())
        };
        let stream = self.routes.read().get(&id).cloned().ok_or_else(unknown)?;
        let shard = self.shard(&stream)?;
        let mut guard = shard.state.lock();
        let deployments = &mut guard.deployments;
        let state = deployments.iter_mut().find(|d| d.id == id).ok_or_else(unknown)?;
        let inbox = Inbox::default();
        state.subscribers.push(SubscriberSlot {
            handle: handle.clone(),
            inbox: Arc::clone(&inbox),
            residual,
        });
        Ok(TupleReceiver { inbox })
    }

    /// Schema of the output stream behind a handle: the deployment's output
    /// schema, narrowed by the handle's residual projection when it has one.
    ///
    /// # Errors
    /// Fails when the handle is unknown.
    pub fn output_schema(&self, handle: &StreamHandle) -> Result<Arc<Schema>, DsmsError> {
        let unknown = || DsmsError::UnknownHandle(handle.uri().to_string());
        let (id, residual) = {
            let by_handle = self.by_handle.read();
            let entry = by_handle.get(handle).ok_or_else(unknown)?;
            (entry.id, entry.residual.clone())
        };
        if let Some(masked) = residual.as_deref().and_then(CompiledResidual::masked_schema) {
            return Ok(Arc::clone(masked));
        }
        let stream = self.routes.read().get(&id).cloned().ok_or_else(unknown)?;
        let shard = self.shard(&stream)?;
        let guard = shard.state.lock();
        let deployments = &guard.deployments;
        let state = deployments.iter().find(|d| d.id == id).ok_or_else(unknown)?;
        Ok(Arc::clone(&state.output_schema))
    }

    /// Check one tuple against the shard's schema.
    fn check_schema(shard: &Shard, stream: &str, tuple: &Tuple) -> Result<(), DsmsError> {
        if Arc::ptr_eq(tuple.schema(), &shard.schema)
            || tuple.schema().as_ref() == shard.schema.as_ref()
        {
            return Ok(());
        }
        Err(DsmsError::SchemaMismatch {
            stream: stream.to_string(),
            detail: format!(
                "tuple schema {} differs from stream schema {}",
                tuple.schema(),
                shard.schema
            ),
        })
    }

    /// Run a slice of tuples through every deployment of a locked shard,
    /// over one column cache they all read; returns the number of derived
    /// tuples emitted.
    fn process_locked(&self, shard: &mut ShardState, tuples: &[Tuple]) -> usize {
        // Telemetry is batch-grained on purpose: three sharded-counter adds
        // and, when stage recording is on, one wall-clock read pair per
        // ingest call, not per tuple — instrumentation costs the hot path
        // next to nothing.
        let started = self.telemetry.is_enabled().then(Instant::now);
        let mut emitted = 0usize;
        let mut columns = Columns::reusing(tuples, std::mem::take(&mut shard.columns));
        for state in &mut shard.deployments {
            emitted += state.process_and_fan_out(&mut columns);
        }
        shard.columns = columns.into_buffers();
        self.telemetry.incr(Metric::BatchesIngested);
        self.telemetry.add(Metric::TuplesIngested, tuples.len() as u64);
        self.telemetry.add(Metric::TuplesDelivered, emitted as u64);
        if let Some(started) = started {
            self.telemetry.record(Stage::Ingest, started.elapsed());
        }
        emitted
    }

    /// Push one source tuple into a registered stream. The tuple is run
    /// through every deployment on that stream; derived tuples are delivered
    /// to subscribers. Returns the total number of derived tuples emitted.
    ///
    /// Pushes to *different* streams run concurrently; pushes to the same
    /// stream serialize on the stream's shard. When feeding many tuples at
    /// once, prefer [`StreamEngine::push_batch`].
    ///
    /// # Errors
    /// Fails when the stream is unknown or the tuple does not match its
    /// schema.
    pub fn push(&self, stream: &str, tuple: Tuple) -> Result<usize, DsmsError> {
        let shard = self.shard(stream)?;
        Self::check_schema(&shard, stream, &tuple)?;
        let emitted = self.process_locked(&mut shard.state.lock(), std::slice::from_ref(&tuple));
        Ok(emitted)
    }

    /// Push a batch of source tuples into a registered stream, resolving the
    /// shard and taking its lock once for the whole batch. The batch is
    /// validated up front: on a schema mismatch nothing is ingested.
    /// Returns the total number of derived tuples emitted.
    ///
    /// # Errors
    /// Fails when the stream is unknown or any tuple does not match its
    /// schema.
    pub fn push_batch(
        &self,
        stream: &str,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<usize, DsmsError> {
        let shard = self.shard(stream)?;
        let batch: Vec<Tuple> = tuples.into_iter().collect();
        // Batches usually share one `Arc<Schema>` (builders reuse it); after
        // the first deep check, pointer-identical schemas are skipped.
        let mut validated: Option<&Arc<Schema>> = None;
        for tuple in &batch {
            if validated.is_some_and(|prev| Arc::ptr_eq(prev, tuple.schema())) {
                continue;
            }
            Self::check_schema(&shard, stream, tuple)?;
            validated = Some(tuple.schema());
        }
        if batch.is_empty() {
            return Ok(0);
        }
        let emitted = self.process_locked(&mut shard.state.lock(), &batch);
        Ok(emitted)
    }

    /// Recovery hook: resume deployment-id minting at `next`, and advance
    /// handle serials at least as far (no-op when the counters are already
    /// past it). Handle serials are **not** in lockstep with deployment ids
    /// — [`StreamEngine::attach_handle`] mints per-grant handles without a
    /// deploy — but they never lag them (every deploy mints its primary
    /// handle), so a recovering server calls this with a recorded deployment
    /// id right before re-deploying (re-minting the same id), and calls
    /// [`StreamEngine::resume_handle_serial_at`] with each recorded handle
    /// serial right before re-attaching (re-minting the same handle URI).
    /// Advancing past everything ever minted guarantees a released handle
    /// can never come back to life pointing at a different deployment.
    pub fn resume_ids_at(&self, next: u64) {
        self.next_id.fetch_max(next, Ordering::Relaxed);
        self.catalog.resume_serial_at(next);
    }

    /// Recovery hook: resume handle-serial minting at `next` without
    /// touching the deployment-id counter (see
    /// [`StreamEngine::resume_ids_at`]). The next minted handle gets serial
    /// `next` — callers pass the serial a handle held before the crash to
    /// re-mint the identical URI.
    pub fn resume_handle_serial_at(&self, next: u64) {
        self.catalog.resume_serial_at(next);
    }

    /// Number of live deployments.
    #[must_use]
    pub fn deployment_count(&self) -> usize {
        self.routes.read().len()
    }

    /// Number of live deployments attached to one input stream.
    #[must_use]
    pub fn deployments_on(&self, stream: &str) -> usize {
        self.shards.read().get(stream).map_or(0, |s| s.state.lock().deployments.len())
    }

    /// Total derived tuples emitted by one deployment so far.
    #[must_use]
    pub fn emitted_by(&self, id: DeploymentId) -> Option<u64> {
        let stream = self.routes.read().get(&id).cloned()?;
        let shard = self.shards.read().get(&stream).cloned()?;
        let guard = shard.state.lock();
        let deployments = &guard.deployments;
        deployments.iter().find(|d| d.id == id).map(|d| d.emitted)
    }

    /// The input stream a deployment is attached to.
    #[must_use]
    pub fn stream_of(&self, id: DeploymentId) -> Option<String> {
        self.routes.read().get(&id).cloned()
    }

    /// Subscriber slots a deployment currently holds, dead ones included.
    #[cfg(test)]
    fn subscriber_slots(&self, id: DeploymentId) -> usize {
        let shard = self.shard(&self.stream_of(id).expect("live deployment")).expect("shard");
        let guard = shard.state.lock();
        let deployments = &guard.deployments;
        deployments.iter().find(|d| d.id == id).expect("live deployment").subscribers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::QueryGraphBuilder;
    use crate::ops::aggregate::{AggFunc, AggSpec};
    use crate::value::Value;
    use crate::window::WindowSpec;

    fn weather_tuple(schema: &Schema, i: i64, rain: f64, wind: f64) -> Tuple {
        Tuple::builder(schema)
            .set("samplingtime", Value::Timestamp(i * 30_000))
            .set("rainrate", rain)
            .set("windspeed", wind)
            .finish_with_defaults()
    }

    fn engine_with_weather() -> (StreamEngine, Schema) {
        let engine = StreamEngine::new();
        let schema = Schema::weather_example();
        engine.register_stream("weather", schema.clone()).unwrap();
        (engine, schema)
    }

    #[test]
    fn deploy_subscribe_push_full_example1_pipeline() {
        let (engine, schema) = engine_with_weather();
        let graph = QueryGraphBuilder::on_stream("weather")
            .filter_str("rainrate > 5")
            .unwrap()
            .map(["samplingtime", "rainrate", "windspeed"])
            .aggregate(
                WindowSpec::tuples(5, 2),
                vec![
                    AggSpec::new("samplingtime", AggFunc::LastValue),
                    AggSpec::new("rainrate", AggFunc::Avg),
                    AggSpec::new("windspeed", AggFunc::Max),
                ],
            )
            .build();
        let deployment = engine.deploy(&graph).unwrap();
        assert_eq!(
            deployment.output_schema.field_names(),
            vec!["lastvalsamplingtime", "avgrainrate", "maxwindspeed"]
        );
        let rx = engine.subscribe(&deployment.output_handle).unwrap();

        // 10 tuples, rain alternates below/above the threshold; only the 6
        // above-threshold tuples reach the window.
        for i in 0..10 {
            let rain = if i % 2 == 0 { 10.0 + f64::from(i) } else { 1.0 };
            engine
                .push("weather", weather_tuple(&schema, i64::from(i), rain, f64::from(i)))
                .unwrap();
        }
        // 5 tuples pass the filter at i=0,2,4,6,8 → one window closes.
        let out: Vec<Tuple> = rx.try_iter().collect();
        assert_eq!(out.len(), 1);
        let avg = out[0].get_f64("avgrainrate").unwrap();
        assert!((avg - (10.0 + 12.0 + 14.0 + 16.0 + 18.0) / 5.0).abs() < 1e-9);
        assert_eq!(out[0].get_f64("maxwindspeed"), Some(8.0));
    }

    #[test]
    fn identity_deployment_passes_tuples_through() {
        let (engine, schema) = engine_with_weather();
        let d = engine.deploy(&QueryGraph::identity("weather")).unwrap();
        let rx = engine.subscribe(&d.output_handle).unwrap();
        engine.push("weather", weather_tuple(&schema, 0, 3.0, 1.0)).unwrap();
        assert_eq!(rx.try_iter().count(), 1);
    }

    #[test]
    fn multiple_deployments_on_one_stream() {
        let (engine, schema) = engine_with_weather();
        let g1 =
            QueryGraphBuilder::on_stream("weather").filter_str("rainrate > 5").unwrap().build();
        let g2 =
            QueryGraphBuilder::on_stream("weather").filter_str("rainrate > 100").unwrap().build();
        let d1 = engine.deploy(&g1).unwrap();
        let d2 = engine.deploy(&g2).unwrap();
        let rx1 = engine.subscribe(&d1.output_handle).unwrap();
        let rx2 = engine.subscribe(&d2.output_handle).unwrap();
        assert_eq!(engine.deployments_on("weather"), 2);

        let emitted = engine.push("weather", weather_tuple(&schema, 0, 10.0, 0.0)).unwrap();
        assert_eq!(emitted, 1);
        assert_eq!(rx1.try_iter().count(), 1);
        assert_eq!(rx2.try_iter().count(), 0);
    }

    #[test]
    fn withdraw_disconnects_subscribers_and_releases_handle() {
        let (engine, schema) = engine_with_weather();
        let d = engine.deploy(&QueryGraph::identity("weather")).unwrap();
        let rx = engine.subscribe(&d.output_handle).unwrap();
        assert!(engine.catalog().handle_is_live(&d.output_handle));

        engine.withdraw(d.id).unwrap();
        assert!(!engine.catalog().handle_is_live(&d.output_handle));
        assert_eq!(engine.deployment_count(), 0);
        // Pushing more data does not reach the old subscriber.
        engine.push("weather", weather_tuple(&schema, 0, 1.0, 1.0)).unwrap();
        assert!(rx.take_all().is_empty());
        // Subscribing to the withdrawn handle now fails.
        assert!(matches!(engine.subscribe(&d.output_handle), Err(DsmsError::UnknownHandle(_))));
        // Double-withdraw fails.
        assert!(engine.withdraw(d.id).is_err());
    }

    #[test]
    fn push_checks_stream_and_schema() {
        let (engine, _schema) = engine_with_weather();
        let other = Schema::gps_example();
        let t = Tuple::builder(&other).finish_with_defaults();
        assert!(matches!(engine.push("nosuch", t.clone()), Err(DsmsError::UnknownStream(_))));
        assert!(matches!(engine.push("weather", t), Err(DsmsError::SchemaMismatch { .. })));
    }

    #[test]
    fn deploy_rejects_unknown_stream_and_bad_graph() {
        let (engine, _schema) = engine_with_weather();
        let g = QueryGraphBuilder::on_stream("nosuch").build();
        assert!(matches!(engine.deploy(&g), Err(DsmsError::UnknownStream(_))));
        let g = QueryGraphBuilder::on_stream("weather").map(["bogus"]).build();
        assert!(matches!(engine.deploy(&g), Err(DsmsError::UnknownAttribute { .. })));
    }

    /// The engine's counters, read from its telemetry registry.
    fn counter(engine: &StreamEngine, metric: Metric) -> u64 {
        engine.telemetry_handle().counter(metric)
    }

    #[test]
    fn stats_are_accumulated() {
        let (engine, schema) = engine_with_weather();
        let d = engine.deploy(&QueryGraph::identity("weather")).unwrap();
        assert_eq!(engine.deployment_count(), 1);
        engine.push("weather", weather_tuple(&schema, 0, 1.0, 1.0)).unwrap();
        engine.push("weather", weather_tuple(&schema, 1, 2.0, 1.0)).unwrap();
        engine.withdraw(d.id).unwrap();
        assert_eq!(counter(&engine, Metric::TuplesIngested), 2);
        assert_eq!(counter(&engine, Metric::TuplesDelivered), 2);
        assert_eq!(engine.deployment_count(), 0);
        assert_eq!(engine.emitted_by(d.id), None);
    }

    #[test]
    fn telemetry_counts_every_batch_and_times_only_when_enabled() {
        let (engine, schema) = engine_with_weather();
        let d = engine.deploy(&QueryGraph::identity("weather")).unwrap();
        let _rx = engine.subscribe(&d.output_handle).unwrap();
        engine.push("weather", weather_tuple(&schema, 0, 1.0, 1.0)).unwrap();
        let batch: Vec<Tuple> = (1..=4).map(|i| weather_tuple(&schema, i, 2.0, 1.0)).collect();
        engine.push_batch("weather", batch).unwrap();

        let snapshot = engine.telemetry_handle().snapshot();
        assert_eq!(snapshot.counter(Metric::TuplesIngested), 5);
        assert_eq!(snapshot.counter(Metric::TuplesDelivered), 5);
        assert_eq!(snapshot.counter(Metric::BatchesIngested), 2);
        assert_eq!(snapshot.stage(Stage::Ingest).unwrap().count, 2);

        // A disabled registry reads no clock, but its counters keep counting.
        engine.telemetry_handle().set_enabled(false);
        engine.push("weather", weather_tuple(&schema, 9, 1.0, 1.0)).unwrap();
        assert_eq!(counter(&engine, Metric::TuplesIngested), 6);
        assert_eq!(counter(&engine, Metric::BatchesIngested), 3);
        assert_eq!(engine.telemetry_handle().stage_count(Stage::Ingest), 2);
    }

    #[test]
    fn output_schema_lookup_by_handle() {
        let (engine, _schema) = engine_with_weather();
        let g = QueryGraphBuilder::on_stream("weather").map(["rainrate"]).build();
        let d = engine.deploy(&g).unwrap();
        let s = engine.output_schema(&d.output_handle).unwrap();
        assert_eq!(s.field_names(), vec!["rainrate"]);
        assert!(engine.output_schema(&StreamHandle::from_uri("exacml://x/streams/999")).is_err());
    }

    #[test]
    fn push_batch_matches_single_pushes() {
        let (engine, schema) = engine_with_weather();
        let g = QueryGraphBuilder::on_stream("weather").filter_str("rainrate > 5").unwrap().build();
        let d = engine.deploy(&g).unwrap();
        let rx = engine.subscribe(&d.output_handle).unwrap();

        let batch: Vec<Tuple> = (0..20)
            .map(|i| weather_tuple(&schema, i, if i % 2 == 0 { 10.0 } else { 1.0 }, 0.0))
            .collect();
        let emitted = engine.push_batch("weather", batch).unwrap();
        assert_eq!(emitted, 10);
        assert_eq!(rx.try_iter().count(), 10);
        assert_eq!(counter(&engine, Metric::TuplesIngested), 20);
        assert_eq!(engine.emitted_by(d.id), Some(10));

        // Empty batches are a no-op.
        assert_eq!(engine.push_batch("weather", Vec::new()).unwrap(), 0);
        // A batch with a mismatched tuple is rejected atomically.
        let bad = Tuple::builder(&Schema::gps_example()).finish_with_defaults();
        assert!(engine.push_batch("weather", vec![bad]).is_err());
        assert_eq!(counter(&engine, Metric::TuplesIngested), 20);
    }

    #[test]
    fn pushes_to_distinct_streams_run_from_many_threads() {
        let engine = Arc::new(StreamEngine::new());
        let schema = Schema::weather_example();
        for name in ["s0", "s1", "s2", "s3"] {
            engine.register_stream(name, schema.clone()).unwrap();
            engine
                .deploy(
                    &QueryGraphBuilder::on_stream(name).filter_str("rainrate > 5").unwrap().build(),
                )
                .unwrap();
        }
        const PER_THREAD: usize = 500;
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let engine = Arc::clone(&engine);
                let schema = schema.clone();
                std::thread::spawn(move || {
                    let stream = format!("s{i}");
                    for j in 0..PER_THREAD {
                        engine.push(&stream, weather_tuple(&schema, j as i64, 10.0, 0.0)).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter(&engine, Metric::TuplesIngested), (4 * PER_THREAD) as u64);
        assert_eq!(counter(&engine, Metric::TuplesDelivered), (4 * PER_THREAD) as u64);
    }

    #[test]
    fn time_window_after_timestampless_projection_emits_nothing() {
        // A map that projects away the timestamp feeds a time window: the
        // projected tuples carry no event time, so time windows never close
        // (the interpreted/seed semantics). The map→aggregate fusion must
        // not resurrect the upstream timestamp.
        let (engine, schema) = engine_with_weather();
        let graph = QueryGraphBuilder::on_stream("weather")
            .map(["rainrate"])
            .aggregate(
                WindowSpec::time(60_000, 30_000),
                vec![AggSpec::new("rainrate", AggFunc::Avg)],
            )
            .build();
        let d = engine.deploy(&graph).unwrap();
        let rx = engine.subscribe(&d.output_handle).unwrap();
        for i in 0..20 {
            engine.push("weather", weather_tuple(&schema, i, 10.0, 1.0)).unwrap();
        }
        assert_eq!(rx.try_iter().count(), 0);
        assert_eq!(engine.emitted_by(d.id), Some(0));

        // The same window fed with the timestamp kept does close.
        let graph = QueryGraphBuilder::on_stream("weather")
            .map(["samplingtime", "rainrate"])
            .aggregate(
                WindowSpec::time(60_000, 30_000),
                vec![AggSpec::new("rainrate", AggFunc::Avg)],
            )
            .build();
        let d = engine.deploy(&graph).unwrap();
        let rx = engine.subscribe(&d.output_handle).unwrap();
        for i in 0..20 {
            engine.push("weather", weather_tuple(&schema, i, 10.0, 1.0)).unwrap();
        }
        assert!(rx.try_iter().count() > 0);
    }

    #[test]
    fn attached_handles_share_one_deployment_with_residuals() {
        use crate::compiled::ResidualSpec;
        use exacml_expr::parse_expr;

        let (engine, schema) = engine_with_weather();
        // One shared core: the policy filter, deployed once.
        let core =
            QueryGraphBuilder::on_stream("weather").filter_str("rainrate > 5").unwrap().build();
        let d = engine.deploy(&core).unwrap();

        // Grant A: tighter predicate + projection. Grant B: passthrough.
        let spec_a = ResidualSpec {
            predicate: Some(parse_expr("windspeed > 3").unwrap()),
            projection: Some(vec!["samplingtime".to_string(), "rainrate".to_string()]),
        };
        let ha = engine.attach_handle(d.id, Some(&spec_a)).unwrap();
        let hb = engine.attach_handle(d.id, None).unwrap();
        assert_ne!(ha, hb);
        assert_ne!(ha, d.output_handle);
        assert_eq!(engine.deployment_count(), 1);
        assert_eq!(
            engine.output_schema(&ha).unwrap().field_names(),
            vec!["samplingtime", "rainrate"]
        );
        assert_eq!(engine.output_schema(&hb).unwrap(), d.output_schema);

        let rx_a = engine.subscribe(&ha).unwrap();
        let rx_b = engine.subscribe(&hb).unwrap();
        engine.push("weather", weather_tuple(&schema, 0, 10.0, 1.0)).unwrap(); // A filtered out
        engine.push("weather", weather_tuple(&schema, 1, 10.0, 9.0)).unwrap(); // both
        engine.push("weather", weather_tuple(&schema, 2, 1.0, 9.0)).unwrap(); // core drops

        let a: Vec<Tuple> = rx_a.try_iter().collect();
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].schema().field_names(), vec!["samplingtime", "rainrate"]);
        assert_eq!(rx_b.try_iter().count(), 2);
        // The shared chain ran once per tuple regardless of subscribers.
        assert_eq!(engine.emitted_by(d.id), Some(2));
    }

    #[test]
    fn retire_handle_keeps_the_shared_deployment_alive() {
        let (engine, schema) = engine_with_weather();
        let d = engine.deploy(&QueryGraph::identity("weather")).unwrap();
        let ha = engine.attach_handle(d.id, None).unwrap();
        let hb = engine.attach_handle(d.id, None).unwrap();
        let rx_a = engine.subscribe(&ha).unwrap();
        let rx_b = engine.subscribe(&hb).unwrap();

        assert_eq!(engine.retire_handle(&ha).unwrap(), d.id);
        assert!(!engine.catalog().handle_is_live(&ha));
        assert!(engine.catalog().handle_is_live(&hb));
        assert_eq!(engine.deployment_count(), 1);
        // The retired grant's subscriber receives nothing, the other lives.
        engine.push("weather", weather_tuple(&schema, 0, 1.0, 1.0)).unwrap();
        assert!(rx_a.take_all().is_empty());
        assert_eq!(rx_b.try_iter().count(), 1);

        // Retiring again, retiring the primary, or a foreign handle fails.
        assert!(engine.retire_handle(&ha).is_err());
        assert!(engine.retire_handle(&d.output_handle).is_err());
        assert!(engine.deployment_count() == 1);

        // Withdrawing the deployment releases every remaining handle.
        engine.withdraw(d.id).unwrap();
        assert!(!engine.catalog().handle_is_live(&hb));
        assert!(!engine.catalog().handle_is_live(&d.output_handle));
        assert!(matches!(engine.subscribe(&hb), Err(DsmsError::UnknownHandle(_))));
    }

    #[test]
    fn attach_handle_validates_deployment_and_residual() {
        use crate::compiled::ResidualSpec;
        let (engine, _schema) = engine_with_weather();
        let d = engine.deploy(&QueryGraph::identity("weather")).unwrap();
        assert!(engine.attach_handle(DeploymentId(999), None).is_err());
        let bad = ResidualSpec { predicate: None, projection: Some(vec!["bogus".to_string()]) };
        assert!(matches!(
            engine.attach_handle(d.id, Some(&bad)),
            Err(DsmsError::UnknownAttribute { .. })
        ));
        // A failed attach leaks nothing: withdraw still releases cleanly.
        engine.withdraw(d.id).unwrap();
        assert_eq!(engine.catalog().live_handles(), 0);
    }

    #[test]
    fn attach_handle_as_adopts_the_exact_uri() {
        let (engine, schema) = engine_with_weather();
        let d = engine.deploy(&QueryGraph::identity("weather")).unwrap();
        let recovered = StreamHandle::from_uri("exacml://dsms-host/streams/700");
        let handle = engine.attach_handle_as(d.id, None, recovered.clone()).unwrap();
        assert_eq!(handle, recovered);
        assert!(engine.catalog().handle_is_live(&recovered));
        let rx = engine.subscribe(&recovered).unwrap();
        engine.push("weather", weather_tuple(&schema, 0, 1.0, 1.0)).unwrap();
        assert_eq!(rx.try_iter().count(), 1);
        // Adopting a URI that is already live is an error, not a hijack.
        assert!(engine.attach_handle_as(d.id, None, recovered.clone()).is_err());
        assert!(engine.attach_handle_as(d.id, None, d.output_handle.clone()).is_err());
        // The counter resumes past the recovered serial, so fresh mints
        // never collide with adopted URIs.
        engine.resume_handle_serial_at(recovered.serial().unwrap() + 1);
        let fresh = engine.attach_handle(d.id, None).unwrap();
        assert_eq!(fresh.serial().unwrap(), 701);
    }

    #[test]
    fn dead_subscribers_are_pruned_on_next_push() {
        let (engine, schema) = engine_with_weather();
        let d = engine.deploy(&QueryGraph::identity("weather")).unwrap();
        let rx1 = engine.subscribe(&d.output_handle).unwrap();
        let rx2 = engine.subscribe(&d.output_handle).unwrap();
        drop(rx2);
        engine.push("weather", weather_tuple(&schema, 0, 1.0, 1.0)).unwrap();
        assert_eq!(rx1.try_iter().count(), 1);
        // The engine still delivers to live subscribers after pruning.
        engine.push("weather", weather_tuple(&schema, 1, 2.0, 2.0)).unwrap();
        assert_eq!(rx1.try_iter().count(), 1);
    }

    fn timestamps(tuples: &[Tuple]) -> Vec<i64> {
        tuples.iter().map(|t| t.event_time().expect("samplingtime is set")).collect()
    }

    #[test]
    fn tuple_receiver_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TupleReceiver>();
    }

    #[test]
    fn iterated_and_whole_inbox_reads_interleave_in_order() {
        let (engine, schema) = engine_with_weather();
        let d = engine.deploy(&QueryGraph::identity("weather")).unwrap();
        let rx = engine.subscribe(&d.output_handle).unwrap();
        let batch = |range: std::ops::Range<i64>| -> Vec<Tuple> {
            range.map(|i| weather_tuple(&schema, i, 1.0, 1.0)).collect()
        };

        // Two batches wait in one inbox: `take_all` returns both, in order,
        // and only once.
        engine.push_batch("weather", batch(0..4)).unwrap();
        engine.push_batch("weather", batch(4..6)).unwrap();
        assert_eq!(timestamps(&rx.take_all()), vec![0, 30_000, 60_000, 90_000, 120_000, 150_000]);
        assert!(rx.take_all().is_empty());

        // `take_all`, then `try_iter` across a batch and a single push.
        engine.push_batch("weather", batch(6..8)).unwrap();
        assert_eq!(timestamps(&rx.take_all()), vec![180_000, 210_000]);
        engine.push_batch("weather", batch(8..10)).unwrap();
        engine.push("weather", weather_tuple(&schema, 10, 1.0, 1.0)).unwrap();
        assert_eq!(timestamps(&rx.try_iter().collect::<Vec<_>>()), vec![240_000, 270_000, 300_000]);
        assert_eq!(rx.try_iter().count(), 0);
    }

    #[test]
    fn a_batch_the_residual_rejects_entirely_queues_nothing() {
        use crate::compiled::ResidualSpec;
        use exacml_expr::parse_expr;

        let (engine, schema) = engine_with_weather();
        let d = engine.deploy(&QueryGraph::identity("weather")).unwrap();
        let spec = ResidualSpec {
            predicate: Some(parse_expr("windspeed > 3").unwrap()),
            projection: None,
        };
        let handle = engine.attach_handle(d.id, Some(&spec)).unwrap();
        let rx = engine.subscribe(&handle).unwrap();

        let calm: Vec<Tuple> = (0..8).map(|i| weather_tuple(&schema, i, 1.0, 1.0)).collect();
        assert_eq!(engine.push_batch("weather", calm).unwrap(), 8);
        assert!(rx.take_all().is_empty());
        // Nothing was queued, not an empty batch: the next batch is the
        // first thing the receiver holds.
        engine.push("weather", weather_tuple(&schema, 8, 1.0, 9.0)).unwrap();
        assert_eq!(timestamps(&rx.take_all()), vec![240_000]);
    }

    #[test]
    fn retirement_and_withdrawal_discard_what_the_subscriber_has_not_taken() {
        let (engine, schema) = engine_with_weather();
        let d = engine.deploy(&QueryGraph::identity("weather")).unwrap();
        let attached = engine.attach_handle(d.id, None).unwrap();
        let rx_attached = engine.subscribe(&attached).unwrap();
        let rx_primary = engine.subscribe(&d.output_handle).unwrap();
        let rx_dropped = engine.subscribe(&d.output_handle).unwrap();
        let batch = |range: std::ops::Range<i64>| -> Vec<Tuple> {
            range.map(|i| weather_tuple(&schema, i, 1.0, 1.0)).collect()
        };
        engine.push_batch("weather", batch(0..3)).unwrap();
        drop(rx_dropped);

        // Retiring the attached handle discards its three queued tuples; the
        // push after it reaches only the primary. The dropped receiver's slot
        // is pruned by that push, and its tuples are not counted.
        engine.retire_handle(&attached).unwrap();
        engine.push("weather", weather_tuple(&schema, 3, 1.0, 1.0)).unwrap();
        assert!(rx_attached.take_all().is_empty());
        assert_eq!(counter(&engine, Metric::TuplesDiscarded), 3);
        assert_eq!(engine.subscriber_slots(d.id), 1);
        assert_eq!(timestamps(&rx_primary.take_all()), vec![0, 30_000, 60_000, 90_000]);

        // Withdrawal discards what the primary has not taken since.
        engine.push_batch("weather", batch(4..6)).unwrap();
        engine.withdraw(d.id).unwrap();
        assert!(rx_primary.take_all().is_empty());
        assert_eq!(counter(&engine, Metric::TuplesDiscarded), 5);
    }

    #[test]
    fn dropped_subscribers_do_not_pile_up_on_a_silent_deployment() {
        let (engine, schema) = engine_with_weather();
        let silent =
            QueryGraphBuilder::on_stream("weather").filter_str("rainrate > 1000").unwrap().build();
        let d = engine.deploy(&silent).unwrap();
        for _ in 0..100 {
            drop(engine.subscribe(&d.output_handle).unwrap());
        }
        assert_eq!(engine.subscriber_slots(d.id), 100);
        let batch: Vec<Tuple> = (0..4).map(|i| weather_tuple(&schema, i, 1.0, 1.0)).collect();
        assert_eq!(engine.push_batch("weather", batch).unwrap(), 0);
        assert_eq!(engine.subscriber_slots(d.id), 0);
    }
}
