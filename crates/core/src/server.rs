//! The cloud data server.
//!
//! The data server of Figure 3 hosts the policy store, the PDP, the PEP
//! logic (obligation translation, query-graph merging, NR/PR checking, and
//! the grant table behind the single-access guard and policy withdrawal) and
//! talks to the DSMS.
//! Its entry point, [`DataServer::handle_request`], implements the five-step
//! workflow of Section 3.2:
//!
//! 1. receive the access request plus the optional customised query;
//! 2. ask the PDP for a decision; on Permit, derive a query graph from the
//!    obligations;
//! 3. check that the requester holds no other live query on the stream;
//! 4. merge the obligation graph with the user-query graph, checking NR/PR;
//! 5. if no warning blocks deployment, convert the merged graph to StreamSQL,
//!    send it to the DSMS and return the output-stream handle (URI).
//!
//! Steps 2–5 run under the one lock over the [`GrantTable`], and so do
//! release and the withdrawal a policy change triggers: check → deploy →
//! record is a single step with respect to other requests and to policy
//! changes, so a subject never ends up holding two different live windows on
//! a stream (Section 3.4) and no grant outlives the policy revision that
//! authorised it (Section 3.3).
//!
//! Every mutating operation passes one commit point ([`crate::commit`]): a
//! server with a [`CommitLog`] attached journals each operation's audit
//! event there, so a durable server is this server with a write-ahead log
//! attached. There is no other way in: a `&DataServer` lends read-only
//! views (stream names and schemas, policies, the policy revision, grants,
//! the audit trail), never its engine or policy store, and the recovery
//! hooks live on [`Replay`], which owns the server it rebuilds. Lock order:
//! commit log → grant table → engine shard; the audit log and the
//! delay-sampling RNG are leaf locks.

use crate::audit::{AuditEvent, AuditEventKind, AuditLog};
use crate::commit::{CommitLog, GroupKind};
use crate::error::ExacmlError;
use crate::grant_table::{Grant, GrantTable, PlanId};
use crate::merge::{merge_graphs, MergeOptions};
use crate::metrics::RequestTiming;
use crate::obligations::graph_from_obligations;
use crate::user_query::UserQuery;
use crate::warnings::{has_empty_result, has_partial_result, Warning};
use exacml_dsms::{
    streamsql, DeploymentId, QueryGraph, ResidualSpec, Schema, StreamEngine, StreamHandle, Tuple,
    TupleReceiver,
};
use exacml_simnet::{NodeId, Topology};
use exacml_telemetry::{Metric, Stage, Telemetry};
use exacml_xacml::{Decision, Pdp, Policy, PolicyStore, Request, XacmlError};
use parking_lot::{Mutex, MutexGuard};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::any::Any;
use std::ops::Deref;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of the data server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Deploy anyway when only partial-result warnings were raised (the
    /// paper's workflow deploys only when *no* warning was detected, which is
    /// the default here; the warnings are returned to the caller either way).
    pub deploy_on_partial_result: bool,
    /// The deployment topology used to charge simulated network time.
    pub topology: Topology,
    /// Seed for the network-delay sampling (reproducible experiments).
    pub seed: u64,
    /// Host name used in the stream handles (URIs) this server's DSMS mints.
    /// Fabric nodes get distinct hosts so handles stay globally unique.
    pub dsms_host: String,
    /// Share compiled operator subgraphs across overlapping grants (default
    /// `true`): grants whose core graphs canonicalize identically ride one
    /// deployment, each paying only a per-grant residual at fan-out. Turning
    /// this off deploys one graph per grant — the unmerged reference
    /// `tests/properties.rs::plan_sharing_equivalence` compares against.
    pub share_plans: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            deploy_on_partial_result: false,
            topology: Topology::paper_testbed(),
            seed: 42,
            dsms_host: "dsms".to_string(),
            share_plans: true,
        }
    }
}

impl ServerConfig {
    /// A configuration with everything co-located in one process (loopback
    /// links), used by unit tests and the quickstart example.
    #[must_use]
    pub fn local() -> Self {
        ServerConfig { topology: Topology::local(), ..ServerConfig::default() }
    }
}

/// The answer returned for a granted access request.
#[derive(Debug, Clone)]
pub struct AccessResponse {
    /// The handle (URI) of the derived output stream.
    pub handle: StreamHandle,
    /// Schema of the derived output stream.
    pub output_schema: Arc<Schema>,
    /// The deployment backing the handle (shared with other grants of the
    /// same plan).
    pub deployment: DeploymentId,
    /// The shared plan the grant rides on: grants with equal plan ids share
    /// one compiled operator subgraph on the DSMS.
    pub plan: PlanId,
    /// The policy that authorised the access.
    pub policy_id: String,
    /// Non-blocking warnings raised while merging (partial results when the
    /// server is configured to deploy despite them).
    pub warnings: Vec<Warning>,
    /// The StreamSQL script that was sent to the DSMS.
    pub streamsql: String,
    /// Whether an existing identical access was reused instead of deploying
    /// a new graph.
    pub reused: bool,
    /// The timing decomposition of this request.
    pub timing: RequestTiming,
}

/// The data server.
///
/// # One door
///
/// Every state change is one of this type's own methods and passes the
/// commit point; a `&DataServer` lends no mutator. Each of the old side
/// doors fails to compile — the engine:
///
/// ```compile_fail
/// # use exacml_plus::{DataServer, ServerConfig};
/// let server = DataServer::new(ServerConfig::local());
/// let _ = server.engine();
/// ```
///
/// the policy store:
///
/// ```compile_fail
/// # use exacml_plus::{DataServer, ServerConfig};
/// let server = DataServer::new(ServerConfig::local());
/// let _ = server.policy_store();
/// ```
///
/// the policy store behind the PDP:
///
/// ```compile_fail
/// # use exacml_plus::{DataServer, ServerConfig};
/// let server = DataServer::new(ServerConfig::local());
/// let _ = server.pdp().store();
/// ```
///
/// a deployment no PDP decided (the direct-query baseline runs on a bare
/// engine in `exacml-bench`):
///
/// ```compile_fail
/// # use exacml_plus::{DataServer, ServerConfig};
/// let server = DataServer::new(ServerConfig::local());
/// let _ = server.direct_deploy("CREATE INPUT STREAM s (a DOUBLE);");
/// ```
///
/// a grant re-minted outside the workflow (only [`Replay`] restores one):
///
/// ```compile_fail
/// # use exacml_plus::{DataServer, ServerConfig};
/// # use exacml_dsms::StreamHandle;
/// # use exacml_xacml::Request;
/// let server = DataServer::new(ServerConfig::local());
/// let handle = StreamHandle::from_uri("exacml://dsms/streams/0");
/// let _ = server.restore_grant(&Request::subscribe("u", "s"), None, &handle, None);
/// ```
///
/// and a commit log attached to a live server (only [`Replay::finish`]
/// attaches one):
///
/// ```compile_fail
/// # use exacml_plus::{CommitLog, DataServer, ServerConfig};
/// let server = DataServer::new(ServerConfig::local());
/// let log: Box<dyn CommitLog> = todo!();
/// let _ = server.attach_commit_log(log);
/// ```
pub struct DataServer {
    config: ServerConfig,
    store: Arc<PolicyStore>,
    pdp: Pdp,
    /// The back-end DSMS. The engine is internally synchronized (sharded by
    /// stream), so the server shares it without a wrapping lock — feeds to
    /// different streams run concurrently with each other and with the
    /// request workflow.
    engine: Arc<StreamEngine>,
    /// Who holds what, and the shared plans the grants ride on. Held from
    /// the PDP decision through recording the grant, and across release and
    /// policy changes (see the module docs).
    grants: Mutex<GrantTable>,
    rng: Mutex<StdRng>,
    audit: Mutex<AuditLog>,
    /// Where mutations are journaled, when the server is durable. Held from
    /// an operation's commit group opening to its close (module docs).
    log: Option<Mutex<Box<dyn CommitLog>>>,
}

/// One operation's open record group (see [`crate::commit`]). Without a
/// log every call is a no-op.
struct Commit<'a> {
    server: &'a DataServer,
    log: Option<MutexGuard<'a, Box<dyn CommitLog>>>,
}

impl Commit<'_> {
    fn stage_ingest(&mut self, stream: &str, tuples: &[Tuple]) -> Result<(), ExacmlError> {
        self.log.as_mut().map_or(Ok(()), |log| log.stage_ingest(stream, tuples))
    }

    /// Journal and flush the events recorded so far, before the operation
    /// applies them.
    fn write_ahead(&mut self) -> Result<(), ExacmlError> {
        self.log.as_mut().map_or(Ok(()), |log| log.write_ahead(self.server))
    }

    fn finish(mut self) -> Result<(), ExacmlError> {
        self.log.as_mut().map_or(Ok(()), |log| log.finish(self.server))
    }
}

impl DataServer {
    /// Create a server with the given configuration.
    #[must_use]
    pub fn new(config: ServerConfig) -> Self {
        let store = Arc::new(PolicyStore::new());
        let pdp = Pdp::new(Arc::clone(&store));
        let rng = StdRng::seed_from_u64(config.seed);
        let engine = Arc::new(StreamEngine::with_host(&config.dsms_host));
        DataServer {
            config,
            store,
            pdp,
            engine,
            grants: Mutex::new(GrantTable::default()),
            rng: Mutex::new(rng),
            audit: Mutex::new(AuditLog::default()),
            log: None,
        }
    }

    /// Run `f` on the attached commit log under its lock, when it is an
    /// `L` (`None` otherwise, and without a log). Naming `L` is the key: a
    /// log type its crate keeps private is reachable from that crate only.
    pub fn with_commit_log<L: CommitLog, R>(&self, f: impl FnOnce(&mut L) -> R) -> Option<R> {
        let mut log = self.log.as_ref()?.lock();
        (&mut **log as &mut dyn Any).downcast_mut().map(f)
    }

    /// Read the attached commit log — its [`CommitLog::backend_kind`] and
    /// [`CommitLog::failure`]; `None` without a log.
    pub fn read_commit_log<R>(&self, f: impl FnOnce(&dyn CommitLog) -> R) -> Option<R> {
        self.log.as_ref().map(|log| f(&**log.lock()))
    }

    /// Open the commit group of one operation.
    fn begin(&self, kind: GroupKind) -> Result<Commit<'_>, ExacmlError> {
        let mut log = self.log.as_ref().map(Mutex::lock);
        log.as_mut().map_or(Ok(()), |log| log.begin(self, kind))?;
        Ok(Commit { server: self, log })
    }

    /// Run one control-plane operation at the commit point: open a group,
    /// act, and close the group, journaling the audit event the operation
    /// recorded (a refusal records none).
    fn committed<T>(&self, op: impl FnOnce() -> Result<T, ExacmlError>) -> Result<T, ExacmlError> {
        let commit = self.begin(GroupKind::Control)?;
        let result = op();
        commit.finish()?;
        result
    }

    /// The server's PDP: direct evaluation in tests, fabric propagation
    /// checks. It lends only `evaluate*`.
    #[must_use]
    pub fn pdp(&self) -> &Pdp {
        &self.pdp
    }

    /// Names of the registered input streams, sorted.
    #[must_use]
    pub fn stream_names(&self) -> Vec<String> {
        self.engine.catalog().stream_names()
    }

    /// Schema of a registered input stream.
    ///
    /// # Errors
    /// Fails when the stream is unknown.
    pub fn stream_schema(&self, name: &str) -> Result<Arc<Schema>, ExacmlError> {
        Ok(self.engine.stream_schema(name)?)
    }

    /// The loaded policy `policy_id`, if any.
    #[must_use]
    pub fn policy(&self, policy_id: &str) -> Option<Arc<Policy>> {
        self.store.get(policy_id)
    }

    /// The loaded policies in evaluation order.
    #[must_use]
    pub fn policies(&self) -> Vec<Arc<Policy>> {
        self.store.snapshot()
    }

    /// The policy store's revision: bumped by every load, update and
    /// removal.
    #[must_use]
    pub fn policy_revision(&self) -> u64 {
        self.store.revision()
    }

    /// The telemetry registry this server and its engine record into: the
    /// engine's ingest path and the request workflow's stage decomposition
    /// (PDP / query-graph / DSMS / network — the paper's Figure 6/7 series)
    /// land in the same counters and histograms. The commit log, the
    /// replication layer and the fabric record their own stages (WAL,
    /// shipping, routing) here too, so one snapshot covers the whole node.
    #[must_use]
    pub fn telemetry_registry(&self) -> &Arc<Telemetry> {
        self.engine.telemetry_handle()
    }

    /// A snapshot of the audit trail (accountability hook — the paper's
    /// stated next challenge beyond the trusted-cloud model).
    #[must_use]
    pub fn audit_events(&self) -> Vec<crate::audit::AuditEvent> {
        self.audit.lock().events()
    }

    /// Audit events involving one subject.
    #[must_use]
    pub fn audit_events_for_subject(&self, subject: &str) -> Vec<crate::audit::AuditEvent> {
        self.audit.lock().by_subject(subject)
    }

    /// Audit events with `sequence >= from` — the incremental view a
    /// journal uses to tail the log without cloning it wholesale.
    #[must_use]
    pub fn audit_events_since(&self, from: u64) -> Vec<crate::audit::AuditEvent> {
        self.audit.lock().events_since(from)
    }

    // --- stream management -------------------------------------------------

    /// Register an input stream on the back-end DSMS.
    ///
    /// # Errors
    /// Fails when the stream name is taken or the schema invalid.
    pub fn register_stream(&self, name: &str, schema: Schema) -> Result<(), ExacmlError> {
        self.committed(|| {
            self.engine.register_stream(name, schema)?;
            self.audit.lock().record(
                AuditEventKind::StreamRegistered,
                None,
                Some(name),
                None,
                "registered",
            );
            Ok(())
        })
    }

    /// Push one source tuple into a registered stream (the data owner's feed).
    /// With a commit log attached it is journaled as a one-row batch.
    ///
    /// # Errors
    /// Fails when the stream is unknown or the tuple malformed.
    pub fn push(&self, stream: &str, tuple: Tuple) -> Result<usize, ExacmlError> {
        if self.log.is_some() {
            return self.push_batch(stream, [tuple]);
        }
        self.engine.push(stream, tuple).map_err(ExacmlError::from)
    }

    /// Push a batch of source tuples into a registered stream, amortizing
    /// the engine's shard lookup and locking over the whole batch. With a
    /// commit log attached the batch is one ingest record: handed over and
    /// encoded before the push, appended once the push succeeded (a
    /// rejected batch journals nothing), and group-committed rather than
    /// flushed.
    ///
    /// # Errors
    /// Fails when the stream is unknown or any tuple malformed.
    pub fn push_batch(
        &self,
        stream: &str,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<usize, ExacmlError> {
        let tuples: Vec<Tuple> = tuples.into_iter().collect();
        if self.log.is_none() || tuples.is_empty() {
            return self.engine.push_batch(stream, tuples).map_err(ExacmlError::from);
        }
        let mut commit = self.begin(GroupKind::Ingest)?;
        commit.stage_ingest(stream, &tuples)?;
        let emitted = self.engine.push_batch(stream, tuples)?;
        commit.finish()?;
        Ok(emitted)
    }

    /// Subscribe to the derived tuples behind a granted handle.
    ///
    /// # Errors
    /// Fails when the handle is unknown or already withdrawn.
    pub fn subscribe(&self, handle: &StreamHandle) -> Result<TupleReceiver, ExacmlError> {
        self.engine.subscribe(handle).map_err(ExacmlError::from)
    }

    /// Whether a handle still points at a live deployment.
    #[must_use]
    pub fn handle_is_live(&self, handle: &StreamHandle) -> bool {
        self.engine.catalog().handle_is_live(handle)
    }

    // --- policy management (Section 3.3) ------------------------------------

    /// Load a policy onto the server. Returns the time taken (the
    /// policy-loading measurement reported in Section 4.2).
    ///
    /// # Errors
    /// Fails when the policy is invalid or its id already loaded.
    pub fn load_policy(&self, policy: Policy) -> Result<Duration, ExacmlError> {
        let policy_id = policy.id.clone();
        self.committed(|| {
            let started = Instant::now();
            // Charge the owner → server upload of the policy document.
            let document = exacml_xacml::xml::write_policy(&policy);
            let network = {
                let mut rng = self.rng.lock();
                self.config.topology.round_trip(
                    NodeId::Client,
                    NodeId::DataServer,
                    document.len(),
                    64,
                    &mut *rng,
                )
            };
            self.store.add(policy)?;
            let elapsed = started.elapsed() + network;
            self.audit.lock().record(
                AuditEventKind::PolicyLoaded,
                None,
                None,
                Some(&policy_id),
                "loaded",
            );
            Ok(elapsed)
        })
    }

    /// Load a policy from its XML document.
    ///
    /// # Errors
    /// Fails when the document does not parse or the policy is invalid.
    pub fn load_policy_xml(&self, xml: &str) -> Result<Duration, ExacmlError> {
        let policy = exacml_xacml::xml::parse_policy(xml)?;
        self.load_policy(policy)
    }

    /// Remove a policy; every grant it spawned is withdrawn from the DSMS
    /// immediately. Returns the number of withdrawn grants.
    ///
    /// # Errors
    /// Fails when the policy is unknown.
    pub fn remove_policy(&self, policy_id: &str) -> Result<usize, ExacmlError> {
        self.committed(|| {
            self.withdraw_policy_graphs(policy_id, AuditEventKind::PolicyRemoved, || {
                self.store.remove(policy_id).map(drop)
            })
        })
    }

    /// Replace a policy; as with removal, existing grants spawned by the old
    /// version are withdrawn (consumers must re-request access). Returns the
    /// number of withdrawn grants.
    ///
    /// # Errors
    /// Fails when the policy is unknown or the new version invalid.
    pub fn update_policy(&self, policy: Policy) -> Result<usize, ExacmlError> {
        let policy_id = policy.id.clone();
        self.committed(|| {
            self.withdraw_policy_graphs(&policy_id, AuditEventKind::PolicyUpdated, || {
                self.store.update(policy)
            })
        })
    }

    /// Apply `change` to the policy store and withdraw every grant
    /// `policy_id` authorised, both under the table lock: a request either
    /// decided before the change (and is withdrawn here) or decides after
    /// it. Per-grant, not per-deployment: under cross-policy sharing a
    /// deployment may also serve grants of *other* policies, which survive
    /// untouched.
    fn withdraw_policy_graphs(
        &self,
        policy_id: &str,
        kind: AuditEventKind,
        change: impl FnOnce() -> Result<(), XacmlError>,
    ) -> Result<usize, ExacmlError> {
        let withdrawn = {
            let mut grants = self.grants.lock();
            change()?;
            let evicted = grants.evict_policy(policy_id);
            for (grant, last) in &evicted {
                self.retire(grant, *last);
            }
            evicted.len()
        };
        self.audit.lock().record(
            kind,
            None,
            None,
            Some(policy_id),
            format!("{withdrawn} query graph(s) withdrawn"),
        );
        Ok(withdrawn)
    }

    /// Retire a removed grant's handle, withdrawing the shared deployment
    /// when the grant was its plan's last rider. Runs under the table lock,
    /// so the engine never shows a handle the table no longer records.
    fn retire(&self, grant: &Grant, last: bool) {
        let _ = self.engine.retire_handle(&grant.handle);
        if last {
            let _ = self.engine.withdraw(grant.deployment);
        }
    }

    /// Number of loaded policies.
    #[must_use]
    pub fn policy_count(&self) -> usize {
        self.store.len()
    }

    // --- the Section 3.2 workflow -------------------------------------------

    /// Handle one access request, optionally refined by a customised query.
    /// This is the server-side cost only; a [`crate::proxy::Proxy`] in front
    /// adds the consumer's network hops on top.
    ///
    /// # Errors
    /// * [`ExacmlError::AccessDenied`] when the PDP does not permit,
    /// * [`ExacmlError::MultipleAccess`] when a different live query exists,
    /// * [`ExacmlError::ConflictDetected`] on blocking NR/PR warnings,
    /// * plus translation/merging/DSMS errors.
    pub fn handle_request(
        &self,
        request: &Request,
        user_query: Option<&UserQuery>,
    ) -> Result<AccessResponse, ExacmlError> {
        let commit = self.begin(GroupKind::Control)?;
        let result = self.handle_request_inner(request, user_query, None);
        let telemetry = self.telemetry_registry();
        telemetry.incr(Metric::Requests);
        telemetry.incr(if result.is_ok() {
            Metric::RequestsGranted
        } else {
            Metric::RequestsDenied
        });
        let subject = request.subject_id();
        let stream = request.resource_id();
        let mut audit = self.audit.lock();
        match &result {
            Ok(response) => {
                let kind =
                    if response.reused { AuditEventKind::Reused } else { AuditEventKind::Granted };
                audit.record(
                    kind,
                    subject,
                    stream,
                    Some(&response.policy_id),
                    format!("handle {}", response.handle),
                );
            }
            Err(ExacmlError::ConflictDetected { warnings }) => {
                audit.record(
                    AuditEventKind::Conflict,
                    subject,
                    stream,
                    None,
                    format!("{} warning(s)", warnings.len()),
                );
            }
            Err(ExacmlError::MultipleAccess { .. }) => {
                audit.record(
                    AuditEventKind::MultipleAccessBlocked,
                    subject,
                    stream,
                    None,
                    "different live query already held".to_string(),
                );
            }
            Err(ExacmlError::AccessDenied { decision, .. }) => {
                audit.record(AuditEventKind::Denied, subject, stream, None, decision.clone());
            }
            Err(other) => {
                audit.record(AuditEventKind::Denied, subject, stream, None, other.to_string());
            }
        }
        drop(audit);
        commit.finish()?;
        result
    }

    fn handle_request_inner(
        &self,
        request: &Request,
        user_query: Option<&UserQuery>,
        restore: Option<(&StreamHandle, Option<u64>)>,
    ) -> Result<AccessResponse, ExacmlError> {
        let started = Instant::now();
        let mut network = Duration::ZERO;

        let subject = request
            .subject_id()
            .ok_or_else(|| ExacmlError::IncompleteRequest("missing subject-id".into()))?
            .to_string();
        let stream = request
            .resource_id()
            .ok_or_else(|| ExacmlError::IncompleteRequest("missing resource-id".into()))?
            .to_string();
        let fingerprint = user_query.map_or_else(
            || format!("stream={};<identity>", stream.to_ascii_lowercase()),
            UserQuery::fingerprint,
        );

        // From the decision to the recorded grant, one step (module docs).
        let mut grants = self.grants.lock();

        // Step 2: PDP decision.
        let pdp_started = Instant::now();
        let decision = self.pdp.evaluate(request);
        let pdp_time = pdp_started.elapsed();
        self.telemetry_registry().record(Stage::Pdp, pdp_time);
        if decision.decision != Decision::Permit {
            return Err(ExacmlError::AccessDenied {
                decision: decision.decision.to_string(),
                detail: format!("no policy permits subject '{subject}' on stream '{stream}'"),
            });
        }
        let policy_id =
            decision.policy_id.clone().unwrap_or_else(|| "<unknown-policy>".to_string());

        // Step 3: single-access check.
        if let Some(held) = grants.check(&subject, &stream, &fingerprint)? {
            // Identical re-request: hand back the existing live handle.
            let output_schema = self.engine.output_schema(&held.handle)?;
            let total = started.elapsed();
            return Ok(AccessResponse {
                handle: held.handle.clone(),
                output_schema,
                deployment: held.deployment,
                plan: held.plan,
                policy_id,
                warnings: Vec::new(),
                streamsql: String::new(),
                reused: true,
                timing: RequestTiming {
                    pdp: pdp_time,
                    query_graph: Duration::ZERO,
                    dsms: Duration::ZERO,
                    network,
                    total,
                },
            });
        }

        // Steps 2 (obligations → graph) and 4 (merge + NR/PR).
        let graph_started = Instant::now();
        let policy_graph = graph_from_obligations(&stream, &decision.obligations)?;
        let user_graph: QueryGraph = match user_query {
            Some(q) => {
                if !q.stream.eq_ignore_ascii_case(&stream) {
                    return Err(ExacmlError::StreamMismatch {
                        requested: stream,
                        query: q.stream.clone(),
                    });
                }
                q.to_graph()?
            }
            None => QueryGraph::identity(&stream),
        };
        let outcome = merge_graphs(&policy_graph, &user_graph, MergeOptions::default())?;
        if has_empty_result(&outcome.warnings)
            || (has_partial_result(&outcome.warnings) && !self.config.deploy_on_partial_result)
        {
            return Err(ExacmlError::ConflictDetected { warnings: outcome.warnings });
        }
        let input_schema = self.engine.stream_schema(&stream)?;
        let script = streamsql::generate(&outcome.graph, &input_schema);
        let query_graph_time = graph_started.elapsed();
        self.telemetry_registry().record(Stage::QueryGraph, query_graph_time);

        // Step 5: ship the StreamSQL to the DSMS and deploy — onto the live
        // plan for the same core, so overlapping grants share one compiled
        // subgraph.
        network += {
            let mut rng = self.rng.lock();
            self.config.topology.round_trip(
                NodeId::DataServer,
                NodeId::Dsms,
                script.len(),
                96,
                &mut *rng,
            )
        };
        let dsms_started = Instant::now();
        let (plan_key, deployment, handle) = self.deploy_grant(
            &grants,
            &policy_graph,
            &user_graph,
            &outcome.graph,
            &input_schema,
            restore.map(|(uri, _)| uri),
        )?;
        let output_schema = self.engine.output_schema(&handle)?;
        let dsms_time = dsms_started.elapsed();
        self.telemetry_registry().record(Stage::DsmsDeploy, dsms_time);
        self.telemetry_registry().record(Stage::Network, network);

        let plan = grants.join_plan(plan_key, deployment);
        let pinned = restore.and_then(|(_, sequence)| sequence);
        let sequence = pinned.unwrap_or_else(|| grants.next_sequence());
        grants.record(Grant {
            sequence,
            subject,
            stream,
            fingerprint,
            user_query: user_query.cloned(),
            handle: handle.clone(),
            deployment,
            plan,
            policy_id: policy_id.clone(),
            graph: outcome.graph,
        });

        let total = started.elapsed() + network;
        Ok(AccessResponse {
            handle,
            output_schema,
            deployment,
            plan,
            policy_id,
            warnings: outcome.warnings,
            streamsql: script,
            reused: false,
            timing: RequestTiming {
                pdp: pdp_time,
                query_graph: query_graph_time,
                dsms: dsms_time,
                network,
                total,
            },
        })
    }

    /// Deploy one grant: decide the core graph and per-grant residual, ride
    /// the live plan of the same core when plan sharing is on (deploying
    /// otherwise), and attach the per-grant handle. Every grant — shared or
    /// not — gets its own attached handle, so release, liveness and recovery
    /// follow one scheme. Returns the plan key to join, the deployment and
    /// the handle; the caller holds the table lock, so concurrent identical
    /// grants serialize here instead of racing into double deployments.
    fn deploy_grant(
        &self,
        grants: &GrantTable,
        policy_graph: &QueryGraph,
        user_graph: &QueryGraph,
        merged: &QueryGraph,
        input_schema: &Schema,
        pinned: Option<&StreamHandle>,
    ) -> Result<(String, DeploymentId, StreamHandle), ExacmlError> {
        let telemetry = self.telemetry_registry();
        let (core, residual) = if self.config.share_plans {
            plan_core(policy_graph, user_graph, merged, input_schema)
        } else {
            (merged.clone(), None)
        };
        // The lookup span covers canonicalisation + probe, not the deploy a
        // miss goes on to pay (that is DsmsDeploy).
        let lookup_started = Instant::now();
        let key = self.config.share_plans.then(|| core.canonical_signature());
        let live = key.as_deref().and_then(|key| grants.plan(key));
        telemetry.record(Stage::PlanCacheLookup, lookup_started.elapsed());
        let deployment = match live {
            Some((_, deployment)) => {
                telemetry.incr(Metric::PlanCacheHits);
                deployment
            }
            None => {
                telemetry.incr(Metric::PlanCacheMisses);
                self.engine.deploy(&core)?.id
            }
        };
        let attached = match pinned {
            Some(uri) => self.engine.attach_handle_as(deployment, residual.as_ref(), uri.clone()),
            None => self.engine.attach_handle(deployment, residual.as_ref()),
        };
        match attached {
            // Unshared mode: every grant gets a private plan under a key no
            // canonical signature can collide with.
            Ok(handle) => {
                Ok((key.unwrap_or_else(|| format!("#unshared/{deployment}")), deployment, handle))
            }
            Err(err) => {
                // Nothing rides a deployment this grant just created.
                if live.is_none() {
                    let _ = self.engine.withdraw(deployment);
                }
                Err(err.into())
            }
        }
    }

    /// Release the access a subject holds on a stream: the per-grant handle
    /// is retired immediately; the backing deployment is withdrawn only when
    /// this was its last grant. Returns `true` when something was released.
    ///
    /// With a commit log attached the release is written ahead: its
    /// `access-released` event is journaled and flushed before anything is
    /// withdrawn, and when that write fails the event is retracted, nothing
    /// is released and `false` is returned — a revoked access must never
    /// come back to life on recovery because its record was lost. A release
    /// of a pair nobody holds journals nothing.
    pub fn release_access(&self, subject: &str, stream: &str) -> bool {
        let Ok(mut commit) = self.begin(GroupKind::Control) else { return false };
        {
            let mut grants = self.grants.lock();
            let Some(held) = grants.held(subject, stream) else { return false };
            let event = self.audit.lock().record(
                AuditEventKind::AccessReleased,
                Some(subject),
                Some(stream),
                None,
                format!("handle {} retired", held.handle),
            );
            if commit.write_ahead().is_err() {
                self.audit.lock().retract(event);
                return false;
            }
            let (grant, last) = grants.release(subject, stream).expect("held under this lock");
            self.retire(&grant, last);
        }
        // The event was written ahead; a failure closing the group (a due
        // compaction) leaves the release applied.
        let _ = commit.finish();
        true
    }

    /// Number of live deployments on the DSMS.
    #[must_use]
    pub fn live_deployments(&self) -> usize {
        self.engine.deployment_count()
    }

    /// Number of live shared plans — distinct compiled operator subgraphs
    /// currently deployed through the access-control workflow. With plan
    /// sharing on, this stays flat while grants multiply.
    #[must_use]
    pub fn plan_count(&self) -> usize {
        self.grants.lock().plan_count()
    }

    /// Total live grants across all plans.
    #[must_use]
    pub fn grant_count(&self) -> usize {
        self.grants.lock().grant_count()
    }

    /// The live grants in grant order (what a journal snapshots and a
    /// recovery replays).
    #[must_use]
    pub fn live_grants(&self) -> Vec<Grant> {
        self.grants.lock().live()
    }

    /// Run `f` on the live grant `subject` holds on `stream`, if any — how
    /// a commit log reads what a `granted` event's replay needs.
    pub fn with_grant<R>(
        &self,
        subject: &str,
        stream: &str,
        f: impl FnOnce(&Grant) -> R,
    ) -> Option<R> {
        self.grants.lock().held(subject, stream).map(f)
    }
}

/// A data server being rebuilt from a journal: the only way to a server
/// with a [`CommitLog`] attached, and the only holder of the recovery
/// hooks. It owns a fresh server nobody else holds, runs the journaled
/// operations through its ordinary methods (it dereferences to it), re-mints
/// grants where the journal recorded them, and hands the server out only
/// from [`Replay::finish`], with the log attached. Replay itself journals
/// nothing.
pub struct Replay {
    server: DataServer,
}

impl Deref for Replay {
    type Target = DataServer;

    fn deref(&self) -> &DataServer {
        &self.server
    }
}

impl Replay {
    /// Start rebuilding a server with the given configuration.
    #[must_use]
    pub fn new(config: ServerConfig) -> Self {
        Replay { server: DataServer::new(config) }
    }

    /// Re-run one journaled grant through the real workflow, adopting its
    /// recorded handle URI verbatim and recording it at `sequence` in grant
    /// order (`None`: after every grant so far). Serial arithmetic cannot
    /// reproduce the URI: released grants are pruned from a journal, so the
    /// serials they consumed are invisible to replay. The deployment-id
    /// counter *is* resumed at the recorded `deployment` first: replay
    /// visits deploying grants in minting order, so the workflow re-mints
    /// the same id, and a sharer of a live plan simply cache-hits it.
    /// Unjournaled and unaudited: [`Replay::finish`] restores the journaled
    /// trail.
    ///
    /// # Errors
    /// [`ExacmlError::Durability`] when the workflow refuses the grant or
    /// diverges from the record (another URI or deployment, or a reuse):
    /// then the journal and the workflow disagree and the store cannot be
    /// trusted.
    pub fn restore_grant(
        &self,
        request: &Request,
        user_query: Option<&UserQuery>,
        handle: &StreamHandle,
        deployment: DeploymentId,
        sequence: Option<u64>,
    ) -> Result<(), ExacmlError> {
        let subject = request.subject_id().unwrap_or_default();
        let stream = request.resource_id().unwrap_or_default();
        self.server.engine.resume_ids_at(deployment.0);
        let response = self
            .server
            .handle_request_inner(request, user_query, Some((handle, sequence)))
            .map_err(|e| {
                ExacmlError::Durability(format!("replay grant {subject} on '{stream}': {e}"))
            })?;
        if response.reused || response.handle != *handle || response.deployment != deployment {
            return Err(ExacmlError::Durability(format!(
                "journal replay diverged: grant for '{subject}' on '{stream}' re-minted {} on \
                 deployment {} (reused: {}), journal says {handle} on deployment {}",
                response.handle, response.deployment.0, response.reused, deployment.0
            )));
        }
        Ok(())
    }

    /// Resume minting past what the journal recorded: deployment ids at
    /// `next_deployment`, handle serials at `next_handle_serial` and the
    /// policy store's revision at `policy_revision`. Each counter only
    /// moves forward, so a counter already past its value stays.
    pub fn resume(&self, next_deployment: u64, next_handle_serial: u64, policy_revision: u64) {
        self.server.engine.resume_ids_at(next_deployment);
        self.server.engine.resume_handle_serial_at(next_handle_serial);
        self.server.store.resume_revision_at(policy_revision);
    }

    /// Finish the rebuild: replace the audit trail the replay regenerated
    /// (fresh timestamps) with the journaled `audit`, keeping its sequence
    /// numbers and timestamps, and attach `log`, which journals every
    /// mutation from now on.
    #[must_use]
    pub fn finish(self, audit: Vec<AuditEvent>, log: impl CommitLog) -> DataServer {
        let mut server = self.server;
        server.audit.lock().restore(audit);
        server.log = Some(Mutex::new(Box::new(log)));
        server
    }
}

/// Decide what to deploy for a grant: the **core** graph that runs on the
/// engine, and the per-grant [`ResidualSpec`] applied at fan-out.
///
/// Two tiers:
///
/// * **Tier 2 (core + residual)** — when both the policy and the user graph
///   are window-free (no aggregation box on either side), the user's filter
///   only references attributes the policy exposes, and the merged
///   projection stays within the policy-visible schema, the deployed core
///   is the *policy* graph alone. The user's refinement becomes a residual:
///   its filter condition re-checked per delivered tuple, the merged
///   projection applied as a column mask. Every grant under the same policy
///   shape then shares one deployment regardless of how its filters differ.
/// * **Tier 1 (exact merge)** — otherwise the merged graph itself is the
///   core with no residual. Aggregating graphs always take this tier:
///   window state is shared only between grants whose merged graphs
///   canonicalize identically, never approximated by residuals.
///
/// Either way the delivered stream is exactly the merged graph's output —
/// tier 2's conditions are precisely what makes `core ∘ residual ≡ merged`.
fn plan_core(
    policy: &QueryGraph,
    user: &QueryGraph,
    merged: &QueryGraph,
    input_schema: &Schema,
) -> (QueryGraph, Option<ResidualSpec>) {
    let tier1 = || (merged.clone(), None);
    if policy.aggregate().is_some() || user.aggregate().is_some() {
        return tier1();
    }
    let Ok(policy_out) = policy.output_schema(input_schema) else {
        return tier1();
    };
    let predicate = match user.filter() {
        Some(f) => {
            if f.condition().attributes().iter().any(|a| !policy_out.contains(a)) {
                return tier1();
            }
            Some(f.condition().clone())
        }
        None => None,
    };
    let projection = match merged.map() {
        Some(m) => {
            if m.attributes().iter().any(|a| !policy_out.contains(a)) {
                return tier1();
            }
            let unchanged = m.attributes().len() == policy_out.len()
                && m.attributes().iter().zip(policy_out.field_names()).all(|(a, b)| a == b);
            if unchanged {
                None // the core already delivers exactly these columns
            } else {
                Some(m.attributes().to_vec())
            }
        }
        None => None,
    };
    (policy.clone(), Some(ResidualSpec { predicate, projection }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obligations::StreamPolicyBuilder;
    use exacml_dsms::{AggFunc, AggSpec, Value, WindowSpec};

    fn example1_policy() -> Policy {
        StreamPolicyBuilder::new("nea-weather-for-lta", "weather")
            .subject("LTA")
            .filter("rainrate > 5")
            .visible_attributes(["samplingtime", "rainrate", "windspeed"])
            .window(
                WindowSpec::tuples(5, 2),
                vec![
                    AggSpec::new("samplingtime", AggFunc::LastValue),
                    AggSpec::new("rainrate", AggFunc::Avg),
                    AggSpec::new("windspeed", AggFunc::Max),
                ],
            )
            .build()
    }

    fn server_with_weather() -> DataServer {
        let server = DataServer::new(ServerConfig::local());
        server.register_stream("weather", Schema::weather_example()).unwrap();
        server.load_policy(example1_policy()).unwrap();
        server
    }

    fn lta_query() -> UserQuery {
        UserQuery::for_stream("weather")
            .with_filter("rainrate > 50")
            .with_map(["samplingtime", "rainrate"])
            .with_aggregation(
                WindowSpec::tuples(10, 2),
                vec![
                    AggSpec::new("samplingtime", AggFunc::LastValue),
                    AggSpec::new("rainrate", AggFunc::Avg),
                ],
            )
    }

    #[test]
    fn grants_the_running_example_and_streams_data() {
        // Deploy with partial results allowed (the LTA refinement hides
        // attributes, which raises a PR warning by design).
        let server = DataServer::new(ServerConfig {
            deploy_on_partial_result: true,
            ..ServerConfig::local()
        });
        server.register_stream("weather", Schema::weather_example()).unwrap();
        server.load_policy(example1_policy()).unwrap();

        let request = Request::subscribe("LTA", "weather");
        let response = server.handle_request(&request, Some(&lta_query())).unwrap();
        assert!(!response.reused);
        assert_eq!(response.policy_id, "nea-weather-for-lta");
        assert!(response.streamsql.contains("SIZE 10 ADVANCE 2 TUPLES"));
        assert_eq!(
            response.output_schema.field_names(),
            vec!["lastvalsamplingtime", "avgrainrate"]
        );
        assert!(response.timing.total >= response.timing.dsms);

        // Stream 30 heavy-rain tuples and observe aggregated output.
        let rx = server.subscribe(&response.handle).unwrap();
        let schema = Schema::weather_example();
        for i in 0..30 {
            let tuple = Tuple::builder(&schema)
                .set("samplingtime", Value::Timestamp(i64::from(i) * 30_000))
                .set("rainrate", 60.0 + f64::from(i))
                .set("windspeed", 10.0)
                .finish_with_defaults();
            server.push("weather", tuple).unwrap();
        }
        let outputs: Vec<Tuple> = rx.try_iter().collect();
        assert!(!outputs.is_empty());
        assert!(outputs[0].get_f64("avgrainrate").unwrap() > 60.0);
    }

    #[test]
    fn denies_unknown_subjects_and_streams() {
        let server = server_with_weather();
        let err = server.handle_request(&Request::subscribe("EMA", "weather"), None).unwrap_err();
        assert!(matches!(err, ExacmlError::AccessDenied { .. }));
        let err = server.handle_request(&Request::subscribe("LTA", "gps"), None).unwrap_err();
        assert!(matches!(err, ExacmlError::AccessDenied { .. }));
        let err = server.handle_request(&Request::new(), None).unwrap_err();
        assert!(matches!(err, ExacmlError::IncompleteRequest(_)));
    }

    #[test]
    fn plain_request_without_user_query_deploys_policy_graph() {
        let server = server_with_weather();
        let response = server.handle_request(&Request::subscribe("LTA", "weather"), None).unwrap();
        assert!(response.warnings.is_empty());
        assert!(response.streamsql.contains("WHERE rainrate > 5"));
        assert!(response.streamsql.contains("SIZE 5 ADVANCE 2 TUPLES"));
        assert_eq!(server.live_deployments(), 1);
    }

    #[test]
    fn identical_rerequest_reuses_the_existing_handle() {
        let server = server_with_weather();
        let request = Request::subscribe("LTA", "weather");
        let first = server.handle_request(&request, None).unwrap();
        let second = server.handle_request(&request, None).unwrap();
        assert!(second.reused);
        assert_eq!(first.handle, second.handle);
        assert_eq!(server.live_deployments(), 1);
    }

    #[test]
    fn different_query_on_same_stream_is_blocked() {
        let server = DataServer::new(ServerConfig {
            deploy_on_partial_result: true,
            ..ServerConfig::local()
        });
        server.register_stream("weather", Schema::weather_example()).unwrap();
        server.load_policy(example1_policy()).unwrap();
        let request = Request::subscribe("LTA", "weather");
        server.handle_request(&request, None).unwrap();
        // The Example 2 attack: a second, different window on the same stream.
        let err = server.handle_request(&request, Some(&lta_query())).unwrap_err();
        assert!(matches!(err, ExacmlError::MultipleAccess { .. }));
        // Releasing the first access unblocks the second query.
        assert!(server.release_access("LTA", "weather"));
        assert!(server.handle_request(&request, Some(&lta_query())).is_ok());
    }

    #[test]
    fn conflicting_query_yields_nr_and_no_deployment() {
        let server = server_with_weather();
        let query = UserQuery::for_stream("weather")
            .with_filter("rainrate < 2") // contradicts the policy's rainrate > 5
            .with_map(["samplingtime", "rainrate", "windspeed"])
            .with_aggregation(
                WindowSpec::tuples(5, 2),
                vec![
                    AggSpec::new("samplingtime", AggFunc::LastValue),
                    AggSpec::new("rainrate", AggFunc::Avg),
                    AggSpec::new("windspeed", AggFunc::Max),
                ],
            );
        let err =
            server.handle_request(&Request::subscribe("LTA", "weather"), Some(&query)).unwrap_err();
        match err {
            ExacmlError::ConflictDetected { warnings } => {
                assert!(has_empty_result(&warnings));
            }
            other => panic!("expected ConflictDetected, got {other}"),
        }
        assert_eq!(server.live_deployments(), 0);
    }

    #[test]
    fn finer_window_than_policy_is_rejected() {
        let server = server_with_weather();
        let query = UserQuery::for_stream("weather").with_aggregation(
            WindowSpec::tuples(3, 2),
            vec![AggSpec::new("rainrate", AggFunc::Avg)],
        );
        let err =
            server.handle_request(&Request::subscribe("LTA", "weather"), Some(&query)).unwrap_err();
        assert!(matches!(err, ExacmlError::WindowTooFine { .. }));
    }

    #[test]
    fn removing_a_policy_withdraws_its_graphs() {
        let server = server_with_weather();
        let request = Request::subscribe("LTA", "weather");
        let response = server.handle_request(&request, None).unwrap();
        assert!(server.handle_is_live(&response.handle));

        let withdrawn = server.remove_policy("nea-weather-for-lta").unwrap();
        assert_eq!(withdrawn, 1);
        assert!(!server.handle_is_live(&response.handle));
        assert_eq!(server.live_deployments(), 0);
        // The next request is denied: the policy is gone.
        assert!(matches!(
            server.handle_request(&request, None),
            Err(ExacmlError::AccessDenied { .. })
        ));
    }

    #[test]
    fn updating_a_policy_also_withdraws_existing_graphs() {
        let server = server_with_weather();
        let request = Request::subscribe("LTA", "weather");
        let response = server.handle_request(&request, None).unwrap();
        let updated = StreamPolicyBuilder::new("nea-weather-for-lta", "weather")
            .subject("LTA")
            .filter("rainrate > 100")
            .build();
        let withdrawn = server.update_policy(updated).unwrap();
        assert_eq!(withdrawn, 1);
        assert!(!server.handle_is_live(&response.handle));
        // A fresh request succeeds under the new policy.
        let fresh = server.handle_request(&request, None).unwrap();
        assert!(fresh.streamsql.contains("rainrate > 100"));
    }

    #[test]
    fn policy_loading_is_tracked() {
        let server = DataServer::new(ServerConfig::local());
        for i in 0..20 {
            let policy = StreamPolicyBuilder::new(format!("p{i}"), "weather")
                .subject(format!("user{i}"))
                .filter("rainrate > 1")
                .build();
            let elapsed = server.load_policy(policy).unwrap();
            assert!(elapsed > Duration::ZERO);
        }
        assert_eq!(server.policy_count(), 20);
        let loaded =
            server.audit_events().into_iter().filter(|e| e.kind == AuditEventKind::PolicyLoaded);
        assert_eq!(loaded.count(), 20);
    }

    #[test]
    fn release_of_unknown_pairs_and_double_release_are_noops_with_stable_stats() {
        let server = server_with_weather();
        let request = Request::subscribe("LTA", "weather");
        let response = server.handle_request(&request, None).unwrap();
        let stats_before = server.telemetry_registry().snapshot();
        let audit_before = server.audit_events().len();

        // Unknown subject, unknown stream, unknown both: all no-ops.
        assert!(!server.release_access("EMA", "weather"));
        assert!(!server.release_access("LTA", "gps"));
        assert!(!server.release_access("nobody", "nothing"));
        assert_eq!(server.telemetry_registry().snapshot(), stats_before);
        assert_eq!(server.audit_events().len(), audit_before);
        assert!(server.handle_is_live(&response.handle));
        assert_eq!(server.live_deployments(), 1);

        // A real release withdraws exactly one deployment...
        assert!(server.release_access("LTA", "weather"));
        let stats_released = server.telemetry_registry().snapshot();
        assert_eq!(server.live_deployments(), 0);
        assert!(!server.handle_is_live(&response.handle));

        // ...and the double release is a no-op with stable stats again.
        assert!(!server.release_access("LTA", "weather"));
        assert!(!server.release_access("lta", "WEATHER")); // case-insensitive key
        assert_eq!(server.telemetry_registry().snapshot(), stats_released);
        assert_eq!(server.live_deployments(), 0);
    }

    #[test]
    fn release_after_policy_removal_is_a_noop() {
        let server = server_with_weather();
        let request = Request::subscribe("LTA", "weather");
        let response = server.handle_request(&request, None).unwrap();
        // The policy removal already withdrew the graph and freed the guard
        // slot; a subsequent client release must be a clean no-op.
        server.remove_policy("nea-weather-for-lta").unwrap();
        let stats = server.telemetry_registry().snapshot();
        assert!(!server.release_access("LTA", "weather"));
        assert_eq!(server.telemetry_registry().snapshot(), stats);
        assert!(!server.handle_is_live(&response.handle));
    }

    #[test]
    fn handle_is_live_is_false_for_foreign_and_withdrawn_handles() {
        let server = server_with_weather();
        // Never-granted handles (wrong host, wrong id) are simply not live.
        assert!(!server.handle_is_live(&StreamHandle::from_uri("exacml://elsewhere/streams/0")));
        assert!(!server.handle_is_live(&StreamHandle::mint("other-host", 99)));

        let response = server.handle_request(&Request::subscribe("LTA", "weather"), None).unwrap();
        assert!(server.handle_is_live(&response.handle));
        server.release_access("LTA", "weather");
        assert!(!server.handle_is_live(&response.handle));
        // Liveness stays false on repeated queries (no resurrection).
        assert!(!server.handle_is_live(&response.handle));
    }

    fn open_weather_server(share_plans: bool) -> DataServer {
        let server = DataServer::new(ServerConfig {
            share_plans,
            deploy_on_partial_result: true,
            ..ServerConfig::local()
        });
        server.register_stream("weather", Schema::weather_example()).unwrap();
        // No subject constraint: any subject may subscribe, so N consumers
        // produce N overlapping grants of one policy shape.
        server
            .load_policy(
                StreamPolicyBuilder::new("open-weather", "weather").filter("rainrate > 5").build(),
            )
            .unwrap();
        server
    }

    fn rain_tuple(i: i64, rain: f64, wind: f64) -> Tuple {
        Tuple::builder(&Schema::weather_example())
            .set("samplingtime", Value::Timestamp(i * 30_000))
            .set("rainrate", rain)
            .set("windspeed", wind)
            .finish_with_defaults()
    }

    #[test]
    fn overlapping_grants_share_one_compiled_plan() {
        let server = open_weather_server(true);
        let responses: Vec<AccessResponse> = (0..8)
            .map(|i| {
                server
                    .handle_request(&Request::subscribe(&format!("user{i}"), "weather"), None)
                    .unwrap()
            })
            .collect();
        // One deployment, one plan, eight grants with distinct handles.
        assert_eq!(server.live_deployments(), 1);
        assert_eq!(server.plan_count(), 1);
        assert_eq!(server.grant_count(), 8);
        assert!(responses.iter().all(|r| r.plan == responses[0].plan));
        assert!(responses.iter().all(|r| r.deployment == responses[0].deployment));
        let distinct: std::collections::HashSet<&str> =
            responses.iter().map(|r| r.handle.uri()).collect();
        assert_eq!(distinct.len(), 8);

        // The shared plan fans out to every grant.
        let rxs: Vec<_> = responses.iter().map(|r| server.subscribe(&r.handle).unwrap()).collect();
        server.push("weather", rain_tuple(0, 10.0, 1.0)).unwrap();
        server.push("weather", rain_tuple(1, 1.0, 1.0)).unwrap(); // filtered out
        for rx in &rxs {
            assert_eq!(rx.try_iter().count(), 1);
        }
    }

    #[test]
    fn releasing_shared_grants_withdraws_the_deployment_only_at_zero() {
        let server = open_weather_server(true);
        let responses: Vec<AccessResponse> = (0..3)
            .map(|i| {
                server
                    .handle_request(&Request::subscribe(&format!("user{i}"), "weather"), None)
                    .unwrap()
            })
            .collect();
        assert!(server.release_access("user0", "weather"));
        assert!(server.release_access("user1", "weather"));
        // Released handles die immediately; the shared deployment survives
        // for the remaining grant.
        assert!(!server.handle_is_live(&responses[0].handle));
        assert!(!server.handle_is_live(&responses[1].handle));
        assert!(server.handle_is_live(&responses[2].handle));
        assert_eq!(server.live_deployments(), 1);
        assert_eq!(server.grant_count(), 1);
        // The last release drops the refcount to zero and withdraws.
        assert!(server.release_access("user2", "weather"));
        assert_eq!(server.live_deployments(), 0);
        assert_eq!(server.plan_count(), 0);
    }

    #[test]
    fn share_plans_off_deploys_one_graph_per_grant() {
        let server = open_weather_server(false);
        for i in 0..4 {
            server
                .handle_request(&Request::subscribe(&format!("user{i}"), "weather"), None)
                .unwrap();
        }
        // The unmerged baseline: grants and deployments grow in lockstep.
        assert_eq!(server.live_deployments(), 4);
        assert_eq!(server.plan_count(), 4);
        assert_eq!(server.grant_count(), 4);
    }

    #[test]
    fn tier2_residuals_share_the_policy_core_across_different_user_filters() {
        let server = open_weather_server(true);
        let heavy = UserQuery::for_stream("weather").with_filter("rainrate > 50");
        let windy = UserQuery::for_stream("weather").with_filter("windspeed > 3");
        let a =
            server.handle_request(&Request::subscribe("alice", "weather"), Some(&heavy)).unwrap();
        let b = server.handle_request(&Request::subscribe("bob", "weather"), Some(&windy)).unwrap();
        // Window-free grants with in-schema filters ride the policy core:
        // one deployment despite the differing refinements.
        assert_eq!(a.deployment, b.deployment);
        assert_eq!(server.live_deployments(), 1);
        assert_eq!(server.plan_count(), 1);

        // Each grant still receives exactly its own merged output.
        let rx_a = server.subscribe(&a.handle).unwrap();
        let rx_b = server.subscribe(&b.handle).unwrap();
        server.push("weather", rain_tuple(0, 60.0, 1.0)).unwrap(); // heavy only
        server.push("weather", rain_tuple(1, 10.0, 5.0)).unwrap(); // windy only
        server.push("weather", rain_tuple(2, 3.0, 9.0)).unwrap(); // policy-filtered
        let got_a: Vec<Tuple> = rx_a.try_iter().collect();
        let got_b: Vec<Tuple> = rx_b.try_iter().collect();
        assert_eq!(got_a.len(), 1);
        assert!(got_a[0].get_f64("rainrate").unwrap() > 50.0);
        assert_eq!(got_b.len(), 1);
        assert!(got_b[0].get_f64("windspeed").unwrap() > 3.0);
    }

    #[test]
    fn cross_policy_sharers_survive_the_other_policys_withdrawal() {
        let server = DataServer::new(ServerConfig::local());
        server.register_stream("weather", Schema::weather_example()).unwrap();
        // Two policies with identical obligations for different subjects:
        // their cores canonicalize identically, so the grants share a plan.
        for (id, subject) in [("p-lta", "LTA"), ("p-ema", "EMA")] {
            server
                .load_policy(
                    StreamPolicyBuilder::new(id, "weather")
                        .subject(subject)
                        .filter("rainrate > 5")
                        .build(),
                )
                .unwrap();
        }
        let lta = server.handle_request(&Request::subscribe("LTA", "weather"), None).unwrap();
        let ema = server.handle_request(&Request::subscribe("EMA", "weather"), None).unwrap();
        assert_eq!(lta.deployment, ema.deployment);
        assert_eq!(server.plan_count(), 1);

        // Withdrawing p-lta evicts only LTA's grant; EMA keeps streaming on
        // the (still-referenced) shared deployment.
        assert_eq!(server.remove_policy("p-lta").unwrap(), 1);
        assert!(!server.handle_is_live(&lta.handle));
        assert!(server.handle_is_live(&ema.handle));
        assert_eq!(server.live_deployments(), 1);
        assert_eq!(server.grant_count(), 1);
        let rx = server.subscribe(&ema.handle).unwrap();
        server.push("weather", rain_tuple(0, 10.0, 1.0)).unwrap();
        assert_eq!(rx.try_iter().count(), 1);
        // EMA's release is the last reference: the deployment goes too.
        assert!(server.release_access("EMA", "weather"));
        assert_eq!(server.live_deployments(), 0);
    }

    #[test]
    fn telemetry_reproduces_the_request_decomposition() {
        let server = server_with_weather();
        let request = Request::subscribe("LTA", "weather");
        let response = server.handle_request(&request, None).unwrap();
        // The denied path records into the same registry.
        assert!(server.handle_request(&Request::subscribe("EMA", "weather"), None).is_err());

        let snapshot = server.telemetry_registry().snapshot();
        assert_eq!(snapshot.counter(Metric::Requests), 2);
        assert_eq!(snapshot.counter(Metric::RequestsGranted), 1);
        assert_eq!(snapshot.counter(Metric::RequestsDenied), 1);
        assert_eq!(snapshot.counter(Metric::PlanCacheMisses), 1);

        // The paper's Figure 6/7 series — PDP, query graph, DSMS deploy,
        // network — all present, and consistent with the per-request
        // RequestTiming the grant itself reported.
        assert_eq!(snapshot.stage(Stage::Pdp).unwrap().count, 2);
        assert_eq!(snapshot.stage(Stage::QueryGraph).unwrap().count, 1);
        assert_eq!(snapshot.stage(Stage::DsmsDeploy).unwrap().count, 1);
        assert_eq!(snapshot.stage(Stage::Network).unwrap().count, 1);
        assert_eq!(
            snapshot.stage(Stage::Network).unwrap().total_nanos,
            u64::try_from(response.timing.network.as_nanos()).unwrap()
        );
        assert!(
            snapshot.stage(Stage::DsmsDeploy).unwrap().total_nanos
                <= u64::try_from(response.timing.total.as_nanos()).unwrap()
        );

        // A plan-cache hit on a second subject under the same policy shape.
        let server = open_weather_server(true);
        server.handle_request(&Request::subscribe("a", "weather"), None).unwrap();
        server.handle_request(&Request::subscribe("b", "weather"), None).unwrap();
        let snapshot = server.telemetry_registry().snapshot();
        assert_eq!(snapshot.counter(Metric::PlanCacheHits), 1);
        assert_eq!(snapshot.counter(Metric::PlanCacheMisses), 1);
        assert_eq!(snapshot.stage(Stage::PlanCacheLookup).unwrap().count, 2);
    }

    #[test]
    fn mismatched_user_query_stream_is_rejected() {
        let server = server_with_weather();
        let query = UserQuery::for_stream("gps").with_filter("speed > 10");
        let err =
            server.handle_request(&Request::subscribe("LTA", "weather"), Some(&query)).unwrap_err();
        assert!(matches!(err, ExacmlError::StreamMismatch { .. }));
    }
}
