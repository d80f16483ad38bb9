//! The typed query layer: describe what you want from a stream without
//! writing wire-form XML.
//!
//! [`Query`] lists its three shapes.
//!
//! ```
//! use exacml::prelude::*;
//! use exacml::exacml_dsms::Schema;
//!
//! let backend = BackendBuilder::local().build();
//! backend.register_stream("weather", Schema::weather_example())?;
//! backend.load_policy(
//!     StreamPolicyBuilder::new("open", "weather").filter("rainrate > 5").build(),
//! )?;
//!
//! let lta = Session::new(backend.clone(), "LTA");
//! let nea = Session::new(backend.clone(), "NEA");
//! let a = lta.subscribe(Query::on("weather").filter("rainrate > 30"))?;
//! let b = nea.subscribe(Query::on("weather").filter("rainrate > 60"))?;
//! // Different filters, same policy core: one compiled plan serves both.
//! assert_eq!(a.plan(), b.plan());
//! assert_eq!(backend.live_plans(), 1);
//! # Ok::<(), exacml::prelude::ExacmlError>(())
//! ```

use exacml_dsms::{AggSpec, StreamHandle, Tuple, WindowSpec};
use exacml_plus::{ExacmlError, PlanId, Subscription, UserQuery, Warning};

use crate::session::Session;

/// How a [`Query`] binds to a grant.
#[derive(Debug, Clone, PartialEq)]
enum Shape {
    /// Attach to the session's existing grant on the stream; never request.
    Lookup,
    /// Request access with this customised query (empty = policy default
    /// view), then subscribe.
    Structured(UserQuery),
}

/// A typed description of what a consumer wants from a stream.
///
/// It is the front-door type [`Session::subscribe`] accepts (via
/// `impl Into<Query>`), and it comes in three shapes:
///
/// * **Bare stream name** — `session.subscribe("weather")` attaches to the
///   grant the session *already* holds on that stream and never issues a
///   new access request ([`ExacmlError::UnknownHandle`] when there is
///   none). This is the pre-existing `Session::subscribe` contract,
///   preserved verbatim.
/// * **Structured** — `Query::on("weather").filter("rainrate > 30")`
///   requests access (the Section 3.2 workflow: PDP decision, NR/PR merge
///   analysis, shared-plan deployment) and subscribes in one step.
/// * **Wire form** — [`Query::from_xml`] parses the `<Query>` document a
///   remote client ships (the same encoding the durable WAL journals), for
///   callers that really do hold raw XML. Everything else should use the
///   builder.
///
/// The result is a [`QuerySubscription`]: the transport
/// [`Subscription`] plus the grant's identity —
/// which shared plan it rides ([`QuerySubscription::plan`]) and the NR/PR
/// [`Warning`]s the merge raised.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    stream: String,
    shape: Shape,
}

impl Query {
    /// A structured query over `stream` with no refinements yet: subscribing
    /// it requests access to the policy's default view of the stream.
    #[must_use]
    pub fn on(stream: impl Into<String>) -> Self {
        let stream = stream.into();
        Query { shape: Shape::Structured(UserQuery::for_stream(&stream)), stream }
    }

    /// Parse the wire-form `<Query>` document (the encoding remote clients
    /// ship and the durable WAL journals). The raw-XML escape hatch — use
    /// the [`Query::on`] builder everywhere you are not literally holding
    /// XML.
    ///
    /// # Errors
    /// [`ExacmlError::InvalidUserQuery`] when the document does not parse.
    pub fn from_xml(xml: &str) -> Result<Self, ExacmlError> {
        let query = UserQuery::from_xml(xml)?;
        Ok(Query { stream: query.stream.clone(), shape: Shape::Structured(query) })
    }

    /// The stream this query targets.
    #[must_use]
    pub fn stream(&self) -> &str {
        &self.stream
    }

    /// Whether this is a bare-name lookup (attach to an existing grant
    /// only) rather than a structured access request.
    #[must_use]
    pub fn is_lookup(&self) -> bool {
        self.shape == Shape::Lookup
    }

    /// The structured query, upgrading a bare lookup in place: refining a
    /// query is what turns "attach to what I have" into "request this".
    fn structured(&mut self) -> &mut UserQuery {
        if let Shape::Lookup = self.shape {
            self.shape = Shape::Structured(UserQuery::for_stream(&self.stream));
        }
        match &mut self.shape {
            Shape::Structured(query) => query,
            Shape::Lookup => unreachable!("just upgraded"),
        }
    }

    /// Refine with an additional filter condition, e.g. `"rainrate > 30"`.
    /// The PEP conjoins it with the policy's own filter (safe
    /// intersection), so it can only narrow what the policy allows.
    #[must_use]
    pub fn filter(mut self, condition: impl Into<String>) -> Self {
        self.structured().filter = Some(condition.into());
        self
    }

    /// Project onto these attributes. Attributes the policy withholds raise
    /// a PR [`Warning`] at subscribe time instead of leaking.
    #[must_use]
    pub fn select<I, S>(mut self, attrs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.structured().map = attrs.into_iter().map(Into::into).collect();
        self
    }

    /// Aggregate over a sliding window: `function(attribute)` pairs
    /// evaluated per window close. The window must coarsen the policy's
    /// own, if the policy aggregates.
    #[must_use]
    pub fn window<I>(mut self, window: WindowSpec, specs: I) -> Self
    where
        I: IntoIterator<Item = AggSpec>,
    {
        let query = self.structured();
        *query = query.clone().with_aggregation(window, specs.into_iter().collect());
        self
    }

    /// The equivalent [`UserQuery`] to attach to the access request: `None`
    /// for a bare lookup *and* for a structured query with no refinements
    /// (the policy's default view needs no customised query).
    #[must_use]
    pub fn to_user_query(&self) -> Option<UserQuery> {
        match &self.shape {
            Shape::Lookup => None,
            Shape::Structured(query) => (!query.is_empty()).then(|| query.clone()),
        }
    }
}

/// A bare stream name: attach to the session's existing grant, never
/// request access. `session.subscribe("weather")` keeps its historical
/// meaning — [`ExacmlError::UnknownHandle`] before `request_access`.
impl From<&str> for Query {
    fn from(stream: &str) -> Self {
        Query { stream: stream.to_string(), shape: Shape::Lookup }
    }
}

/// See [`From<&str>`](#impl-From<%26str>-for-Query): bare names are
/// lookup-only.
impl From<String> for Query {
    fn from(stream: String) -> Self {
        Query { stream, shape: Shape::Lookup }
    }
}

/// See [`From<&str>`](#impl-From<%26str>-for-Query): bare names are
/// lookup-only.
impl From<&String> for Query {
    fn from(stream: &String) -> Self {
        Query { stream: stream.clone(), shape: Shape::Lookup }
    }
}

/// A hand-built [`UserQuery`] subscribes as a structured query.
impl From<UserQuery> for Query {
    fn from(query: UserQuery) -> Self {
        Query { stream: query.stream.clone(), shape: Shape::Structured(query) }
    }
}

/// A live subscription plus the identity of the grant behind it: the
/// shared plan it rides and the NR/PR warnings its merge raised.
///
/// Dereferences to the transport [`Subscription`], so `drain()` and
/// friends work unchanged.
pub struct QuerySubscription {
    inner: Subscription,
    handle: StreamHandle,
    plan: PlanId,
    warnings: Vec<Warning>,
}

impl QuerySubscription {
    pub(crate) fn new(
        inner: Subscription,
        handle: StreamHandle,
        plan: PlanId,
        warnings: Vec<Warning>,
    ) -> Self {
        QuerySubscription { inner, handle, plan, warnings }
    }

    /// The shared operator plan this subscription rides. Subscriptions with
    /// equal plan ids are served by **one** compiled subgraph on the DSMS,
    /// however many subscribers hold them.
    #[must_use]
    pub fn plan(&self) -> PlanId {
        self.plan
    }

    /// The NR/PR warnings the policy/query merge raised (Section 3.5):
    /// empty when the subscriber sees exactly what it asked for.
    #[must_use]
    pub fn warnings(&self) -> &[Warning] {
        &self.warnings
    }

    /// The granted stream handle this subscription is attached to.
    #[must_use]
    pub fn handle(&self) -> &StreamHandle {
        &self.handle
    }

    /// Drain every tuple delivered so far (delegates to the transport
    /// subscription).
    pub fn drain(&mut self) -> Vec<Tuple> {
        self.inner.drain()
    }
}

impl std::ops::Deref for QuerySubscription {
    type Target = Subscription;
    fn deref(&self) -> &Subscription {
        &self.inner
    }
}

impl std::ops::DerefMut for QuerySubscription {
    fn deref_mut(&mut self) -> &mut Subscription {
        &mut self.inner
    }
}

/// `Session::subscribe` accepts anything convertible into a [`Query`]; the
/// conversions above make `&str`, `String`, [`UserQuery`] and [`Query`]
/// itself all work.
impl Session {
    /// Subscribe this session to a [`Query`] (or anything convertible into
    /// one — see [`Query`] for the three shapes).
    ///
    /// A structured query runs the full Section 3.2 workflow first; the
    /// granted handle joins the session's RAII-released grants exactly as
    /// with [`Session::request_access`]. A bare stream name only attaches
    /// to a grant the session already holds.
    ///
    /// # Errors
    /// [`ExacmlError::UnknownHandle`] for a bare name with no live grant;
    /// otherwise propagates denial, conflict and substrate errors from the
    /// backend.
    pub fn subscribe(&self, query: impl Into<Query>) -> Result<QuerySubscription, ExacmlError> {
        let query: Query = query.into();
        if query.is_lookup() {
            return self.attach(query.stream());
        }
        let user_query = query.to_user_query();
        let response = self.request_access(query.stream(), user_query.as_ref())?;
        let inner = self.backend().subscribe(response.handle())?;
        Ok(QuerySubscription::new(
            inner,
            response.response.handle,
            response.response.plan,
            response.response.warnings,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::BackendBuilder;
    use exacml_dsms::{AggFunc, Schema, Value};
    use exacml_plus::{Backend, StreamPolicyBuilder, WarningKind};
    use exacml_xacml::Request;
    use std::sync::Arc;

    fn open_backend() -> Arc<dyn Backend> {
        let backend = BackendBuilder::local().deploy_on_partial_result(true).build();
        backend.register_stream("weather", Schema::weather_example()).unwrap();
        backend
            .load_policy(StreamPolicyBuilder::new("open", "weather").filter("rainrate > 5").build())
            .unwrap();
        backend
    }

    fn rain(schema: &Arc<Schema>, i: i64, rate: f64) -> Tuple {
        Tuple::builder_shared(schema)
            .set("samplingtime", Value::Timestamp(i * 1000))
            .set("rainrate", rate)
            .finish_with_defaults()
    }

    #[test]
    fn bare_names_are_lookup_only_and_structured_queries_request() {
        let backend = open_backend();
        let session = Session::new(backend.clone(), "LTA");
        // The historical contract: a bare name never requests access.
        assert!(matches!(session.subscribe("weather"), Err(ExacmlError::UnknownHandle(_))));

        // A structured query requests and subscribes in one step …
        let granted = session.subscribe(Query::on("weather")).unwrap();
        assert!(granted.warnings().is_empty());
        assert!(backend.handle_is_live(granted.handle()));
        // … after which the bare name attaches to that same grant.
        let again = session.subscribe("weather").unwrap();
        assert_eq!(again.plan(), granted.plan());
        assert_eq!(again.handle(), granted.handle());
    }

    #[test]
    fn overlapping_typed_queries_share_one_plan_and_deliver_refined_views() {
        let backend = open_backend();
        let schema = Schema::weather_example().shared();
        let lta = Session::new(backend.clone(), "LTA");
        let nea = Session::new(backend.clone(), "NEA");

        let mut heavy = lta.subscribe(Query::on("weather").filter("rainrate > 30")).unwrap();
        let mut all = nea.subscribe(Query::on("weather")).unwrap();
        assert_eq!(heavy.plan(), all.plan(), "same policy core → one shared plan");
        assert_eq!(backend.live_plans(), 1);

        backend.push_batch("weather", (0..4).map(|i| rain(&schema, i, 20.0)).collect()).unwrap();
        backend.push_batch("weather", (4..6).map(|i| rain(&schema, i, 50.0)).collect()).unwrap();
        assert_eq!(all.drain().len(), 6, "policy view: everything above 5");
        assert_eq!(heavy.drain().len(), 2, "residual narrows to above 30");
    }

    #[test]
    fn typed_subscriptions_surface_merge_warnings() {
        let backend = BackendBuilder::local().deploy_on_partial_result(true).build();
        backend.register_stream("weather", Schema::weather_example()).unwrap();
        backend
            .load_policy(
                StreamPolicyBuilder::new("narrow", "weather")
                    .filter("rainrate > 5")
                    .visible_attributes(["samplingtime", "rainrate", "windspeed"])
                    .build(),
            )
            .unwrap();
        let session = Session::new(backend, "LTA");
        let narrowed = session
            .subscribe(
                Query::on("weather").filter("rainrate > 30").select(["samplingtime", "rainrate"]),
            )
            .unwrap();
        assert!(
            narrowed.warnings().iter().any(|w| w.kind == WarningKind::PartialResult),
            "projecting away the filtered attribute is a PR warning: {:?}",
            narrowed.warnings()
        );
    }

    #[test]
    fn windowed_queries_aggregate_per_window_close() {
        let backend = open_backend();
        let schema = Schema::weather_example().shared();
        let session = Session::new(backend.clone(), "LTA");
        let mut averages = session
            .subscribe(
                Query::on("weather")
                    .window(WindowSpec::tuples(4, 4), [AggSpec::new("rainrate", AggFunc::Avg)]),
            )
            .unwrap();
        backend.push_batch("weather", (0..8).map(|i| rain(&schema, i, 10.0)).collect()).unwrap();
        let out = averages.drain();
        assert_eq!(out.len(), 2, "two tumbling windows of four tuples each");
    }

    #[test]
    fn wire_form_round_trips_through_from_xml() {
        let typed = Query::on("weather").filter("rainrate > 30").select(["samplingtime"]);
        let xml = typed.to_user_query().unwrap().to_xml();
        assert_eq!(Query::from_xml(&xml).unwrap(), typed);
        assert!(Query::from_xml("<not a query>").is_err());
    }

    #[test]
    fn session_raii_still_covers_typed_grants() {
        let backend = open_backend();
        {
            let session = Session::new(backend.clone(), "LTA");
            let _sub = session.subscribe(Query::on("weather").filter("rainrate > 30")).unwrap();
            assert_eq!(backend.live_deployments(), 1);
        }
        assert_eq!(backend.live_deployments(), 0, "dropping the session released the plan");
    }

    #[test]
    fn user_queries_convert_and_hand_rolled_requests_agree() {
        let backend = open_backend();
        let typed = Session::new(backend.clone(), "LTA");
        let raw = Session::new(backend.clone(), "NEA");

        let via_query = typed
            .subscribe(Query::from(
                exacml_plus::UserQuery::for_stream("weather").with_filter("rainrate > 30"),
            ))
            .unwrap();
        let via_request = backend
            .handle_request(
                &Request::subscribe("NEA", "weather"),
                Some(&exacml_plus::UserQuery::for_stream("weather").with_filter("rainrate > 30")),
            )
            .unwrap();
        drop(raw);
        assert_eq!(via_query.plan(), via_request.response.plan);
    }
}
