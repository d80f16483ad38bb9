//! eXACML+ umbrella crate: one API over every deployment shape.
//!
//! This crate is the front door of the reproduction of *"Cloud and the
//! City: Facilitating Flexible Access Control over Data Streams"* (Wang,
//! Dinh, Lim, Datta — SDMW 2012). It re-exports every subsystem of the
//! workspace **and** carries the ergonomic entry layer most code should
//! start from:
//!
//! ```
//! use exacml::prelude::*;
//! use exacml::exacml_dsms::Schema;
//!
//! // One line decides the deployment shape: a single in-process server …
//! let backend = BackendBuilder::local().build();
//! // … or an N-node brokering fabric: `BackendBuilder::fabric(3).build()`.
//!
//! backend.register_stream("weather", Schema::weather_example())?;
//! backend.load_policy(
//!     StreamPolicyBuilder::new("nea-weather-for-lta", "weather")
//!         .subject("LTA")
//!         .filter("rainrate > 5")
//!         .build(),
//! )?;
//!
//! let session = Session::new(backend.clone(), "LTA");
//! let granted = session.request_access("weather", None)?;
//! let mut subscription = session.subscribe("weather")?;
//! assert!(backend.handle_is_live(granted.handle()));
//! drop(session); // RAII: every grant the session held is released
//! assert_eq!(backend.live_deployments(), 0);
//! # Ok::<(), exacml::prelude::ExacmlError>(())
//! ```
//!
//! # The backend trait layer
//!
//! Every backend — [`DataServer`](exacml_plus::DataServer) for one node,
//! [`Fabric`](exacml_plus::Fabric) for N nodes behind the routing broker,
//! [`DurableServer`](exacml_durable::DurableServer) for a single node whose
//! state survives a restart (a `DataServer` with a WAL commit log
//! attached) — implements the one object-safe trait
//! [`Backend`](exacml_plus::Backend), whose methods cover:
//!
//! * the data plane — register streams, push tuples (single or batched),
//!   subscribe to granted handles via the backend-agnostic
//!   [`Subscription`](exacml_plus::Subscription);
//! * the Section 3.2 request workflow returning a unified
//!   [`BackendResponse`](exacml_plus::BackendResponse), plus release;
//! * Section 3.3 policy load/remove/update/count (fabric-wide propagation
//!   included);
//! * the node-tagged audit trail and deployment observability.
//!
//! Scenario code, tests, feeds and benches written against `&dyn Backend`
//! (or a generic `B: Backend + ?Sized`) run unchanged on any shape —
//! `tests/backend_conformance.rs` executes one suite against all four,
//! and `examples/backend_swap.rs` is the same scenario twice with only the
//! builder line changed.
//!
//! [`BackendBuilder`] constructs every shape (`local()`, `fabric(n)`,
//! `durable(path)`, `replicated(n, path)`), with the deployment topology
//! chosen orthogonally by `.topology(TopologyPreset)` — e.g.
//! `BackendBuilder::fabric(3).topology(TopologyPreset::PaperTestbed)`;
//! [`Session`] owns a subject's identity and live grants and releases them
//! RAII-style on drop.
//!
//! # Durability
//!
//! [`exacml_durable`] adds the persistence layer: `BackendBuilder::
//! durable(path)` builds a data server with a write-ahead log attached at
//! its one commit point ([`exacml_plus::commit`]), plus a snapshot store
//! over plain `std::fs`, and the same builder line *recovers* the
//! store after a crash — policies, live handles (same URIs), guard state
//! and the audit trail come back; `examples/durable_restart.rs` shows the
//! kill/recover cycle. `BackendBuilder::replicated(n, path)` goes further:
//! a fabric of N durable nodes whose journals ship to K peer hosts, so a
//! *node loss* (not just a restart) keeps every acknowledged grant — a
//! surviving peer replays the shipped journal and re-mints the dead node's
//! handles at their recorded URIs. It is the same [`Fabric`](exacml_plus::Fabric)
//! broker as `fabric(n)`, over the [`exacml_durable::Replication`] placement
//! layer ([`exacml_durable::ReplicatedFabric`]).
//! The record format and crash-consistency guarantees are specified in
//! `docs/RECOVERY.md`; where every layer sits is mapped in
//! `docs/ARCHITECTURE.md`.
//!
//! # One way in
//!
//! Consumer code holds a [`Session`]: it carries the subject,
//! [`Session::request_access`] / [`Session::subscribe`] (any
//! `impl Into<Query>`: a bare stream name attaches to an existing grant, a
//! typed [`Query`] requests and attaches, returning a [`QuerySubscription`]
//! with the shared [plan id](exacml_plus::PlanId) and the NR/PR warnings),
//! [`Session::release`] or simply dropping it. Raw wire-form XML is
//! accepted only through [`Query::from_xml`].
//!
//! The paper's Figure 3 proxy — the handle cache Figure 6b measures — is
//! [`exacml_plus::Proxy`]. It fronts any `Arc<dyn Backend>`, charges the
//! client ↔ proxy hop on every request and the proxy ↔ server hop on a miss
//! into the response timing, and keys its cache on the whole request
//! ([`Request::canonical_key`](exacml_xacml::Request::canonical_key)) plus
//! the query, so it never answers a request the PDP would refuse. The
//! Figure 6/7 experiments in [`exacml_bench`] replay their subjects through
//! it; the direct-query baseline, which has no access control, deploys on a
//! bare engine: [`exacml_bench::direct_deploy`].
//!
//! # Workspace map
//!
//! The member crates keep their own identities:
//!
//! * [`exacml_plus`] — the framework core: obligation ⇄ query-graph
//!   translation, NR/PR merge analysis, graph management, proxy, data
//!   server, the brokering fabric, and the unified backend trait layer
//!   (package `exacml-plus`, `crates/core`).
//! * [`exacml_durable`] — the persistence subsystem: WAL, snapshots, and
//!   `DurableServer`, the store around a data server whose commit log is
//!   the WAL (package `exacml-durable`, `crates/durable`).
//! * [`exacml_dsms`] — the from-scratch stream engine: Aurora-style query
//!   graphs, operators, sliding windows, StreamSQL (package `exacml-dsms`).
//! * [`exacml_xacml`] — the XACML policy model, repository, XML round-trip,
//!   and PDP (package `exacml-xacml`).
//! * [`exacml_expr`] — the filter-expression algebra: parsing, DNF,
//!   simplification, and the NR/PR pairwise check (package `exacml-expr`).
//! * [`exacml_simnet`] — the simulated network used by the experiments
//!   (package `exacml-simnet`).
//! * [`exacml_workload`] — Section 4.2 workload generation (package
//!   `exacml-workload`).
//! * [`exacml_bench`] — the harness for the paper's Section 4.2 figures and
//!   tables, and nothing else (package `exacml-bench`). Performance is
//!   measured by the standalone `benchmark/` package (`BENCHMARK.json`),
//!   which the workspace never builds.
//!
//! Package names are hyphenated; the re-exports use the underscore form
//! rustc gives each library target.

pub use exacml_bench;
pub use exacml_dsms;
pub use exacml_durable;
pub use exacml_expr;
pub use exacml_plus;
pub use exacml_simnet;
pub use exacml_telemetry;
pub use exacml_workload;
pub use exacml_xacml;

pub mod builder;
pub mod query;
pub mod session;

pub use builder::BackendBuilder;
pub use query::{Query, QuerySubscription};
pub use session::Session;

/// Everything a scenario needs, importable in one line.
///
/// Brings in the entry layer ([`BackendBuilder`], [`Session`]), the backend
/// trait stack and its unified types, the durable backend, the policy/query
/// authoring helpers, the error type, and the workload feeds:
///
/// ```
/// use exacml::prelude::*;
/// use exacml::exacml_dsms::Schema;
///
/// let backend = BackendBuilder::local().build();
/// backend.register_stream("weather", Schema::weather_example())?;
/// backend.load_policy(
///     StreamPolicyBuilder::new("p", "weather").subject("LTA").filter("rainrate > 5").build(),
/// )?;
///
/// let session = BackendBuilder::local().session("LTA"); // or Session::new(backend, "LTA")
/// assert_eq!(session.subject(), "LTA");
/// assert_eq!(backend.policy_count(), 1);
/// # Ok::<(), exacml::prelude::ExacmlError>(())
/// ```
pub mod prelude {
    pub use crate::builder::BackendBuilder;
    pub use crate::query::{Query, QuerySubscription};
    pub use crate::session::Session;
    pub use exacml_dsms::{AggFunc, AggSpec, WindowSpec};
    pub use exacml_durable::{
        DurableConfig, DurableServer, FailMode, RecoveryReport, ReplicatedConfig, ReplicatedFabric,
        Replication, TopologyPreset, WalFailpoint,
    };
    pub use exacml_plus::{
        AccessResponse, Backend, BackendHealth, BackendResponse, DataServer, ExacmlError, Fabric,
        FabricConfig, MergeOptions, Placement, PlanId, ServerConfig, StreamBatch,
        StreamPolicyBuilder, Subscription, TaggedAuditEvent, UserQuery, Warning, WarningKind,
    };
    pub use exacml_simnet::{Fault, FaultPlan, NodeId, TimedFault, Topology};
    pub use exacml_telemetry::{Metric, Stage, StageSnapshot, Telemetry, TelemetrySnapshot};
    pub use exacml_workload::{GpsFeed, WeatherFeed};
    pub use exacml_xacml::{Policy, Request};
}
