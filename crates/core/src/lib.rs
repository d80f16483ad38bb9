//! # exacml-plus — fine-grained access control over data streams
//!
//! This crate is the reproduction of the eXACML+ framework proposed in
//! *"Cloud and the City: Facilitating Flexible Access Control over Data
//! Streams"* (Wang, Dinh, Lim, Datta, 2012). It layers fine-grained,
//! obligation-driven access control on top of an Aurora-model stream engine:
//!
//! 1. data owners write XACML policies whose **obligations** encode the
//!    stream operators a consumer is allowed to see — a filter condition,
//!    the visible attributes and a window-based aggregation
//!    ([`graph_from_obligations`], Table 1 / Figure 2 of the paper);
//! 2. consumers send an access **request** plus an optional customised
//!    continuous query ([`UserQuery`], Figure 4a);
//! 3. the **PEP** asks the PDP for a decision, derives a query graph from
//!    the obligations, derives another from the user query, **merges** the
//!    two ([`merge_graphs`], Section 3.1) while checking for **empty / partial
//!    result conflicts** ([`Warning`], Section 3.5);
//! 4. a **single-access guard** blocks the multi-window reconstruction
//!    attack ([`GrantTable`], [`simulate_attack`], Section 3.4);
//! 5. the merged graph is converted to StreamSQL, deployed on the DSMS and
//!    recorded in the same [`GrantTable`] so that removing or modifying a
//!    policy withdraws every graph it spawned (Section 3.3);
//! 6. the consumer receives a **stream handle** (URI) rather than data, and
//!    subscribes to the derived stream through it.
//!
//! The deployment entities of Figure 3 are the [`DataServer`] and the
//! [`Proxy`] (with its handle cache, which fronts any [`Backend`] and
//! charges the consumer's two network hops); per-request timing (PDP /
//! query-graph / DSMS / network) is collected in [`RequestTiming`], which is
//! what the evaluation figures are built from. [`Fabric`] scales the data
//! server out: N nodes (each with its own PDP, policy store and engine)
//! behind a routing broker over simulated links, with consistent stream
//! placement, fabric-wide policy propagation and virtual-clock-driven
//! subscriber delivery.
//!
//! Every deployment shape speaks **one API**: the object-safe [`Backend`]
//! trait (data, request, policy and audit methods in one body) is
//! implemented once for every [`NodeServer`] (a [`DataServer`], or a
//! durable store over one) and once for [`Fabric`], with unified responses
//! ([`BackendResponse`]), subscriptions ([`Subscription`]) and errors —
//! scenario code written against
//! `&dyn Backend` runs unchanged on one node or N. A data server journals
//! through an optional [`CommitLog`] at one commit point, which is all
//! durability adds to it.

#![warn(unreachable_pub)]

mod attack;
mod audit;
mod backend;
mod commit;
mod error;
mod fabric;
mod grant_table;
mod merge;
mod metrics;
mod obligations;
mod proxy;
mod server;
mod user_query;
mod warnings;

pub use attack::{reconstruct_from_sums, simulate_attack, AttackOutcome};
pub use audit::{AuditEvent, AuditEventKind, AuditLog};
pub use backend::{
    Backend, BackendHealth, BackendResponse, NodeServer, StreamBatch, Subscription,
    TaggedAuditEvent,
};
pub use commit::{CommitLog, GroupKind};
pub use error::ExacmlError;
pub use fabric::{
    node_unavailable, rendezvous_owner, DeliveredTuple, Direct, Fabric, FabricConfig, FabricNet,
    FabricNode, FabricSubscription, Placement,
};
pub use grant_table::{Grant, GrantTable, PlanId};
pub use merge::{merge_graphs, MergeOptions, MergeOutcome};
pub use metrics::{RequestTiming, TimingBreakdown};
pub use obligations::{
    graph_from_obligations, ids as obligation_ids, obligations_from_graph, StreamPolicyBuilder,
};
pub use proxy::{Proxy, ProxyStats};
pub use server::{AccessResponse, DataServer, Replay, ServerConfig};
pub use user_query::{UserAggregation, UserQuery};
pub use warnings::{Warning, WarningKind, WarningSource};
