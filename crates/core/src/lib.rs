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
//!    ([`obligations`], Table 1 / Figure 2 of the paper);
//! 2. consumers send an access **request** plus an optional customised
//!    continuous query ([`user_query`], Figure 4a);
//! 3. the **PEP** asks the PDP for a decision, derives a query graph from
//!    the obligations, derives another from the user query, **merges** the
//!    two ([`merge`], Section 3.1) while checking for **empty / partial
//!    result conflicts** ([`warnings`], Section 3.5);
//! 4. a **single-access guard** blocks the multi-window reconstruction
//!    attack ([`grant_table`], [`attack`], Section 3.4);
//! 5. the merged graph is converted to StreamSQL, deployed on the DSMS and
//!    recorded in the same [`grant_table`] so that removing or modifying a
//!    policy withdraws every graph it spawned (Section 3.3);
//! 6. the consumer receives a **stream handle** (URI) rather than data, and
//!    subscribes to the derived stream through it.
//!
//! The deployment entities of Figure 3 live in [`server`] (the data
//! server) and [`proxy`] (the proxy with its handle cache, which fronts any
//! [`Backend`] and charges the consumer's two network hops); per-request
//! timing (PDP / query-graph / DSMS / network) is collected in [`metrics`],
//! which is what the evaluation figures are built from. [`fabric`] scales the data server out: N nodes (each with its own
//! PDP, policy store and engine) behind a routing broker over simulated
//! links, with consistent stream placement, fabric-wide policy propagation
//! and virtual-clock-driven subscriber delivery.
//!
//! Every deployment shape speaks **one API**: the object-safe trait stack in
//! [`backend`] ([`StreamBackend`] / [`AccessControl`] / [`PolicyAdmin`],
//! composed as [`Backend`]) is implemented by [`DataServer`] and [`Fabric`]
//! alike, with unified responses ([`BackendResponse`]), subscriptions
//! ([`Subscription`]) and errors — scenario code written against
//! `&dyn Backend` runs unchanged on one node or N.

pub mod attack;
pub mod audit;
pub mod backend;
pub mod error;
pub mod fabric;
pub mod grant_table;
pub mod merge;
pub mod metrics;
pub mod obligations;
pub mod proxy;
pub mod server;
pub mod user_query;
pub mod warnings;

pub use audit::{AuditEvent, AuditEventKind, AuditLog};
pub use backend::{
    AccessControl, Backend, BackendHealth, BackendResponse, PolicyAdmin, StreamBackend,
    StreamBatch, Subscription, TaggedAuditEvent,
};
pub use error::ExacmlError;
pub use fabric::{
    node_unavailable, rendezvous_owner, DeliveredTuple, Direct, Fabric, FabricConfig, FabricNet,
    FabricNode, FabricSubscription, NodeServer, Placement,
};
pub use grant_table::{Grant, GrantTable, PlanId};
pub use merge::{merge_graphs, MergeOptions, MergeOutcome};
pub use metrics::{RequestTiming, TimingBreakdown};
pub use obligations::{graph_from_obligations, obligations_from_graph, StreamPolicyBuilder};
pub use proxy::{Proxy, ProxyStats};
pub use server::{AccessResponse, DataServer, ServerConfig};
pub use user_query::{UserAggregation, UserQuery};
pub use warnings::{Warning, WarningKind, WarningSource};

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::backend::{
        AccessControl, Backend, BackendHealth, BackendResponse, PolicyAdmin, StreamBackend,
        StreamBatch, Subscription, TaggedAuditEvent,
    };
    pub use crate::error::ExacmlError;
    pub use crate::fabric::{
        rendezvous_owner, DeliveredTuple, Direct, Fabric, FabricConfig, FabricNet, FabricNode,
        FabricSubscription, NodeServer, Placement,
    };
    pub use crate::grant_table::{Grant, GrantTable, PlanId};
    pub use crate::merge::{merge_graphs, MergeOptions, MergeOutcome};
    pub use crate::metrics::{RequestTiming, TimingBreakdown};
    pub use crate::obligations::{
        graph_from_obligations, obligations_from_graph, StreamPolicyBuilder,
    };
    pub use crate::proxy::{Proxy, ProxyStats};
    pub use crate::server::{AccessResponse, DataServer, ServerConfig};
    pub use crate::user_query::{UserAggregation, UserQuery};
    pub use crate::warnings::{Warning, WarningKind, WarningSource};
}
