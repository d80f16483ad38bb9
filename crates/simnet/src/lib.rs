//! # exacml-simnet — simulated cloud deployment environment
//!
//! The paper evaluates eXACML+ on a cloud-like testbed of four machines
//! (data server, StreamBase host, proxy workstation, client laptop)
//! connected by the university's 100 Mbps intranet, and observes that about
//! two thirds of the end-to-end request latency is network traffic between
//! those entities (Section 4.2).
//!
//! We cannot reproduce that LAN, so this crate provides a deterministic
//! substitute: named nodes connected by [`LinkSpec`]s whose latency,
//! jitter and bandwidth are configurable, a [`Topology`] describing
//! which entity talks to which over which link, and a virtual
//! [`ManualClock`] that simulated delays advance, kept apart from
//! wall time.
//!
//! The default [`Topology::paper_testbed`] is calibrated to a
//! switched 100 Mbps LAN: sub-millisecond propagation latency, small jitter,
//! and a serialisation cost of 8 ns per byte (100 Mbps), which reproduces
//! the paper's observation that the network share dominates PDP and
//! query-graph manipulation cost without dwarfing it.

#![warn(unreachable_pub)]

mod clock;
mod fault;
mod link;
mod queue;
mod topology;

pub use clock::ManualClock;
pub use fault::{Fault, FaultPlan, TimedFault};
pub use link::{LatencyModel, LinkSpec};
pub use queue::SimLink;
pub use topology::{NodeId, Topology};
