//! Deployment topologies.
//!
//! The paper's evaluation deploys four entities — client interface, proxy,
//! data server (PDP/PEP host) and the StreamBase DSMS — on four machines of
//! a 100 Mbps intranet (Section 4.2). [`Topology`] names the entities and
//! the link between each communicating pair; the experiment harness asks it
//! for the delay of each hop of the Section 3.2 workflow.

use crate::link::LinkSpec;
use rand::Rng;
use std::collections::HashMap;
use std::time::Duration;

/// A named deployment node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeId {
    /// The client interface (the LTA warning system in the running example).
    Client,
    /// The proxy with the stream-handle cache.
    Proxy,
    /// The data server hosting the PDP, PEP and policy store.
    DataServer,
    /// The back-end DSMS host (StreamBase in the paper, `exacml-dsms` here).
    Dsms,
    /// A scale-out data-server shard of the brokering fabric (PR 3): each
    /// one hosts its own PDP, policy store and stream engine behind the
    /// routing broker. Links for server nodes fall back to the topology's
    /// default unless overridden.
    Server(u16),
}

impl NodeId {
    /// All nodes of the paper's four-machine testbed (fabric server shards
    /// are open-ended and not enumerated here).
    #[must_use]
    pub fn all() -> [NodeId; 4] {
        [NodeId::Client, NodeId::Proxy, NodeId::DataServer, NodeId::Dsms]
    }

    /// Human-readable name (fabric shards share the generic `server` name;
    /// their `Display` form carries the index).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            NodeId::Client => "client",
            NodeId::Proxy => "proxy",
            NodeId::DataServer => "data-server",
            NodeId::Dsms => "dsms",
            NodeId::Server(_) => "server",
        }
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeId::Server(index) => write!(f, "server-{index}"),
            other => f.write_str(other.name()),
        }
    }
}

/// A set of nodes and the links between them.
#[derive(Debug, Clone)]
pub struct Topology {
    links: HashMap<(NodeId, NodeId), LinkSpec>,
    default_link: LinkSpec,
}

impl Topology {
    /// A topology where every pair communicates over the given default link.
    #[must_use]
    pub fn uniform(default_link: LinkSpec) -> Self {
        Topology { links: HashMap::new(), default_link }
    }

    /// The paper's cloud-like testbed: the two servers (data server and
    /// DSMS) sit in the same server room, the proxy is a workstation and the
    /// client a laptop, all on the 100 Mbps university intranet.
    #[must_use]
    pub fn paper_testbed() -> Self {
        let mut t = Topology::uniform(LinkSpec::lan_100mbps());
        // Server-room machines are one switch apart: lower latency.
        t.set_link(
            NodeId::DataServer,
            NodeId::Dsms,
            LinkSpec { base_latency_us: 150.0, ..LinkSpec::lan_100mbps() },
        );
        t
    }

    /// A topology where everything runs in one process (used by unit tests
    /// and the quickstart example).
    #[must_use]
    pub fn local() -> Self {
        Topology::uniform(LinkSpec::loopback())
    }

    /// A what-if topology where the client reaches the cloud over a WAN —
    /// the "migrate to Amazon EC2 / Azure" scenario of the paper's future
    /// work.
    #[must_use]
    pub fn public_cloud() -> Self {
        let mut t = Topology::uniform(LinkSpec::lan_100mbps());
        t.set_link(NodeId::Client, NodeId::Proxy, LinkSpec::wan());
        t.set_link(NodeId::Client, NodeId::DataServer, LinkSpec::wan());
        t
    }

    /// Override the link between two nodes (both directions).
    pub fn set_link(&mut self, a: NodeId, b: NodeId, link: LinkSpec) {
        self.links.insert(ordered(a, b), link);
    }

    /// The link between two nodes.
    #[must_use]
    pub fn link(&self, a: NodeId, b: NodeId) -> LinkSpec {
        if a == b {
            // Same machine: negligible cost.
            return LinkSpec::constant(1.0, 100_000.0);
        }
        self.links.get(&ordered(a, b)).copied().unwrap_or(self.default_link)
    }

    /// Sample the one-way delay for a message of `bytes` bytes from `a` to `b`.
    pub fn transfer_delay<R: Rng + ?Sized>(
        &self,
        a: NodeId,
        b: NodeId,
        bytes: usize,
        rng: &mut R,
    ) -> Duration {
        self.link(a, b).sample_delay(bytes, rng)
    }

    /// Sample a request/response round trip (two messages of the given sizes).
    pub fn round_trip<R: Rng + ?Sized>(
        &self,
        a: NodeId,
        b: NodeId,
        request_bytes: usize,
        response_bytes: usize,
        rng: &mut R,
    ) -> Duration {
        self.transfer_delay(a, b, request_bytes, rng)
            + self.transfer_delay(b, a, response_bytes, rng)
    }
}

fn ordered(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn node_names() {
        assert_eq!(NodeId::all().len(), 4);
        assert_eq!(NodeId::Proxy.to_string(), "proxy");
        assert_eq!(NodeId::Server(3).to_string(), "server-3");
        assert_eq!(NodeId::Server(3).name(), "server");
    }

    #[test]
    fn server_nodes_use_the_default_link_unless_overridden() {
        let mut t = Topology::paper_testbed();
        assert_eq!(t.link(NodeId::DataServer, NodeId::Server(0)), LinkSpec::lan_100mbps());
        t.set_link(NodeId::DataServer, NodeId::Server(0), LinkSpec::constant(150.0, 1000.0));
        assert_eq!(
            t.link(NodeId::Server(0), NodeId::DataServer),
            LinkSpec::constant(150.0, 1000.0)
        );
        // Other shards keep the default.
        assert_eq!(t.link(NodeId::DataServer, NodeId::Server(1)), LinkSpec::lan_100mbps());
    }

    #[test]
    fn uniform_topology_uses_default_link() {
        let t = Topology::uniform(LinkSpec::constant(100.0, 100.0));
        assert_eq!(t.link(NodeId::Client, NodeId::Proxy), LinkSpec::constant(100.0, 100.0));
    }

    #[test]
    fn link_overrides_are_symmetric() {
        let mut t = Topology::uniform(LinkSpec::lan_100mbps());
        t.set_link(NodeId::DataServer, NodeId::Dsms, LinkSpec::constant(5.0, 1000.0));
        assert_eq!(t.link(NodeId::Dsms, NodeId::DataServer), LinkSpec::constant(5.0, 1000.0));
        assert_eq!(t.link(NodeId::DataServer, NodeId::Dsms), LinkSpec::constant(5.0, 1000.0));
    }

    #[test]
    fn same_node_transfer_is_negligible() {
        let t = Topology::paper_testbed();
        let mut rng = StdRng::seed_from_u64(1);
        let d = t.transfer_delay(NodeId::Proxy, NodeId::Proxy, 10_000, &mut rng);
        assert!(d < Duration::from_micros(10));
    }

    #[test]
    fn paper_testbed_server_room_link_is_faster() {
        let t = Topology::paper_testbed();
        let server_room = t.link(NodeId::DataServer, NodeId::Dsms).base_latency_us;
        let campus = t.link(NodeId::Client, NodeId::Proxy).base_latency_us;
        assert!(server_room < campus);
    }

    #[test]
    fn public_cloud_client_hop_dominates() {
        let t = Topology::public_cloud();
        let wan = t.link(NodeId::Client, NodeId::Proxy).expected_delay(512);
        let lan = t.link(NodeId::Proxy, NodeId::DataServer).expected_delay(512);
        assert!(wan > lan * 10);
    }

    #[test]
    fn round_trip_is_sum_of_two_transfers_for_constant_links() {
        let t = Topology::uniform(LinkSpec::constant(100.0, 100.0));
        let mut rng = StdRng::seed_from_u64(9);
        let rt = t.round_trip(NodeId::Client, NodeId::Proxy, 1000, 2000, &mut rng);
        let expected = LinkSpec::constant(100.0, 100.0).expected_delay(1000)
            + LinkSpec::constant(100.0, 100.0).expected_delay(2000);
        assert_eq!(rt, expected);
    }
}
