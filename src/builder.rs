//! The one-line backend switch: [`BackendBuilder`].
//!
//! Every deployment shape of the reproduction — a single in-process
//! [`DataServer`], an N-node brokering [`Fabric`], a disk-backed
//! [`DurableServer`] — is built through the
//! same builder and handed back as an `Arc<dyn Backend>`, so swapping a
//! scenario from one node to N (or onto disk) is literally one changed
//! line:
//!
//! ```
//! use exacml::prelude::*;
//!
//! let local = BackendBuilder::local().build();
//! let cluster = BackendBuilder::fabric(3).build(); // ← the only change
//! assert_eq!(local.backend_kind(), "data-server");
//! assert_eq!(cluster.backend_kind(), "fabric-3");
//! ```
//!
//! For the unconfigured cases, `exacml_plus` also ships
//! `<dyn Backend>::local()` / `<dyn Backend>::fabric(n)` shorthands.

use exacml_durable::{DurableConfig, DurableServer, ReplicatedConfig, Replication, TopologyPreset};
use exacml_plus::{Backend, DataServer, ExacmlError, Fabric, FabricConfig, ServerConfig};
use std::path::PathBuf;
use std::sync::Arc;

use crate::session::Session;

/// Which deployment shape to build.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Shape {
    /// One in-process data server.
    Single,
    /// N data-server nodes behind the routing broker.
    Fabric(usize),
    /// One data server wrapped in WAL + snapshot persistence at this path.
    Durable(PathBuf),
    /// N durable nodes behind the same broker, over the replication layer
    /// (WAL shipping and failover), rooted at this path.
    Replicated(usize, PathBuf),
}

/// Builds any eXACML+ backend behind one API.
///
/// Constructors pick the deployment shape on loopback links; the setters
/// refine the topology preset, the seed, the replication factor and the
/// partial-result rule; and [`BackendBuilder::build`] returns the backend
/// as an `Arc<dyn Backend>` ready for scenario code, [`Session`]s, feeds
/// and benches.
#[derive(Debug, Clone)]
pub struct BackendBuilder {
    shape: Shape,
    /// The named preset every simulated link is drawn from; a durable store
    /// persists the name and recovers onto the same topology.
    preset: TopologyPreset,
    seed: u64,
    deploy_on_partial_result: bool,
    replication: usize,
}

impl BackendBuilder {
    fn new(shape: Shape, preset: TopologyPreset) -> Self {
        BackendBuilder { shape, preset, seed: 42, deploy_on_partial_result: false, replication: 1 }
    }

    /// A single in-process data server on loopback links (unit tests,
    /// quickstarts).
    #[must_use]
    pub fn local() -> Self {
        BackendBuilder::new(Shape::Single, TopologyPreset::Local)
    }

    /// An N-node brokering fabric on loopback links.
    #[must_use]
    pub fn fabric(nodes: usize) -> Self {
        BackendBuilder::new(Shape::Fabric(nodes.max(1)), TopologyPreset::Local)
    }

    /// Pick the deployment topology by its named preset — **the** way to
    /// choose where a backend's simulated links come from, orthogonal to
    /// the shape constructor:
    ///
    /// ```
    /// use exacml::prelude::*;
    ///
    /// let testbed = BackendBuilder::fabric(3).topology(TopologyPreset::PaperTestbed).build();
    /// let cloud = BackendBuilder::fabric(3).topology(TopologyPreset::PublicCloud).build();
    /// assert_eq!(testbed.backend_kind(), "fabric-3");
    /// assert_eq!(cloud.backend_kind(), "fabric-3");
    /// ```
    ///
    /// The preset has a *name*, so durable stores can persist it and
    /// recover onto the same topology.
    #[must_use]
    pub fn topology(mut self, preset: TopologyPreset) -> Self {
        self.preset = preset;
        self
    }

    /// A single data server wrapped in WAL + snapshot persistence rooted at
    /// `path`, on loopback links: the store is created when the directory
    /// holds none, **recovered** when it does — so restarting a process
    /// with the same builder line brings policies, live handles and the
    /// audit trail back (see `docs/RECOVERY.md`).
    ///
    /// ```
    /// use exacml::prelude::*;
    /// use exacml::exacml_dsms::Schema;
    ///
    /// let dir = std::env::temp_dir().join(format!("exacml-doc-durable-{}", std::process::id()));
    /// let _ = std::fs::remove_dir_all(&dir);
    ///
    /// {
    ///     let backend = BackendBuilder::durable(&dir).build();
    ///     assert_eq!(backend.backend_kind(), "durable-server");
    ///     backend.register_stream("weather", Schema::weather_example())?;
    ///     backend.load_policy(
    ///         StreamPolicyBuilder::new("p", "weather").subject("LTA").filter("rainrate > 5").build(),
    ///     )?;
    /// } // ← process "crashes": the backend is dropped with no shutdown
    ///
    /// let recovered = BackendBuilder::durable(&dir).build(); // same line = recovery
    /// assert_eq!(recovered.policy_count(), 1);
    /// # std::fs::remove_dir_all(&dir).ok();
    /// # Ok::<(), exacml::prelude::ExacmlError>(())
    /// ```
    ///
    /// Note on builder knobs: when the directory already holds a store,
    /// **recovery uses the configuration persisted in its `meta.json`** —
    /// the builder's [`with_seed`](BackendBuilder::with_seed),
    /// [`deploy_on_partial_result`](BackendBuilder::deploy_on_partial_result)
    /// and [`topology`](BackendBuilder::topology) settings apply only when
    /// the store is being *created*. To reopen a store under different
    /// knobs, use
    /// [`DurableServer::recover_with`](exacml_durable::DurableServer::recover_with)
    /// directly.
    #[must_use]
    pub fn durable(path: impl Into<PathBuf>) -> Self {
        BackendBuilder::new(Shape::Durable(path.into()), TopologyPreset::Local)
    }

    /// An N-node **replicated** durable fabric rooted at `path`, on
    /// loopback links: every node journals to its own WAL + snapshot store,
    /// the journal's bytes are shipped to K peer hosts
    /// ([`BackendBuilder::replicate`], default K = 1), and when a host dies
    /// a surviving peer replays the shipped journal and re-mints the dead
    /// node's handles at their recorded URIs — scenario code keeps its
    /// grants across a node loss without changing a line.
    ///
    /// The directories are created fresh; `path` must not already hold
    /// stores.
    #[must_use]
    pub fn replicated(nodes: usize, path: impl Into<PathBuf>) -> Self {
        BackendBuilder::new(Shape::Replicated(nodes.max(1), path.into()), TopologyPreset::Local)
    }

    /// Replication factor K for the replicated shape: each node's journal
    /// is mirrored onto K peer hosts (clamped to `nodes - 1`; 0 disables
    /// replication and with it failover). Ignored by the other shapes.
    #[must_use]
    pub fn replicate(mut self, k: usize) -> Self {
        self.replication = k;
        self
    }

    /// Override the base seed (node and link seeds derive from it).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Deploy even when merging raised partial-result warnings (the
    /// warnings are still returned to the caller — Section 3.5).
    #[must_use]
    pub fn deploy_on_partial_result(mut self, deploy: bool) -> Self {
        self.deploy_on_partial_result = deploy;
        self
    }

    fn server_config(&self) -> ServerConfig {
        ServerConfig {
            deploy_on_partial_result: self.deploy_on_partial_result,
            topology: self.preset.topology(),
            seed: self.seed,
            ..ServerConfig::default()
        }
    }

    fn durable_config(&self) -> DurableConfig {
        DurableConfig {
            topology: self.preset,
            deploy_on_partial_result: self.deploy_on_partial_result,
            seed: self.seed,
            ..DurableConfig::default()
        }
    }

    /// Build the backend, surfacing durability failures (an unreadable or
    /// inconsistent store) as errors. The in-memory shapes cannot fail.
    ///
    /// # Errors
    /// [`ExacmlError::Durability`] when a durable store cannot be created
    /// or recovered.
    pub fn try_build(self) -> Result<Arc<dyn Backend>, ExacmlError> {
        Ok(match self.shape {
            Shape::Single => Arc::new(DataServer::new(self.server_config())),
            Shape::Fabric(nodes) => {
                let config = FabricConfig::new(nodes, self.preset.topology())
                    .with_seed(self.seed)
                    .with_server_template(self.server_config());
                Arc::new(Fabric::new(config))
            }
            Shape::Durable(ref path) => {
                let config = self.durable_config();
                Arc::new(DurableServer::open(path, config)?)
            }
            Shape::Replicated(nodes, ref path) => {
                let fabric = FabricConfig::new(nodes, self.preset.topology())
                    .with_seed(self.seed)
                    .with_server_template(self.durable_config());
                let config = ReplicatedConfig::new(nodes, path)
                    .with_replication(self.replication)
                    .with_fabric(|_| fabric);
                Arc::new(Replication::create(config)?)
            }
        })
    }

    /// Build the backend.
    ///
    /// # Panics
    /// Panics when a durable store cannot be created or recovered (use
    /// [`BackendBuilder::try_build`] to handle that as an error).
    #[must_use]
    pub fn build(self) -> Arc<dyn Backend> {
        self.try_build().expect("backend store is unusable")
    }

    /// Build the backend and open a [`Session`] for `subject` on it in one
    /// step.
    #[must_use]
    pub fn session(self, subject: impl Into<String>) -> Session {
        Session::new(self.build(), subject)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exacml_dsms::Schema;
    use exacml_plus::StreamPolicyBuilder;
    use exacml_xacml::Request;

    #[test]
    fn builder_shapes_and_kinds() {
        assert_eq!(BackendBuilder::local().build().backend_kind(), "data-server");
        assert_eq!(
            BackendBuilder::local().topology(TopologyPreset::PaperTestbed).build().backend_kind(),
            "data-server"
        );
        assert_eq!(BackendBuilder::fabric(4).build().backend_kind(), "fabric-4");
        assert_eq!(
            BackendBuilder::fabric(2).topology(TopologyPreset::PaperTestbed).build().backend_kind(),
            "fabric-2"
        );
        assert_eq!(
            BackendBuilder::fabric(2).topology(TopologyPreset::PublicCloud).build().backend_kind(),
            "fabric-2"
        );
        // A zero-node fabric is clamped to one node rather than panicking.
        assert_eq!(BackendBuilder::fabric(0).build().backend_kind(), "fabric-1");
    }

    #[test]
    fn topology_preset_reaches_the_node_configs() {
        // The preset's link table (not loopback) must reach the built
        // backend: a WAN-preset grant pays a visibly larger brokering
        // round trip than a loopback one.
        let slow = BackendBuilder::fabric(1).topology(TopologyPreset::PublicCloud).build();
        let fast = BackendBuilder::fabric(1).build();
        for backend in [&slow, &fast] {
            backend.register_stream("weather", Schema::weather_example()).unwrap();
            backend
                .load_policy(
                    StreamPolicyBuilder::new("p", "weather")
                        .subject("LTA")
                        .filter("rainrate > 5")
                        .build(),
                )
                .unwrap();
        }
        let slow_hop = slow
            .handle_request(&Request::subscribe("LTA", "weather"), None)
            .unwrap()
            .broker_network;
        let fast_hop = fast
            .handle_request(&Request::subscribe("LTA", "weather"), None)
            .unwrap()
            .broker_network;
        assert!(
            slow_hop > fast_hop * 10,
            "WAN hop {slow_hop:?} should dwarf loopback hop {fast_hop:?}"
        );
    }

    #[test]
    fn durable_shape_builds_creates_and_recovers_a_store() {
        let dir =
            std::env::temp_dir().join(format!("exacml-builder-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let backend = BackendBuilder::durable(&dir).build();
            assert_eq!(backend.backend_kind(), "durable-server");
            backend.register_stream("weather", Schema::weather_example()).unwrap();
        }
        // The same builder line on an existing store recovers it.
        let recovered = BackendBuilder::durable(&dir).try_build().unwrap();
        let granted = recovered
            .load_policy(
                StreamPolicyBuilder::new("p", "weather")
                    .subject("LTA")
                    .filter("rainrate > 5")
                    .build(),
            )
            .and_then(|_| recovered.handle_request(&Request::subscribe("LTA", "weather"), None));
        assert!(granted.is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replicated_shape_builds_and_survives_a_host_kill_through_the_trait() {
        let dir =
            std::env::temp_dir().join(format!("exacml-builder-replicated-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let backend = BackendBuilder::replicated(3, &dir).replicate(1).with_seed(11).build();
        assert_eq!(backend.backend_kind(), "fabric-replicated");
        backend.register_stream("weather", Schema::weather_example()).unwrap();
        backend
            .load_policy(
                StreamPolicyBuilder::new("p", "weather")
                    .subject("LTA")
                    .filter("rainrate > 5")
                    .build(),
            )
            .unwrap();
        let granted = backend.handle_request(&Request::subscribe("LTA", "weather"), None).unwrap();
        assert!(backend.handle_is_live(granted.handle()));
        assert!(backend.health().degraded_nodes.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn partial_result_deployments_are_builder_controlled() {
        for backend in [BackendBuilder::local(), BackendBuilder::fabric(2)]
            .map(|b| b.deploy_on_partial_result(true).with_seed(7).build())
        {
            backend.register_stream("weather", Schema::weather_example()).unwrap();
            backend
                .load_policy(
                    StreamPolicyBuilder::new("p", "weather")
                        .subject("LTA")
                        .filter("rainrate > 5")
                        .visible_attributes(["samplingtime", "rainrate", "windspeed"])
                        .build(),
                )
                .unwrap();
            // Narrowing the visible attributes raises a PR warning; the
            // builder told both backends to deploy anyway.
            let query = exacml_plus::UserQuery::for_stream("weather")
                .with_filter("rainrate > 50")
                .with_map(["samplingtime", "rainrate"]);
            let granted = backend
                .handle_request(&Request::subscribe("LTA", "weather"), Some(&query))
                .unwrap();
            assert!(!granted.response.warnings.is_empty());
            assert!(backend.handle_is_live(granted.handle()));
        }
    }
}
