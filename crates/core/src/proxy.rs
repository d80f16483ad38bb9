//! The proxy with a stream-handle cache.
//!
//! The eXACML+ architecture (Figure 3a) puts a proxy between the clients and
//! the data server. Unlike the archived-data eXACML system, what the proxy
//! caches is not data but **stream handles**, "whose sizes are significantly
//! smaller", so the improvement is less dramatic — but under a heavy-tailed
//! (Zipf) request distribution the paper still measures a substantial gain
//! (Figure 6b). [`Proxy::request`] answers repeated identical requests from
//! its cache without touching the PDP at all, so the cache is keyed on
//! everything the PDP would have decided on: the whole request
//! ([`Request::canonical_key`]) plus the customised query.
//!
//! The proxy fronts any [`Backend`] shape and charges the two simulated hops
//! of the paper's client path into the response timing: client ↔ proxy on
//! every request, proxy ↔ data server on a miss.

use crate::backend::{Backend, BackendResponse};
use crate::error::ExacmlError;
use crate::metrics::RequestTiming;
use crate::user_query::UserQuery;
use exacml_simnet::{NodeId, Topology};
use exacml_xacml::Request;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Proxy counters (cache effectiveness).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProxyStats {
    /// Requests the proxy handled.
    pub requests: u64,
    /// Requests answered from the handle cache.
    pub hits: u64,
    /// Requests forwarded to the data server.
    pub misses: u64,
}

impl ProxyStats {
    /// Cache hit rate in [0, 1].
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests as f64
        }
    }
}

/// The proxy entity.
pub struct Proxy {
    backend: Arc<dyn Backend>,
    topology: Topology,
    cache_enabled: bool,
    cache: Mutex<HashMap<String, BackendResponse>>,
    rng: Mutex<StdRng>,
    stats: Mutex<ProxyStats>,
}

impl Proxy {
    /// A proxy in front of a backend, with the handle cache enabled. The
    /// client ↔ proxy and proxy ↔ server links are drawn from `topology`,
    /// their jitter from `seed`.
    #[must_use]
    pub fn new(backend: Arc<dyn Backend>, topology: Topology, seed: u64) -> Self {
        Proxy::with_cache(backend, topology, seed, true)
    }

    /// A proxy with the cache explicitly enabled or disabled (the Figure 6b
    /// comparison).
    #[must_use]
    pub fn with_cache(
        backend: Arc<dyn Backend>,
        topology: Topology,
        seed: u64,
        cache_enabled: bool,
    ) -> Self {
        Proxy {
            backend,
            topology,
            cache_enabled,
            cache: Mutex::new(HashMap::new()),
            rng: Mutex::new(StdRng::seed_from_u64(seed.wrapping_add(1))),
            stats: Mutex::new(ProxyStats::default()),
        }
    }

    /// The backend behind the proxy.
    #[must_use]
    pub fn backend(&self) -> &Arc<dyn Backend> {
        &self.backend
    }

    /// Whether the handle cache is enabled.
    #[must_use]
    pub fn cache_enabled(&self) -> bool {
        self.cache_enabled
    }

    /// Cache-effectiveness counters.
    #[must_use]
    pub fn stats(&self) -> ProxyStats {
        *self.stats.lock()
    }

    /// Drop every cached handle.
    pub fn clear_cache(&self) {
        self.cache.lock().clear();
    }

    /// Number of cached entries.
    #[must_use]
    pub fn cached_entries(&self) -> usize {
        self.cache.lock().len()
    }

    /// One sampled request/response round trip between two entities: the
    /// request document (plus the user query) out, the handle back.
    fn hop(&self, from: NodeId, to: NodeId, request_bytes: usize) -> Duration {
        self.topology.round_trip(from, to, request_bytes, 128, &mut *self.rng.lock())
    }

    /// Handle one request at the proxy: answer from the cache when the same
    /// request was granted before and its handle is still live, otherwise
    /// forward to the backend and cache the resulting handle. The returned
    /// timing includes every hop: client ↔ proxy always, proxy ↔ data server
    /// on a miss, on top of whatever the backend charged itself.
    ///
    /// # Errors
    /// Propagates every backend error on a cache miss; refusals are never
    /// cached.
    pub fn request(
        &self,
        request: &Request,
        user_query: Option<&UserQuery>,
    ) -> Result<BackendResponse, ExacmlError> {
        let started = Instant::now();
        self.stats.lock().requests += 1;
        let request_bytes = exacml_xacml::xml::write_request(request).len()
            + user_query.map_or(0, |q| q.to_xml().len());
        let mut network = self.hop(NodeId::Client, NodeId::Proxy, request_bytes);
        let query = user_query.map_or_else(|| "<identity>".to_string(), UserQuery::fingerprint);
        let key = format!("{}\x1d{query}", request.canonical_key());

        if self.cache_enabled {
            let cached = self.cache.lock().get(&key).cloned();
            if let Some(mut hit) = cached {
                // A cached handle may have been withdrawn by a policy change
                // or released; verify liveness before serving it.
                if self.backend.handle_is_live(hit.handle()) {
                    self.stats.lock().hits += 1;
                    hit.response.reused = true;
                    hit.broker_network = Duration::ZERO;
                    hit.response.timing = RequestTiming {
                        network,
                        total: started.elapsed() + network,
                        ..RequestTiming::default()
                    };
                    return Ok(hit);
                }
                self.cache.lock().remove(&key);
            }
        }

        self.stats.lock().misses += 1;
        network += self.hop(NodeId::Proxy, NodeId::DataServer, request_bytes);
        let mut granted = self.backend.handle_request(request, user_query)?;
        let timing = &mut granted.response.timing;
        timing.network += network;
        timing.total = started.elapsed() + timing.network;

        if self.cache_enabled {
            self.cache.lock().insert(key, granted.clone());
        }
        Ok(granted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obligations::StreamPolicyBuilder;
    use crate::server::{DataServer, ServerConfig};
    use exacml_dsms::Schema;

    fn proxy_over(topology: Topology, cache: bool) -> Proxy {
        let server = DataServer::new(ServerConfig::local());
        server.register_stream("weather", Schema::weather_example()).unwrap();
        for subject in ["LTA", "EMA", "PUB"] {
            let policy = StreamPolicyBuilder::new(format!("weather-{subject}"), "weather")
                .subject(subject)
                .filter("rainrate > 5")
                .build();
            server.load_policy(policy).unwrap();
        }
        Proxy::with_cache(Arc::new(server), topology, 42, cache)
    }

    fn proxy_setup(cache: bool) -> Proxy {
        proxy_over(Topology::local(), cache)
    }

    #[test]
    fn cache_hit_avoids_the_server_round_trip() {
        let proxy = proxy_setup(true);
        let request = Request::subscribe("LTA", "weather");
        let first = proxy.request(&request, None).unwrap();
        assert!(!first.response.reused);
        let second = proxy.request(&request, None).unwrap();
        assert!(second.response.reused);
        assert_eq!(first.handle(), second.handle());
        let stats = proxy.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        // Cache hits skip the PDP entirely.
        assert_eq!(second.response.timing.pdp, Duration::ZERO);
        assert_eq!(proxy.cached_entries(), 1);
    }

    #[test]
    fn every_request_pays_the_client_hop_and_a_miss_pays_the_server_hop_too() {
        let proxy = proxy_over(Topology::paper_testbed(), true);
        let request = Request::subscribe("LTA", "weather");
        let miss = proxy.request(&request, None).unwrap().response.timing;
        let hit = proxy.request(&request, None).unwrap().response.timing;
        assert!(hit.network > Duration::ZERO, "a hit still crosses client ↔ proxy");
        assert!(miss.network > hit.network, "a miss also crosses proxy ↔ server");
        assert!(miss.total >= miss.network && hit.total >= hit.network);
    }

    #[test]
    fn cache_disabled_always_forwards() {
        let proxy = proxy_setup(false);
        let request = Request::subscribe("LTA", "weather");
        proxy.request(&request, None).unwrap();
        let second = proxy.request(&request, None).unwrap();
        // The server still answers (idempotent re-request), but it was not a
        // proxy cache hit.
        assert_eq!(proxy.stats().hits, 0);
        assert_eq!(proxy.stats().misses, 2);
        assert!(second.response.reused); // served by the server's access guard
        assert_eq!(proxy.cached_entries(), 0);
    }

    #[test]
    fn different_subjects_get_different_cache_entries() {
        let proxy = proxy_setup(true);
        proxy.request(&Request::subscribe("LTA", "weather"), None).unwrap();
        proxy.request(&Request::subscribe("EMA", "weather"), None).unwrap();
        assert_eq!(proxy.cached_entries(), 2);
        assert_eq!(proxy.stats().hits, 0);
    }

    #[test]
    fn stale_cache_entries_are_refreshed_after_policy_removal() {
        let proxy = proxy_setup(true);
        let request = Request::subscribe("LTA", "weather");
        let first = proxy.request(&request, None).unwrap();
        // The owner removes and re-creates the policy; the cached handle dies.
        proxy.backend().remove_policy("weather-LTA").unwrap();
        let policy = StreamPolicyBuilder::new("weather-LTA", "weather")
            .subject("LTA")
            .filter("rainrate > 50")
            .build();
        proxy.backend().load_policy(policy).unwrap();

        let second = proxy.request(&request, None).unwrap();
        assert_ne!(first.handle(), second.handle());
        assert!(!second.response.reused);
        assert!(second.response.streamsql.contains("rainrate > 50"));
        // The stale entry counted as a miss, not a hit.
        assert_eq!(proxy.stats().hits, 0);
    }

    #[test]
    fn release_lets_a_new_customised_query_through_the_cache() {
        let proxy = proxy_setup(true);
        let request = Request::subscribe("LTA", "weather");
        proxy.request(&request, None).unwrap();
        let query = UserQuery::for_stream("weather").with_filter("rainrate > 50");
        assert!(matches!(
            proxy.request(&request, Some(&query)),
            Err(ExacmlError::MultipleAccess { .. })
        ));
        assert!(proxy.backend().release_access("LTA", "weather"));
        let refined = proxy.request(&request, Some(&query)).unwrap();
        assert!(!refined.response.reused);
        // The released identity-query handle is dead: asking for it again is
        // a miss that meets the guard, not a hit on the stale entry.
        assert!(matches!(proxy.request(&request, None), Err(ExacmlError::MultipleAccess { .. })));
        assert_eq!(proxy.stats().hits, 0);
    }

    #[test]
    fn denied_requests_are_not_cached() {
        let proxy = proxy_setup(true);
        let request = Request::subscribe("UNKNOWN", "weather");
        assert!(matches!(proxy.request(&request, None), Err(ExacmlError::AccessDenied { .. })));
        assert_eq!(proxy.cached_entries(), 0);
    }

    #[test]
    fn clear_cache_forces_forwarding() {
        let proxy = proxy_setup(true);
        let request = Request::subscribe("LTA", "weather");
        proxy.request(&request, None).unwrap();
        proxy.clear_cache();
        proxy.request(&request, None).unwrap();
        assert_eq!(proxy.stats().hits, 0);
        assert_eq!(proxy.stats().misses, 2);
    }
}
