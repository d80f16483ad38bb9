//! The Section 4.2 experiments.
//!
//! Each experiment builds a fresh deployment (data server behind the proxy,
//! over the simulated 100 Mbps testbed), loads the workload policies, replays
//! a request sequence and records the per-request timing decomposition. The
//! direct-query baseline deploys its scripts on a bare DSMS instead: it has
//! no access control, so it has no data server either.

use exacml_dsms::{streamsql, StreamEngine, StreamHandle};
use exacml_durable::TopologyPreset;
use exacml_plus::{DataServer, ExacmlError, Proxy, RequestTiming, ServerConfig, TimingBreakdown};
use exacml_simnet::{NodeId, Topology};
use exacml_workload::{ContinuousQuery, RequestSequence, WorkloadGenerator, WorkloadSpec};
use exacml_xacml::Request;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A fully wired deployment plus the workload corpus.
pub struct Environment {
    /// The data server (PDP + PEP + DSMS host).
    pub server: Arc<DataServer>,
    /// The proxy in front of it: the consumers' way in.
    pub proxy: Proxy,
    /// The continuous-query corpus (policies already loaded).
    pub queries: Vec<ContinuousQuery>,
    /// The generator (for sequences and direct-query scripts).
    pub generator: WorkloadGenerator,
}

/// Build a deployment for a workload spec.
///
/// * `cache` — whether the proxy's handle cache is enabled (Figure 6b).
/// * every stream referenced by the corpus is registered on the DSMS and
///   every policy of the corpus is loaded before any request is issued, as
///   in the paper ("before any user request is made, we need to load
///   policies onto the data servers").
#[must_use]
pub fn build_environment(spec: &WorkloadSpec, cache: bool) -> Environment {
    let topology = TopologyPreset::PaperTestbed.topology();
    let server = Arc::new(DataServer::new(ServerConfig {
        topology: topology.clone(),
        seed: spec.seed,
        ..ServerConfig::default()
    }));
    for (name, schema) in WorkloadGenerator::streams() {
        server.register_stream(name, schema).expect("stream registration");
    }
    let generator = WorkloadGenerator::new(spec.clone());
    let queries = generator.generate_queries();
    for q in &queries {
        server.load_policy(q.policy.clone()).expect("policy loading");
    }
    let proxy = Proxy::with_cache(server.clone(), topology, spec.seed, cache);
    Environment { server, proxy, queries, generator }
}

/// Deploy a raw StreamSQL script straight on `engine`, bypassing access
/// control — the *direct-query* baseline of the evaluation (Section 4.2).
/// The client → DSMS hop is charged on `topology` with delays drawn from
/// `rng`. Returns the handle and the timing (DSMS + network only).
///
/// # Errors
/// Fails when the script does not parse or references an unknown stream
/// (the input stream must already be registered; its `CREATE INPUT
/// STREAM` declaration is used only for validation).
pub fn direct_deploy(
    engine: &StreamEngine,
    topology: &Topology,
    rng: &mut StdRng,
    script: &str,
) -> Result<(StreamHandle, RequestTiming), ExacmlError> {
    let started = Instant::now();
    let parsed = streamsql::parse(script)?;
    let network = topology.round_trip(NodeId::Client, NodeId::Dsms, script.len(), 96, rng);
    let dsms_started = Instant::now();
    let deployment = engine.deploy(&parsed.graph)?;
    let dsms = dsms_started.elapsed();
    let total = started.elapsed() + network;
    Ok((
        deployment.output_handle,
        RequestTiming { dsms, network, total, ..RequestTiming::default() },
    ))
}

/// Replay the direct-query baseline: each StreamSQL script is deployed
/// straight on a bare DSMS holding the workload's streams, over the paper
/// testbed's links, with delays drawn from a generator seeded with `seed`
/// (as a data server's are).
#[must_use]
pub fn run_direct_queries(seed: u64, scripts: &[String]) -> TimingBreakdown {
    let engine = StreamEngine::new();
    for (name, schema) in WorkloadGenerator::streams() {
        engine.register_stream(name, schema).expect("stream registration");
    }
    let topology = TopologyPreset::PaperTestbed.topology();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut breakdown = TimingBreakdown::new();
    for script in scripts {
        let (_handle, timing) = direct_deploy(&engine, &topology, &mut rng, script)
            .unwrap_or_else(|e| panic!("direct query failed: {e}"));
        breakdown.record(&timing);
    }
    breakdown
}

/// Replay an eXACML+ request sequence through the proxy (client ↔ proxy ↔
/// server hops charged into each response's timing).
#[must_use]
pub fn run_exacml_sequence(env: &Environment, sequence: &RequestSequence) -> TimingBreakdown {
    let mut breakdown = TimingBreakdown::new();
    for &index in &sequence.indices {
        let query = &env.queries[index % env.queries.len()];
        match env.proxy.request(&Request::subscribe(&query.subject, &query.stream), None) {
            Ok(granted) => breakdown.record(&granted.response.timing),
            Err(e) => panic!("request {index} for {} failed: {e}", query.subject),
        }
    }
    breakdown
}

/// The data behind one Figure 6 plot: labelled CDF series.
#[derive(Debug, Clone, Serialize)]
pub struct Fig6Result {
    /// Which sequence shape was used (`unique` / `zipf`).
    pub sequence: String,
    /// (label, CDF points) pairs; each point is (response time in seconds,
    /// cumulative fraction).
    pub series: Vec<(String, Vec<(f64, f64)>)>,
    /// (label, mean seconds, p50, p99) summary rows.
    pub summary: Vec<(String, f64, f64, f64)>,
}

/// Figure 6(a): unique request sequence, direct query vs eXACML+.
#[must_use]
pub fn fig6a(spec: &WorkloadSpec, cdf_points: usize) -> Fig6Result {
    let env = build_environment(spec, false);
    let scripts = env.generator.direct_query_scripts(&env.queries);
    let direct = run_direct_queries(spec.seed, &scripts);
    let sequence = env.generator.unique_sequence(env.queries.len());
    let exacml = run_exacml_sequence(&env, &sequence);

    Fig6Result {
        sequence: "unique".into(),
        summary: vec![summary_row("directQuery", &direct), summary_row("eXACML+", &exacml)],
        series: vec![
            ("directQuery".into(), direct.cdf(cdf_points)),
            ("eXACML+".into(), exacml.cdf(cdf_points)),
        ],
    }
}

/// Figure 6(b): Zipf request sequence, direct query vs eXACML+ with the
/// proxy cache off and on.
#[must_use]
pub fn fig6b(spec: &WorkloadSpec, cdf_points: usize) -> Fig6Result {
    let env_off = build_environment(spec, false);
    let scripts = env_off.generator.direct_query_scripts(&env_off.queries);
    let direct = run_direct_queries(spec.seed, &scripts);
    let sequence = env_off.generator.zipf_sequence(env_off.queries.len());
    let cache_off = run_exacml_sequence(&env_off, &sequence);

    let env_on = build_environment(spec, true);
    let cache_on = run_exacml_sequence(&env_on, &sequence);

    Fig6Result {
        sequence: "zipf".into(),
        summary: vec![
            summary_row("directQuery", &direct),
            summary_row("eXACML+ cache off", &cache_off),
            summary_row("eXACML+ cache on", &cache_on),
        ],
        series: vec![
            ("directQuery".into(), direct.cdf(cdf_points)),
            ("eXACML+ cache off".into(), cache_off.cdf(cdf_points)),
            ("eXACML+ cache on".into(), cache_on.cdf(cdf_points)),
        ],
    }
}

/// The data behind Figure 7: per-request component times.
#[derive(Debug, Clone, Serialize)]
pub struct Fig7Result {
    /// Number of requests replayed.
    pub requests: usize,
    /// Number of policies loaded.
    pub policies: usize,
    /// Rows of (sequence number, total, pdp, query-graph, dsms) in seconds.
    pub rows: Vec<(usize, f64, f64, f64, f64)>,
    /// Mean seconds per component: (total, pdp, query-graph, dsms, network).
    pub means: (f64, f64, f64, f64, f64),
}

/// Figure 7: detailed processing time of `requests` access-control requests
/// with `policies` loaded policies (100/50 for 7(a), 1500/1000 for 7(b)).
#[must_use]
pub fn fig7(requests: usize, policies: usize, seed: u64) -> Fig7Result {
    let mut spec = WorkloadSpec::table3();
    spec.n_policies = policies;
    spec.n_requests = requests;
    spec.seed = seed;
    let env = build_environment(&spec, false);
    let sequence = env.generator.unique_sequence(env.queries.len());
    let breakdown = run_exacml_sequence(&env, &sequence);

    let rows = (0..breakdown.len())
        .map(|i| {
            let (total, pdp, graph, dsms, _net) = breakdown.series_at(i).expect("index in range");
            (i + 1, total, pdp, graph, dsms)
        })
        .collect();
    Fig7Result {
        requests,
        policies,
        rows,
        means: (
            breakdown.mean_total(),
            breakdown.mean_pdp(),
            breakdown.mean_query_graph(),
            breakdown.mean_dsms(),
            breakdown.mean_network(),
        ),
    }
}

/// The policy-loading measurement of Section 4.2.
#[derive(Debug, Clone, Serialize)]
pub struct PolicyLoadingResult {
    /// Number of policies loaded.
    pub policies: usize,
    /// Mean load time in seconds.
    pub mean_seconds: f64,
    /// Standard deviation of the load time in seconds.
    pub stddev_seconds: f64,
    /// Load time of the first and last policy, to show independence from the
    /// number already loaded.
    pub first_seconds: f64,
    /// Load time of the last policy.
    pub last_seconds: f64,
}

/// Load `n_policies` generated policies one by one and report the statistics
/// (the paper reports 0.25 s ± 0.06 s on its Java/LAN prototype; ours is
/// faster in absolute terms but equally independent of the number of
/// policies already loaded, which is the claim).
#[must_use]
pub fn policy_loading_experiment(n_policies: usize, seed: u64) -> PolicyLoadingResult {
    let mut spec = WorkloadSpec::table3();
    spec.n_policies = n_policies;
    spec.seed = seed;
    let server = DataServer::new(ServerConfig {
        topology: TopologyPreset::PaperTestbed.topology(),
        seed,
        ..ServerConfig::default()
    });
    for (name, schema) in WorkloadGenerator::streams() {
        server.register_stream(name, schema).expect("stream registration");
    }
    let generator = WorkloadGenerator::new(spec);
    let queries = generator.generate_queries();
    let mut durations: Vec<Duration> = Vec::with_capacity(queries.len());
    for q in &queries {
        durations.push(server.load_policy(q.policy.clone()).expect("policy load"));
    }
    let secs: Vec<f64> = durations.iter().map(Duration::as_secs_f64).collect();
    let n = secs.len().max(1) as f64;
    let mean = secs.iter().sum::<f64>() / n;
    let stddev = (secs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n).sqrt();
    PolicyLoadingResult {
        policies: queries.len(),
        mean_seconds: mean,
        stddev_seconds: stddev,
        first_seconds: durations.first().map_or(0.0, Duration::as_secs_f64),
        last_seconds: durations.last().map_or(0.0, Duration::as_secs_f64),
    }
}

fn summary_row(label: &str, breakdown: &TimingBreakdown) -> (String, f64, f64, f64) {
    (
        label.to_string(),
        breakdown.mean_total(),
        breakdown.percentile_total(0.5),
        breakdown.percentile_total(0.99),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> WorkloadSpec {
        let mut spec = WorkloadSpec::small();
        spec.n_policies = 30;
        spec.n_requests = 40;
        spec.n_direct_queries = 40;
        spec.max_rank = 10;
        spec
    }

    #[test]
    fn environment_loads_all_policies() {
        let spec = tiny_spec();
        let env = build_environment(&spec, true);
        assert_eq!(env.server.policy_count(), spec.n_policies);
        assert_eq!(env.queries.len(), spec.n_policies);
        assert!(env.proxy.cache_enabled());
    }

    #[test]
    fn fig6a_shapes_hold_on_a_tiny_workload() {
        let result = fig6a(&tiny_spec(), 20);
        assert_eq!(result.series.len(), 2);
        assert_eq!(result.series[0].1.len(), 20);
        // Direct query is at least as fast as eXACML+ on average — the
        // paper's headline observation.
        let direct_mean = result.summary[0].1;
        let exacml_mean = result.summary[1].1;
        assert!(direct_mean > 0.0);
        assert!(
            exacml_mean >= direct_mean,
            "eXACML+ ({exacml_mean}) should not be faster than direct query ({direct_mean})"
        );
    }

    #[test]
    fn fig6b_cache_improves_over_no_cache() {
        let result = fig6b(&tiny_spec(), 20);
        assert_eq!(result.series.len(), 3);
        let cache_off_mean = result.summary[1].1;
        let cache_on_mean = result.summary[2].1;
        assert!(
            cache_on_mean <= cache_off_mean,
            "cache on ({cache_on_mean}) should not be slower than cache off ({cache_off_mean})"
        );
    }

    #[test]
    fn direct_deploy_baseline_bypasses_access_control() {
        let engine = StreamEngine::new();
        engine.register_stream("weather", exacml_dsms::Schema::weather_example()).unwrap();
        let graph = exacml_dsms::QueryGraphBuilder::on_stream("weather")
            .filter_str("rainrate > 5")
            .unwrap()
            .build();
        let script = streamsql::generate(&graph, &exacml_dsms::Schema::weather_example());
        let (topology, mut rng) = (Topology::local(), StdRng::seed_from_u64(42));
        let (handle, timing) = direct_deploy(&engine, &topology, &mut rng, &script).unwrap();
        assert!(engine.catalog().handle_is_live(&handle));
        assert_eq!(timing.pdp, Duration::ZERO);
        assert!(timing.total >= timing.dsms);
        // A malformed script is rejected.
        assert!(direct_deploy(&engine, &topology, &mut rng, "garbage").is_err());
    }

    #[test]
    fn direct_deploy_refuses_an_unregistered_stream() {
        let engine = StreamEngine::new();
        let graph = exacml_dsms::QueryGraphBuilder::on_stream("weather").build();
        let script = streamsql::generate(&graph, &exacml_dsms::Schema::weather_example());
        let (topology, mut rng) = (Topology::local(), StdRng::seed_from_u64(42));
        assert!(matches!(
            direct_deploy(&engine, &topology, &mut rng, &script),
            Err(ExacmlError::Dsms(exacml_dsms::DsmsError::UnknownStream(_)))
        ));
        assert!(engine.catalog().stream_names().is_empty());
        assert_eq!(engine.deployment_count(), 0);
    }

    #[test]
    fn fig7_produces_one_row_per_request() {
        let result = fig7(25, 20, 7);
        assert_eq!(result.rows.len(), 25);
        assert_eq!(result.policies, 20);
        // PDP and query-graph manipulation stay tiny (well under 10 ms),
        // matching the paper's "less than 0.01 second in all requests".
        assert!(result.means.1 < 0.01, "mean PDP time {}", result.means.1);
        assert!(result.means.2 < 0.01, "mean query-graph time {}", result.means.2);
        assert!(result.means.0 >= result.means.3);
    }

    #[test]
    fn policy_loading_cost_is_flat() {
        let result = policy_loading_experiment(40, 3);
        assert_eq!(result.policies, 40);
        assert!(result.mean_seconds > 0.0);
        // Loading the last policy is not meaningfully more expensive than the
        // first (independence from the number already loaded).
        assert!(result.last_seconds < result.first_seconds * 20.0 + 0.01);
    }
}
