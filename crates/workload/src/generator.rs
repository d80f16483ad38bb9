//! The continuous-query corpus and request sequences.
//!
//! "Workloads are formed by sequences of continuous queries. Each continuous
//! query corresponds to three files in the experiment: (1) a StreamSQL script
//! as the input to the direct-query system; (2) a XACML policy file whose
//! obligations form the query graph exactly as that in the above StreamSQL
//! script; (3) a XACML request file for requesting data streams from
//! eXACML+ [...] The actual specifications of each query graph are generated
//! randomly, but we make sure that parameter names are consistent with those
//! in stream schemas so that every query graph generated from PEP is valid."
//! (Section 4.2)
//!
//! [`WorkloadGenerator`] reproduces exactly that: a corpus of
//! [`ContinuousQuery`] items (graph + StreamSQL + policy + request, all
//! consistent with the weather/GPS schemas), following the Table 3
//! composition mix, plus the *unique* and *Zipf* request sequences.

use crate::spec::WorkloadSpec;
use crate::zipf::Zipf;
use exacml_dsms::{streamsql, AggFunc, AggSpec, QueryGraph, QueryGraphBuilder, Schema, WindowSpec};
use exacml_plus::StreamPolicyBuilder;
use exacml_xacml::{Policy, Request};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One continuous query of the workload, in its three forms.
#[derive(Debug, Clone)]
pub struct ContinuousQuery {
    /// Index within the corpus.
    pub index: usize,
    /// The requesting subject (unique per query so every request matches
    /// exactly one policy).
    pub subject: String,
    /// The stream the query runs over.
    pub stream: String,
    /// Operator composition label (`FB`, `FB+MB+AB`, ... as in Table 3).
    pub composition: String,
    /// The query graph itself.
    pub graph: QueryGraph,
    /// File (1): the StreamSQL script for the direct-query baseline.
    pub streamsql: String,
    /// File (2): the policy whose obligations encode the same graph.
    pub policy: Policy,
    /// File (3): the matching access request.
    pub request: Request,
}

impl ContinuousQuery {
    /// The policy document as XML (what would be stored on disk).
    #[must_use]
    pub fn policy_xml(&self) -> String {
        exacml_xacml::xml::write_policy(&self.policy)
    }

    /// The request document as XML.
    #[must_use]
    pub fn request_xml(&self) -> String {
        exacml_xacml::xml::write_request(&self.request)
    }
}

/// Which request sequence shape an experiment uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SequenceKind {
    /// Every request is distinct (set-up 1 of the evaluation).
    Unique,
    /// Requests follow a Zipf distribution over the most popular queries
    /// (set-up 2).
    Zipf,
}

/// A sequence of request indices into the query corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestSequence {
    /// Unique or Zipf.
    pub kind: SequenceKind,
    /// Indices into the corpus, in arrival order.
    pub indices: Vec<usize>,
}

impl RequestSequence {
    /// Number of requests.
    #[must_use]
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether the sequence is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Number of distinct queries referenced.
    #[must_use]
    pub fn distinct(&self) -> usize {
        let mut seen = self.indices.clone();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }
}

/// The workload generator.
#[derive(Debug, Clone)]
pub struct WorkloadGenerator {
    spec: WorkloadSpec,
}

impl WorkloadGenerator {
    /// A generator for the given parameter set.
    #[must_use]
    pub fn new(spec: WorkloadSpec) -> Self {
        WorkloadGenerator { spec }
    }

    /// The parameter set.
    #[must_use]
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// The streams the corpus runs over, with their schemas.
    #[must_use]
    pub fn streams() -> Vec<(&'static str, Schema)> {
        vec![("weather", Schema::weather_example()), ("gps", Schema::gps_example())]
    }

    /// Generate the corpus of unique continuous queries (one per policy,
    /// `spec.n_policies` in total), following the Table 3 composition
    /// proportions.
    #[must_use]
    pub fn generate_queries(&self) -> Vec<ContinuousQuery> {
        let mut rng = StdRng::seed_from_u64(self.spec.seed);
        let streams = Self::streams();
        let labels = self.composition_labels();
        let mut queries = Vec::with_capacity(self.spec.n_policies);
        for index in 0..self.spec.n_policies {
            let label = labels[index % labels.len()];
            let (stream, schema) = &streams[index % streams.len()];
            let graph = self.random_graph(stream, schema, label, &mut rng);
            let subject = format!("user{index:04}");
            let policy = self.policy_for(index, &subject, stream, &graph);
            let request = Request::subscribe(&subject, stream);
            let script = streamsql::generate(&graph, schema);
            queries.push(ContinuousQuery {
                index,
                subject,
                stream: (*stream).to_string(),
                composition: label.to_string(),
                graph,
                streamsql: script,
                policy,
                request,
            });
        }
        queries
    }

    /// The direct-query scripts (file set (1)): `spec.n_direct_queries`
    /// scripts drawn from the corpus in round-robin order.
    #[must_use]
    pub fn direct_query_scripts(&self, queries: &[ContinuousQuery]) -> Vec<String> {
        (0..self.spec.n_direct_queries)
            .map(|i| queries[i % queries.len()].streamsql.clone())
            .collect()
    }

    /// Set-up 1: every request appears once, cycling through the corpus.
    #[must_use]
    pub fn unique_sequence(&self, corpus_size: usize) -> RequestSequence {
        RequestSequence {
            kind: SequenceKind::Unique,
            indices: (0..self.spec.n_requests).map(|i| i % corpus_size.max(1)).collect(),
        }
    }

    /// Set-up 2: requests follow a Zipf(α) distribution over the
    /// `maxRank` most popular queries.
    #[must_use]
    pub fn zipf_sequence(&self, corpus_size: usize) -> RequestSequence {
        let ranks = self.spec.max_rank.min(corpus_size.max(1));
        let zipf = Zipf::new(ranks, self.spec.zipf_alpha);
        let mut rng = StdRng::seed_from_u64(self.spec.seed.wrapping_add(0x5eed));
        RequestSequence {
            kind: SequenceKind::Zipf,
            indices: zipf.sample_sequence(self.spec.n_requests, &mut rng),
        }
    }

    fn composition_labels(&self) -> Vec<&'static str> {
        // Expand the mix into a label list with the Table 3 proportions,
        // scaled to the corpus size.
        let mix = self.spec.composition.as_pairs();
        let total: usize = mix.iter().map(|(_, n)| *n).sum();
        let mut labels = Vec::with_capacity(self.spec.n_policies.max(total));
        for (label, count) in &mix {
            let scaled =
                ((*count as f64 / total as f64) * self.spec.n_policies as f64).round() as usize;
            labels.extend(std::iter::repeat_n(*label, scaled.max(1)));
        }
        labels
    }

    fn random_graph(
        &self,
        stream: &str,
        schema: &Schema,
        label: &str,
        rng: &mut StdRng,
    ) -> QueryGraph {
        let numeric: Vec<String> = schema
            .fields()
            .iter()
            .filter(|f| f.data_type.is_numeric() && f.data_type != exacml_dsms::DataType::Timestamp)
            .map(|f| f.name.clone())
            .collect();

        let wants_filter = label.contains("FB");
        let wants_map = label.contains("MB");
        let wants_agg = label.contains("AB");

        let mut builder = QueryGraphBuilder::on_stream(stream);

        if wants_filter {
            let attr = &numeric[rng.gen_range(0..numeric.len())];
            let op = ["<", ">", "<=", ">="][rng.gen_range(0..4usize)];
            let threshold = rng.gen_range(0.0..100.0_f64).round();
            builder = builder
                .filter_str(&format!("{attr} {op} {threshold}"))
                .expect("generated conditions always parse");
        }

        // The visible attribute set: the timestamp plus a random subset of
        // numeric columns. The aggregation (if any) must use attributes that
        // survive the map, so pick them from this set.
        let mut visible = vec!["samplingtime".to_string()];
        let subset_size = rng.gen_range(1..=numeric.len());
        let mut pool = numeric.clone();
        for _ in 0..subset_size {
            let pick = rng.gen_range(0..pool.len());
            visible.push(pool.swap_remove(pick));
        }

        if wants_map {
            builder = builder.map(visible.clone());
        }

        if wants_agg {
            let candidates: &[String] = if wants_map { &visible[1..] } else { &numeric };
            let size = rng.gen_range(4..=20_u64);
            let advance = rng.gen_range(1..=size);
            let n_specs = rng.gen_range(1..=candidates.len().min(3));
            let mut specs = vec![AggSpec::new("samplingtime", AggFunc::LastValue)];
            let mut pool: Vec<String> = candidates.to_vec();
            for _ in 0..n_specs {
                let attr = pool.swap_remove(rng.gen_range(0..pool.len()));
                let func = [AggFunc::Avg, AggFunc::Max, AggFunc::Min, AggFunc::Sum, AggFunc::Count]
                    [rng.gen_range(0..5usize)];
                specs.push(AggSpec::new(attr, func));
            }
            builder = builder.aggregate(WindowSpec::tuples(size, advance), specs);
        }

        builder.build()
    }

    fn policy_for(&self, index: usize, subject: &str, stream: &str, graph: &QueryGraph) -> Policy {
        let mut builder = StreamPolicyBuilder::new(format!("policy-{index:04}"), stream)
            .subject(subject)
            .description(format!("generated workload policy #{index} ({})", graph.composition()));
        if let Some(f) = graph.filter() {
            builder = builder.filter(f.source());
        }
        if let Some(m) = graph.map() {
            builder = builder.visible_attributes(m.attributes().to_vec());
        }
        if let Some(a) = graph.aggregate() {
            builder = builder.window(a.window, a.specs.clone());
        }
        builder.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exacml_plus::graph_from_obligations;

    fn small_generator() -> WorkloadGenerator {
        WorkloadGenerator::new(WorkloadSpec::small())
    }

    #[test]
    fn corpus_size_and_composition_follow_the_spec() {
        let generator = small_generator();
        let queries = generator.generate_queries();
        assert_eq!(queries.len(), generator.spec().n_policies);
        // Every Table 3 composition appears.
        for label in ["FB", "MB", "AB", "FB+MB", "FB+AB", "MB+AB", "FB+MB+AB"] {
            assert!(
                queries.iter().any(|q| q.composition == label),
                "composition {label} missing from the corpus"
            );
        }
        // Compositions recorded on the query match the generated graph.
        for q in &queries {
            assert_eq!(q.graph.composition(), q.composition);
        }
    }

    #[test]
    fn every_graph_validates_against_its_stream_schema() {
        let queries = small_generator().generate_queries();
        for q in &queries {
            let schema = match q.stream.as_str() {
                "weather" => Schema::weather_example(),
                "gps" => Schema::gps_example(),
                other => panic!("unexpected stream {other}"),
            };
            q.graph
                .validate(&schema)
                .unwrap_or_else(|e| panic!("query {} does not validate: {e}", q.index));
        }
    }

    #[test]
    fn policy_obligations_reproduce_the_query_graph() {
        let queries = small_generator().generate_queries();
        for q in queries.iter().take(40) {
            let rebuilt = graph_from_obligations(&q.stream, &q.policy.obligations).unwrap();
            assert_eq!(rebuilt, q.graph, "query {}", q.index);
        }
    }

    #[test]
    fn request_matches_its_policy_and_only_its_policy() {
        let queries = small_generator().generate_queries();
        for q in queries.iter().take(20) {
            assert!(q.policy.evaluate(&q.request).is_some(), "query {}", q.index);
        }
        // A request for query 0 does not match the policy of query 1.
        assert!(queries[1].policy.evaluate(&queries[0].request).is_none());
    }

    #[test]
    fn streamsql_scripts_parse_back_to_the_same_composition() {
        let queries = small_generator().generate_queries();
        for q in queries.iter().take(40) {
            let parsed = streamsql::parse(&q.streamsql).unwrap();
            assert_eq!(parsed.graph.composition(), q.composition, "query {}", q.index);
        }
    }

    #[test]
    fn xml_artifacts_round_trip() {
        let queries = small_generator().generate_queries();
        let q = &queries[0];
        let policy = exacml_xacml::xml::parse_policy(&q.policy_xml()).unwrap();
        assert_eq!(policy, q.policy);
        let request = exacml_xacml::xml::parse_request(&q.request_xml()).unwrap();
        assert_eq!(request.subject_id(), q.request.subject_id());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small_generator().generate_queries();
        let b = small_generator().generate_queries();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.graph, y.graph);
            assert_eq!(x.subject, y.subject);
        }
    }

    #[test]
    fn direct_query_scripts_have_the_requested_count() {
        let generator = small_generator();
        let queries = generator.generate_queries();
        let scripts = generator.direct_query_scripts(&queries);
        assert_eq!(scripts.len(), generator.spec().n_direct_queries);
    }

    #[test]
    fn unique_sequence_covers_the_corpus_in_order() {
        let generator = small_generator();
        let seq = generator.unique_sequence(100);
        assert_eq!(seq.len(), generator.spec().n_requests);
        assert_eq!(seq.kind, SequenceKind::Unique);
        assert_eq!(seq.indices[0], 0);
        assert_eq!(seq.indices[1], 1);
        assert_eq!(seq.distinct(), 100);
        assert!(!seq.is_empty());
    }

    #[test]
    fn zipf_sequence_is_skewed_toward_low_ranks() {
        let generator = small_generator();
        let seq = generator.zipf_sequence(100);
        assert_eq!(seq.kind, SequenceKind::Zipf);
        assert_eq!(seq.len(), generator.spec().n_requests);
        // All indices are within maxRank.
        assert!(seq.indices.iter().all(|i| *i < generator.spec().max_rank));
        // Rank 0 appears at least as often as a mid rank (statistically this
        // holds comfortably for the seeded sequence).
        let count = |r: usize| seq.indices.iter().filter(|i| **i == r).count();
        assert!(count(0) >= count(generator.spec().max_rank - 1));
        // Repetition exists (that is what the proxy cache exploits).
        assert!(seq.distinct() < seq.len());
    }
}
