//! Query graphs.
//!
//! In the Aurora model a continuous query is a directed acyclic graph of
//! operator boxes applied to a data stream (Section 2.1). Every graph the
//! eXACML+ framework generates — whether from policy obligations or from a
//! user query — is a linear chain over a single input stream, of the shape
//! `filter? → map? → aggregate?` (Figure 1). [`QueryGraph`] models such a
//! chain; the ordering of boxes is preserved exactly as constructed.

use crate::error::DsmsError;
use crate::ops::aggregate::{AggSpec, AggregateOp};
use crate::ops::filter::FilterOp;
use crate::ops::map::MapOp;
use crate::ops::Operator;
use crate::schema::Schema;
use crate::window::WindowSpec;
use std::fmt;

/// One node (box) of a query graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphNode {
    /// Position of the node in the chain (0-based).
    pub id: usize,
    /// The operator box.
    pub operator: Operator,
}

/// A continuous query: a chain of operator boxes over one input stream.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryGraph {
    /// Name of the input stream the query is applied to.
    pub stream: String,
    /// The operator chain, in application order.
    pub nodes: Vec<GraphNode>,
}

impl QueryGraph {
    /// An empty (identity) query over a stream: every tuple passes through
    /// unchanged.
    #[must_use]
    pub fn identity(stream: impl Into<String>) -> Self {
        QueryGraph { stream: stream.into(), nodes: Vec::new() }
    }

    /// Build a graph from a list of operators.
    #[must_use]
    pub fn from_operators(stream: impl Into<String>, operators: Vec<Operator>) -> Self {
        QueryGraph {
            stream: stream.into(),
            nodes: operators
                .into_iter()
                .enumerate()
                .map(|(id, operator)| GraphNode { id, operator })
                .collect(),
        }
    }

    /// The operators in application order.
    #[must_use]
    pub fn operators(&self) -> Vec<&Operator> {
        self.nodes.iter().map(|n| &n.operator).collect()
    }

    /// Number of operator boxes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no boxes (identity query).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The first filter box, if any.
    #[must_use]
    pub fn filter(&self) -> Option<&FilterOp> {
        self.nodes.iter().find_map(|n| match &n.operator {
            Operator::Filter(f) => Some(f),
            _ => None,
        })
    }

    /// The first map box, if any.
    #[must_use]
    pub fn map(&self) -> Option<&MapOp> {
        self.nodes.iter().find_map(|n| match &n.operator {
            Operator::Map(m) => Some(m),
            _ => None,
        })
    }

    /// The first aggregation box, if any.
    #[must_use]
    pub fn aggregate(&self) -> Option<&AggregateOp> {
        self.nodes.iter().find_map(|n| match &n.operator {
            Operator::Aggregate(a) => Some(a),
            _ => None,
        })
    }

    /// Validate the whole chain against the input stream's schema and return
    /// the schema of the output stream.
    ///
    /// # Errors
    /// Returns the first validation error encountered along the chain.
    pub fn output_schema(&self, input: &Schema) -> Result<Schema, DsmsError> {
        input.validate().map_err(DsmsError::InvalidGraph)?;
        let mut current = input.clone();
        for node in &self.nodes {
            current = node.operator.output_schema(&current)?;
        }
        Ok(current)
    }

    /// Validate the chain without materialising the output schema.
    ///
    /// # Errors
    /// Same as [`QueryGraph::output_schema`].
    pub fn validate(&self, input: &Schema) -> Result<(), DsmsError> {
        self.output_schema(input).map(|_| ())
    }

    /// A canonical textual signature of the whole graph, usable as a
    /// plan-cache key: the stream name lowercased (stream registration is
    /// case-sensitive but the access-control layer canonicalizes stream
    /// names to lowercase), followed by the exact `Display` form of every
    /// operator box in order. Two graphs with equal signatures compute the
    /// same derived stream, so they can share one deployment; the converse
    /// does not hold (semantically equal but syntactically different filters
    /// get distinct signatures — missed sharing, never wrong sharing).
    #[must_use]
    pub fn canonical_signature(&self) -> String {
        use std::fmt::Write;
        let mut sig = self.stream.to_ascii_lowercase();
        for node in &self.nodes {
            let _ = write!(sig, " -> {}", node.operator);
        }
        sig
    }

    /// A short structural signature — which box kinds appear, in order —
    /// used by the workload generator to label query-graph compositions
    /// (`FB`, `MB`, `AB`, `FB+MB`, ... as in Table 3).
    #[must_use]
    pub fn composition(&self) -> String {
        let mut parts = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let tag = match node.operator {
                Operator::Filter(_) => "FB",
                Operator::Map(_) => "MB",
                Operator::Aggregate(_) => "AB",
            };
            if !parts.contains(&tag) {
                parts.push(tag);
            }
        }
        parts.join("+")
    }
}

impl fmt::Display for QueryGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.stream)?;
        for node in &self.nodes {
            write!(f, " -> {}", node.operator)?;
        }
        Ok(())
    }
}

/// Fluent construction of query graphs.
///
/// ```
/// use exacml_dsms::prelude::*;
/// let graph = QueryGraphBuilder::on_stream("weather")
///     .filter_str("rainrate > 5").unwrap()
///     .map(["samplingtime", "rainrate", "windspeed"])
///     .aggregate(
///         WindowSpec::tuples(5, 2),
///         vec![AggSpec::new("rainrate", AggFunc::Avg)],
///     )
///     .build();
/// assert_eq!(graph.len(), 3);
/// assert_eq!(graph.composition(), "FB+MB+AB");
/// ```
#[derive(Debug, Clone)]
pub struct QueryGraphBuilder {
    stream: String,
    operators: Vec<Operator>,
}

impl QueryGraphBuilder {
    /// Start a graph over the named input stream.
    #[must_use]
    pub fn on_stream(stream: impl Into<String>) -> Self {
        QueryGraphBuilder { stream: stream.into(), operators: Vec::new() }
    }

    /// Append a filter box with an already-parsed condition.
    #[must_use]
    pub fn filter(mut self, op: FilterOp) -> Self {
        self.operators.push(Operator::Filter(op));
        self
    }

    /// Append a filter box from a textual condition.
    ///
    /// # Errors
    /// Returns [`DsmsError::BadCondition`] when the text does not parse.
    pub fn filter_str(self, condition: &str) -> Result<Self, DsmsError> {
        let op = FilterOp::parse(condition)?;
        Ok(self.filter(op))
    }

    /// Append a map (projection) box.
    #[must_use]
    pub fn map<I, S>(mut self, attributes: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.operators.push(Operator::Map(MapOp::new(attributes)));
        self
    }

    /// Append a window-based aggregation box.
    #[must_use]
    pub fn aggregate(mut self, window: WindowSpec, specs: Vec<AggSpec>) -> Self {
        self.operators.push(Operator::Aggregate(AggregateOp::new(window, specs)));
        self
    }

    /// Append an arbitrary operator box.
    #[must_use]
    pub fn operator(mut self, op: Operator) -> Self {
        self.operators.push(op);
        self
    }

    /// Finish building.
    #[must_use]
    pub fn build(self) -> QueryGraph {
        QueryGraph::from_operators(self.stream, self.operators)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::aggregate::AggFunc;
    use crate::value::DataType;

    fn example1_graph() -> QueryGraph {
        QueryGraphBuilder::on_stream("weather")
            .filter_str("rainrate > 5")
            .unwrap()
            .map(["samplingtime", "rainrate", "windspeed"])
            .aggregate(
                WindowSpec::tuples(5, 2),
                vec![
                    AggSpec::new("samplingtime", AggFunc::LastValue),
                    AggSpec::new("rainrate", AggFunc::Avg),
                    AggSpec::new("windspeed", AggFunc::Max),
                ],
            )
            .build()
    }

    #[test]
    fn builder_produces_figure1_chain() {
        let g = example1_graph();
        assert_eq!(g.stream, "weather");
        assert_eq!(g.len(), 3);
        assert_eq!(g.composition(), "FB+MB+AB");
        assert!(g.filter().is_some());
        assert!(g.map().is_some());
        assert!(g.aggregate().is_some());
        assert_eq!(g.nodes[0].id, 0);
        assert_eq!(g.nodes[2].id, 2);
    }

    #[test]
    fn output_schema_of_figure1() {
        let g = example1_graph();
        let out = g.output_schema(&Schema::weather_example()).unwrap();
        assert_eq!(out.field_names(), vec!["lastvalsamplingtime", "avgrainrate", "maxwindspeed"]);
    }

    #[test]
    fn identity_graph_passes_schema_through() {
        let g = QueryGraph::identity("weather");
        assert!(g.is_empty());
        assert_eq!(g.output_schema(&Schema::weather_example()).unwrap(), Schema::weather_example());
        assert_eq!(g.composition(), "");
    }

    #[test]
    fn validation_catches_mid_chain_errors() {
        // The map drops `windspeed`, so aggregating over it must fail.
        let g = QueryGraphBuilder::on_stream("weather")
            .map(["samplingtime", "rainrate"])
            .aggregate(WindowSpec::tuples(5, 2), vec![AggSpec::new("windspeed", AggFunc::Max)])
            .build();
        assert!(matches!(
            g.validate(&Schema::weather_example()),
            Err(DsmsError::UnknownAttribute { attribute, .. }) if attribute == "windspeed"
        ));
    }

    #[test]
    fn validation_rejects_invalid_input_schema() {
        let g = QueryGraph::identity("s");
        let bad = Schema::from_pairs([("a", DataType::Int), ("a", DataType::Int)]);
        assert!(matches!(g.validate(&bad), Err(DsmsError::InvalidGraph(_))));
    }

    #[test]
    fn composition_labels_match_table3_categories() {
        let schema_attrs = ["samplingtime", "rainrate"];
        let fb = QueryGraphBuilder::on_stream("s").filter_str("rainrate > 1").unwrap().build();
        let mb = QueryGraphBuilder::on_stream("s").map(schema_attrs).build();
        let ab = QueryGraphBuilder::on_stream("s")
            .aggregate(WindowSpec::tuples(3, 1), vec![AggSpec::new("rainrate", AggFunc::Avg)])
            .build();
        assert_eq!(fb.composition(), "FB");
        assert_eq!(mb.composition(), "MB");
        assert_eq!(ab.composition(), "AB");
        let fb_mb = QueryGraphBuilder::on_stream("s")
            .filter_str("rainrate > 1")
            .unwrap()
            .map(schema_attrs)
            .build();
        assert_eq!(fb_mb.composition(), "FB+MB");
    }

    #[test]
    fn canonical_signature_ignores_stream_case_but_not_literals() {
        let lower = QueryGraphBuilder::on_stream("weather").filter_str("s = 'X'").unwrap().build();
        let upper = QueryGraphBuilder::on_stream("Weather").filter_str("s = 'X'").unwrap().build();
        assert_eq!(lower.canonical_signature(), upper.canonical_signature());
        // Text literals differing only in case are semantically different
        // filters and must NOT share a plan.
        let other = QueryGraphBuilder::on_stream("weather").filter_str("s = 'x'").unwrap().build();
        assert_ne!(lower.canonical_signature(), other.canonical_signature());
    }

    #[test]
    fn display_lists_chain() {
        let g = example1_graph();
        let s = g.to_string();
        assert!(s.starts_with("weather ->"));
        assert!(s.contains("Filter"));
        assert!(s.contains("Aggregate"));
    }
}
