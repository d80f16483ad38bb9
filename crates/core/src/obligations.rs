//! The stream obligation vocabulary (Table 1 / Figure 2) and the translation
//! between obligations and Aurora query graphs.
//!
//! eXACML+ expresses fine-grained stream constraints inside the obligations
//! block of an XACML policy. Three obligation types exist, one per operator
//! box, each with a fixed set of attribute-assignment identifiers:
//!
//! | operator | obligation id | assignment ids |
//! |---|---|---|
//! | filter | `exacml:obligation:stream-filter` | `…stream-filter-condition-id` |
//! | map | `exacml:obligation:stream-map` | `…stream-map-attribute-id` (repeated) |
//! | window aggregation | `exacml:obligation:stream-window` | `…stream-window-type-id`, `…-size-id`, `…-step-id`, `…-attr-id` (repeated, `attr:function`) |
//!
//! [`obligations_from_graph`] renders a query graph into that vocabulary and
//! [`graph_from_obligations`] does the reverse (what the PEP performs on a
//! Permit decision). [`StreamPolicyBuilder`] is the convenience layer data
//! owners (and the evaluation workload generator) use to write complete
//! policies.

use crate::error::ExacmlError;
use exacml_dsms::{
    AggSpec, AggregateOp, FilterOp, MapOp, Operator, QueryGraph, WindowKind, WindowSpec,
};
use exacml_xacml::{Obligation, Policy, Rule, Target};

/// Obligation and attribute-assignment identifiers (Table 1 / Figure 2).
pub mod ids {
    /// Obligation id of the filter operator.
    pub const STREAM_FILTER: &str = "exacml:obligation:stream-filter";
    /// Obligation id of the map operator.
    pub const STREAM_MAP: &str = "exacml:obligation:stream-map";
    /// Obligation id of the window-based aggregation operator.
    pub const STREAM_WINDOW: &str = "exacml:obligation:stream-window";

    /// Alternative spellings used in the paper's Table 1 (the prose uses
    /// `-filtering` / `-mapping` / `-window-aggregation`; Figure 2 uses the
    /// short forms). Both are accepted when parsing.
    pub const STREAM_FILTER_ALT: &str = "exacml:obligation:stream-filtering";
    /// Alternative spelling of [`STREAM_MAP`].
    pub const STREAM_MAP_ALT: &str = "exacml:obligation:stream-mapping";
    /// Alternative spelling of [`STREAM_WINDOW`].
    pub const STREAM_WINDOW_ALT: &str = "exacml:obligation:stream-window-aggregation";

    /// Assignment id carrying the filter condition string.
    pub const FILTER_CONDITION: &str = "pCloud:obligation:stream-filter-condition-id";
    /// Assignment id carrying one visible attribute name (repeated).
    pub const MAP_ATTRIBUTE: &str = "pCloud:obligation:stream-map-attribute-id";
    /// Assignment id carrying the window type (`tuple` / `time`).
    pub const WINDOW_TYPE: &str = "pCloud:obligation:stream-window-type-id";
    /// Assignment id carrying the window size.
    pub const WINDOW_SIZE: &str = "pCloud:obligation:stream-window-size-id";
    /// Assignment id carrying the window advance step.
    pub const WINDOW_STEP: &str = "pCloud:obligation:stream-window-step-id";
    /// Assignment id carrying one `attribute:function` pair (repeated).
    pub const WINDOW_ATTR: &str = "pCloud:obligation:stream-window-attr-id";
}

fn is_filter_obligation(id: &str) -> bool {
    id == ids::STREAM_FILTER || id == ids::STREAM_FILTER_ALT
}
fn is_map_obligation(id: &str) -> bool {
    id == ids::STREAM_MAP || id == ids::STREAM_MAP_ALT
}
fn is_window_obligation(id: &str) -> bool {
    id == ids::STREAM_WINDOW || id == ids::STREAM_WINDOW_ALT
}

/// Render a query graph into the obligation vocabulary (one obligation per
/// operator box, in graph order).
#[must_use]
pub fn obligations_from_graph(graph: &QueryGraph) -> Vec<Obligation> {
    let mut obligations = Vec::with_capacity(graph.len());
    for node in &graph.nodes {
        match &node.operator {
            Operator::Filter(op) => obligations.push(filter_obligation(op.source())),
            Operator::Map(op) => {
                let mut ob = Obligation::on_permit(ids::STREAM_MAP);
                for attr in op.attributes() {
                    ob = ob.with_string(ids::MAP_ATTRIBUTE, attr.clone());
                }
                obligations.push(ob);
            }
            Operator::Aggregate(op) => {
                let mut ob = Obligation::on_permit(ids::STREAM_WINDOW)
                    .with_integer(ids::WINDOW_STEP, op.window.advance as i64)
                    .with_integer(ids::WINDOW_SIZE, op.window.size as i64)
                    .with_string(ids::WINDOW_TYPE, op.window.kind.keyword());
                for spec in &op.specs {
                    ob = ob.with_string(ids::WINDOW_ATTR, spec.encode());
                }
                obligations.push(ob);
            }
        }
    }
    obligations
}

fn filter_obligation(condition: &str) -> Obligation {
    Obligation::on_permit(ids::STREAM_FILTER).with_string(ids::FILTER_CONDITION, condition)
}

/// Translate a set of obligations back into a query graph over `stream`.
/// This is what the PEP does when the PDP returns Permit (Section 3.2,
/// step 2). Obligations that are not part of the stream vocabulary are
/// ignored (they may be audit obligations handled elsewhere).
///
/// The resulting chain is always ordered filter → map → aggregation, as in
/// Figure 1, regardless of obligation order in the policy document.
///
/// # Errors
/// Returns [`ExacmlError::BadObligation`] when a stream obligation is
/// malformed (missing assignments, unparsable condition, unknown function).
pub fn graph_from_obligations(
    stream: &str,
    obligations: &[Obligation],
) -> Result<QueryGraph, ExacmlError> {
    let mut filter: Option<FilterOp> = None;
    let mut map: Option<MapOp> = None;
    let mut aggregate: Option<AggregateOp> = None;

    for ob in obligations {
        if is_filter_obligation(&ob.id) {
            let condition =
                ob.first_text(ids::FILTER_CONDITION).ok_or_else(|| ExacmlError::BadObligation {
                    obligation_id: ob.id.clone(),
                    detail: "missing stream-filter-condition-id assignment".into(),
                })?;
            let op = FilterOp::parse(condition).map_err(|e| ExacmlError::BadObligation {
                obligation_id: ob.id.clone(),
                detail: e.to_string(),
            })?;
            filter = Some(match filter {
                // Multiple filter obligations conjoin.
                Some(existing) => {
                    FilterOp::new(existing.condition().clone().and(op.condition().clone()))
                }
                None => op,
            });
        } else if is_map_obligation(&ob.id) {
            let attrs: Vec<String> =
                ob.values_of(ids::MAP_ATTRIBUTE).iter().map(|v| v.text.clone()).collect();
            if attrs.is_empty() {
                return Err(ExacmlError::BadObligation {
                    obligation_id: ob.id.clone(),
                    detail: "map obligation lists no attributes".into(),
                });
            }
            map = Some(MapOp::new(attrs));
        } else if is_window_obligation(&ob.id) {
            let size =
                ob.first_integer(ids::WINDOW_SIZE).ok_or_else(|| ExacmlError::BadObligation {
                    obligation_id: ob.id.clone(),
                    detail: "missing or non-integer stream-window-size-id".into(),
                })?;
            let step =
                ob.first_integer(ids::WINDOW_STEP).ok_or_else(|| ExacmlError::BadObligation {
                    obligation_id: ob.id.clone(),
                    detail: "missing or non-integer stream-window-step-id".into(),
                })?;
            let kind = ob
                .first_text(ids::WINDOW_TYPE)
                .and_then(WindowKind::from_keyword)
                .ok_or_else(|| ExacmlError::BadObligation {
                    obligation_id: ob.id.clone(),
                    detail: "missing or unknown stream-window-type-id".into(),
                })?;
            if size <= 0 || step <= 0 {
                return Err(ExacmlError::BadObligation {
                    obligation_id: ob.id.clone(),
                    detail: format!("window size {size} / step {step} must be positive"),
                });
            }
            let mut specs = Vec::new();
            for v in ob.values_of(ids::WINDOW_ATTR) {
                let spec = AggSpec::parse(&v.text).ok_or_else(|| ExacmlError::BadObligation {
                    obligation_id: ob.id.clone(),
                    detail: format!("bad attribute:function pair '{}'", v.text),
                })?;
                specs.push(spec);
            }
            if specs.is_empty() {
                return Err(ExacmlError::BadObligation {
                    obligation_id: ob.id.clone(),
                    detail: "window obligation lists no attribute:function pairs".into(),
                });
            }
            aggregate = Some(AggregateOp::new(
                WindowSpec { kind, size: size as u64, advance: step as u64 },
                specs,
            ));
        }
    }

    let mut operators = Vec::new();
    if let Some(op) = filter {
        operators.push(Operator::Filter(op));
    }
    if let Some(op) = map {
        operators.push(Operator::Map(op));
    }
    if let Some(op) = aggregate {
        operators.push(Operator::Aggregate(op));
    }
    Ok(QueryGraph::from_operators(stream, operators))
}

/// Convenience builder for complete stream-access policies: the target names
/// who may subscribe to which stream, and the obligations encode what they
/// may see. This is the API data owners (the NEA in the paper's example) and
/// the workload generator use.
///
/// ```
/// use exacml_plus::StreamPolicyBuilder;
/// use exacml_dsms::{AggFunc, AggSpec, WindowSpec};
///
/// // The Example 1 policy: LTA may subscribe to the weather stream, sees
/// // only three attributes, in windows of 5 advancing by 2, and only while
/// // it rains hard.
/// let policy = StreamPolicyBuilder::new("nea-weather-for-lta", "weather")
///     .subject("LTA")
///     .filter("rainrate > 5")
///     .visible_attributes(["samplingtime", "rainrate", "windspeed"])
///     .window(WindowSpec::tuples(5, 2), vec![
///         AggSpec::new("samplingtime", AggFunc::LastValue),
///         AggSpec::new("rainrate", AggFunc::Avg),
///         AggSpec::new("windspeed", AggFunc::Max),
///     ])
///     .build();
/// assert_eq!(policy.obligations.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct StreamPolicyBuilder {
    policy_id: String,
    stream: String,
    subject: Option<String>,
    action: String,
    description: String,
    filter: Option<String>,
    visible: Vec<String>,
    window: Option<(WindowSpec, Vec<AggSpec>)>,
}

impl StreamPolicyBuilder {
    /// A policy named `policy_id` governing access to `stream`.
    pub fn new(policy_id: impl Into<String>, stream: impl Into<String>) -> Self {
        StreamPolicyBuilder {
            policy_id: policy_id.into(),
            stream: stream.into(),
            subject: None,
            action: "subscribe".into(),
            description: String::new(),
            filter: None,
            visible: Vec::new(),
            window: None,
        }
    }

    /// Restrict the policy to one subject (data consumer). Without it the
    /// policy applies to any subject asking for the stream.
    #[must_use]
    pub fn subject(mut self, subject: impl Into<String>) -> Self {
        self.subject = Some(subject.into());
        self
    }

    /// Override the action (defaults to `subscribe`).
    #[must_use]
    pub fn action(mut self, action: impl Into<String>) -> Self {
        self.action = action.into();
        self
    }

    /// Free-form description.
    #[must_use]
    pub fn description(mut self, description: impl Into<String>) -> Self {
        self.description = description.into();
        self
    }

    /// The row-visibility condition (filter obligation).
    #[must_use]
    pub fn filter(mut self, condition: impl Into<String>) -> Self {
        self.filter = Some(condition.into());
        self
    }

    /// The visible attributes (map obligation).
    #[must_use]
    pub fn visible_attributes<I, S>(mut self, attrs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.visible = attrs.into_iter().map(Into::into).collect();
        self
    }

    /// The mandatory aggregation window (window obligation).
    #[must_use]
    pub fn window(mut self, window: WindowSpec, specs: Vec<AggSpec>) -> Self {
        self.window = Some((window, specs));
        self
    }

    /// Build the XACML policy: the target matches the subject / stream /
    /// action triple, a single Permit rule applies, and the obligations
    /// encode the stream constraints.
    ///
    /// The filter condition is written as given (trimmed), whether it parses
    /// or not: a condition that does not parse fails every request under the
    /// policy with [`ExacmlError::BadObligation`] rather than granting the
    /// unfiltered stream.
    #[must_use]
    pub fn build(&self) -> Policy {
        let target = match &self.subject {
            Some(subject) => Target::subject_resource_action(subject, &self.stream, &self.action),
            None => {
                use exacml_xacml::request::ids as req_ids;
                use exacml_xacml::{AttributeCategory, AttributeMatch};
                Target::new(vec![
                    AttributeMatch::new(
                        AttributeCategory::Resource,
                        req_ids::RESOURCE_ID,
                        &self.stream,
                    ),
                    AttributeMatch::new(
                        AttributeCategory::Action,
                        req_ids::ACTION_ID,
                        &self.action,
                    ),
                ])
            }
        };
        let mut policy = Policy::new(&self.policy_id)
            .with_description(&self.description)
            .with_target(target)
            .with_rule(Rule::permit_all(format!("{}-permit", self.policy_id)));
        let mut operators = Vec::new();
        if !self.visible.is_empty() {
            operators.push(Operator::Map(MapOp::new(self.visible.clone())));
        }
        if let Some((window, specs)) = &self.window {
            operators.push(Operator::Aggregate(AggregateOp::new(*window, specs.clone())));
        }
        let constraints = QueryGraph::from_operators(&self.stream, operators);
        let filter = self.filter.as_deref().map(|condition| filter_obligation(condition.trim()));
        for ob in filter.into_iter().chain(obligations_from_graph(&constraints)) {
            policy = policy.with_obligation(ob);
        }
        policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exacml_dsms::{AggFunc, QueryGraphBuilder, Schema};

    fn example1_builder() -> StreamPolicyBuilder {
        StreamPolicyBuilder::new("nea-weather-for-lta", "weather")
            .subject("LTA")
            .description("real-time weather for the traffic warning system")
            .filter("rainrate > 5")
            .visible_attributes(["samplingtime", "rainrate", "windspeed"])
            .window(
                WindowSpec::tuples(5, 2),
                vec![
                    AggSpec::new("samplingtime", AggFunc::LastValue),
                    AggSpec::new("rainrate", AggFunc::Avg),
                    AggSpec::new("windspeed", AggFunc::Max),
                ],
            )
    }

    /// The Example 1 policy graph (Figure 1) `example1_builder` describes.
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
    fn builder_produces_figure2_obligations() {
        let policy = example1_builder().build();
        assert_eq!(policy.obligations.len(), 3);
        let filter = &policy.obligations[0];
        assert_eq!(filter.id, ids::STREAM_FILTER);
        assert_eq!(filter.first_text(ids::FILTER_CONDITION), Some("rainrate > 5"));
        let map = &policy.obligations[1];
        assert_eq!(map.values_of(ids::MAP_ATTRIBUTE).len(), 3);
        let window = &policy.obligations[2];
        assert_eq!(window.first_integer(ids::WINDOW_SIZE), Some(5));
        assert_eq!(window.first_integer(ids::WINDOW_STEP), Some(2));
        assert_eq!(window.first_text(ids::WINDOW_TYPE), Some("tuple"));
        assert_eq!(window.values_of(ids::WINDOW_ATTR).len(), 3);
        assert_eq!(window.values_of(ids::WINDOW_ATTR)[1].text, "rainrate:avg");
    }

    #[test]
    fn graph_round_trips_through_obligations() {
        let graph = example1_graph();
        let obligations = obligations_from_graph(&graph);
        assert_eq!(example1_builder().build().obligations, obligations);
        let rebuilt = graph_from_obligations("weather", &obligations).unwrap();
        assert_eq!(rebuilt, graph);
        // The rebuilt graph validates against the weather schema and yields
        // the Figure 1 output schema.
        let out = rebuilt.output_schema(&Schema::weather_example()).unwrap();
        assert_eq!(out.field_names(), vec!["lastvalsamplingtime", "avgrainrate", "maxwindspeed"]);
    }

    #[test]
    fn obligation_order_does_not_matter() {
        let graph = example1_graph();
        let mut obligations = obligations_from_graph(&graph);
        obligations.reverse();
        let rebuilt = graph_from_obligations("weather", &obligations).unwrap();
        assert_eq!(rebuilt.composition(), "FB+MB+AB");
        assert_eq!(rebuilt, graph);
    }

    #[test]
    fn alternative_table1_ids_are_accepted() {
        let ob = Obligation::on_permit(ids::STREAM_FILTER_ALT)
            .with_string(ids::FILTER_CONDITION, "a > 1");
        let graph = graph_from_obligations("s", &[ob]).unwrap();
        assert_eq!(graph.composition(), "FB");
        let ob = Obligation::on_permit(ids::STREAM_MAP_ALT).with_string(ids::MAP_ATTRIBUTE, "a");
        assert_eq!(graph_from_obligations("s", &[ob]).unwrap().composition(), "MB");
    }

    #[test]
    fn unrelated_obligations_are_ignored() {
        let ob = Obligation::on_permit("exacml:obligation:audit-log");
        let graph = graph_from_obligations("s", &[ob]).unwrap();
        assert!(graph.is_empty());
    }

    #[test]
    fn multiple_filter_obligations_conjoin() {
        let obs = vec![
            Obligation::on_permit(ids::STREAM_FILTER).with_string(ids::FILTER_CONDITION, "a > 1"),
            Obligation::on_permit(ids::STREAM_FILTER).with_string(ids::FILTER_CONDITION, "b < 2"),
        ];
        let graph = graph_from_obligations("s", &obs).unwrap();
        let cond = graph.filter().unwrap().condition().to_string();
        assert!(cond.contains("a > 1") && cond.contains("b < 2"));
    }

    #[test]
    fn malformed_obligations_are_rejected() {
        // Missing condition.
        let ob = Obligation::on_permit(ids::STREAM_FILTER);
        assert!(matches!(
            graph_from_obligations("s", &[ob]),
            Err(ExacmlError::BadObligation { .. })
        ));
        // Unparsable condition.
        let ob =
            Obligation::on_permit(ids::STREAM_FILTER).with_string(ids::FILTER_CONDITION, "a >");
        assert!(graph_from_obligations("s", &[ob]).is_err());
        // Empty map.
        let ob = Obligation::on_permit(ids::STREAM_MAP);
        assert!(graph_from_obligations("s", &[ob]).is_err());
        // Window without size.
        let ob = Obligation::on_permit(ids::STREAM_WINDOW)
            .with_integer(ids::WINDOW_STEP, 2)
            .with_string(ids::WINDOW_TYPE, "tuple")
            .with_string(ids::WINDOW_ATTR, "a:avg");
        assert!(graph_from_obligations("s", &[ob]).is_err());
        // Window with a negative size.
        let ob = Obligation::on_permit(ids::STREAM_WINDOW)
            .with_integer(ids::WINDOW_SIZE, -5)
            .with_integer(ids::WINDOW_STEP, 2)
            .with_string(ids::WINDOW_TYPE, "tuple")
            .with_string(ids::WINDOW_ATTR, "a:avg");
        assert!(graph_from_obligations("s", &[ob]).is_err());
        // Window with a bad function.
        let ob = Obligation::on_permit(ids::STREAM_WINDOW)
            .with_integer(ids::WINDOW_SIZE, 5)
            .with_integer(ids::WINDOW_STEP, 2)
            .with_string(ids::WINDOW_TYPE, "tuple")
            .with_string(ids::WINDOW_ATTR, "a:median");
        assert!(graph_from_obligations("s", &[ob]).is_err());
        // Window without attribute pairs.
        let ob = Obligation::on_permit(ids::STREAM_WINDOW)
            .with_integer(ids::WINDOW_SIZE, 5)
            .with_integer(ids::WINDOW_STEP, 2)
            .with_string(ids::WINDOW_TYPE, "tuple");
        assert!(graph_from_obligations("s", &[ob]).is_err());
    }

    #[test]
    fn policy_target_matches_only_named_subject() {
        use exacml_xacml::Request;
        let policy = example1_builder().build();
        assert!(policy.evaluate(&Request::subscribe("LTA", "weather")).is_some());
        assert!(policy.evaluate(&Request::subscribe("EMA", "weather")).is_none());
        // Without a subject restriction any subject matches.
        let open = StreamPolicyBuilder::new("open-weather", "weather").filter("TRUE").build();
        assert!(open.evaluate(&Request::subscribe("anyone", "weather")).is_some());
        assert!(open.evaluate(&Request::subscribe("anyone", "gps")).is_none());
    }

    #[test]
    fn policy_round_trips_through_xml() {
        let policy = example1_builder().build();
        let xml = exacml_xacml::xml::write_policy(&policy);
        let parsed = exacml_xacml::xml::parse_policy(&xml).unwrap();
        assert_eq!(parsed, policy);
        // And the obligations still translate to the same graph.
        let graph = graph_from_obligations("weather", &parsed.obligations).unwrap();
        assert_eq!(graph, example1_graph());
    }
}
