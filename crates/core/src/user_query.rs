//! Customised user queries (Figure 4a).
//!
//! "In many cases, the data stream accessible by the user may not directly
//! fit the actual requirement" (Section 3.1) — the LTA only cares about
//! downpours above 50 mm/h and wants coarser windows than the policy's
//! default. Rather than post-processing locally, the user attaches a
//! customised query to the access request; the PEP turns it into a query
//! graph and merges it with the policy-derived graph.
//!
//! The wire format is the XML document of Figure 4(a):
//!
//! ```xml
//! <UserQuery>
//!   <Stream name="weather"/>
//!   <Filter><FilterCondition>RainRate &gt; 50</FilterCondition></Filter>
//!   <Map><Attribute>RainRate</Attribute></Map>
//!   <Aggregation>
//!     <WindowType>tuple</WindowType>
//!     <WindowSize>10</WindowSize>
//!     <WindowStep>2</WindowStep>
//!     <Attribute>avg(RainRate)</Attribute>
//!   </Aggregation>
//! </UserQuery>
//! ```

use crate::error::ExacmlError;
use exacml_dsms::{AggFunc, AggSpec, QueryGraph, QueryGraphBuilder, WindowKind, WindowSpec};
use exacml_xacml::xml::{parse_document, DocumentWriter};

/// The aggregation part of a user query.
#[derive(Debug, Clone, PartialEq)]
pub struct UserAggregation {
    /// Requested sliding window.
    pub window: WindowSpec,
    /// Requested `function(attribute)` pairs.
    pub specs: Vec<AggSpec>,
}

/// A customised continuous query attached to an access request.
#[derive(Debug, Clone, PartialEq)]
pub struct UserQuery {
    /// The stream the query targets.
    pub stream: String,
    /// Optional additional filter condition.
    pub filter: Option<String>,
    /// Optional projection (attribute names); empty means "no projection".
    pub map: Vec<String>,
    /// Optional window-based aggregation.
    pub aggregation: Option<UserAggregation>,
}

impl UserQuery {
    /// A query over a stream with no additional constraints.
    pub fn for_stream(stream: impl Into<String>) -> Self {
        UserQuery { stream: stream.into(), filter: None, map: Vec::new(), aggregation: None }
    }

    /// Add a filter condition (builder style).
    #[must_use]
    pub fn with_filter(mut self, condition: impl Into<String>) -> Self {
        self.filter = Some(condition.into());
        self
    }

    /// Add a projection (builder style).
    #[must_use]
    pub fn with_map<I, S>(mut self, attrs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.map = attrs.into_iter().map(Into::into).collect();
        self
    }

    /// Add an aggregation (builder style).
    #[must_use]
    pub fn with_aggregation(mut self, window: WindowSpec, specs: Vec<AggSpec>) -> Self {
        self.aggregation = Some(UserAggregation { window, specs });
        self
    }

    /// Whether the query adds no constraints at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.filter.is_none() && self.map.is_empty() && self.aggregation.is_none()
    }

    /// Convert into an Aurora query graph (filter → map → aggregation).
    ///
    /// # Errors
    /// Fails when the filter condition does not parse.
    pub fn to_graph(&self) -> Result<QueryGraph, ExacmlError> {
        let mut builder = QueryGraphBuilder::on_stream(&self.stream);
        if let Some(cond) = &self.filter {
            builder = builder
                .filter_str(cond)
                .map_err(|e| ExacmlError::InvalidUserQuery(e.to_string()))?;
        }
        if !self.map.is_empty() {
            builder = builder.map(self.map.clone());
        }
        if let Some(agg) = &self.aggregation {
            builder = builder.aggregate(agg.window, agg.specs.clone());
        }
        Ok(builder.build())
    }

    /// A canonical fingerprint of the query, used by the proxy cache and by
    /// the single-access guard to recognise "the same query again".
    #[must_use]
    pub fn fingerprint(&self) -> String {
        let mut parts = vec![format!("stream={}", self.stream.to_ascii_lowercase())];
        if let Some(f) = &self.filter {
            parts.push(format!("filter={}", f.split_whitespace().collect::<Vec<_>>().join(" ")));
        }
        if !self.map.is_empty() {
            let mut attrs: Vec<String> = self.map.iter().map(|a| a.to_ascii_lowercase()).collect();
            attrs.sort();
            parts.push(format!("map={}", attrs.join(",")));
        }
        if let Some(agg) = &self.aggregation {
            let mut specs: Vec<String> =
                agg.specs.iter().map(|s| s.encode().to_ascii_lowercase()).collect();
            specs.sort();
            parts.push(format!(
                "window={}:{}:{}:{}",
                agg.window.kind.keyword(),
                agg.window.size,
                agg.window.advance,
                specs.join(",")
            ));
        }
        parts.join(";")
    }

    /// Serialize to the Figure 4(a) XML form, in one pass.
    #[must_use]
    pub fn to_xml(&self) -> String {
        let mut doc = DocumentWriter::default();
        doc.start("UserQuery", []);
        doc.text_element("Stream", [("name", &*self.stream)], "");
        if let Some(filter) = &self.filter {
            doc.start("Filter", []);
            doc.text_element("FilterCondition", [], filter);
            doc.end("Filter");
        }
        if !self.map.is_empty() {
            doc.start("Map", []);
            for attr in &self.map {
                doc.text_element("Attribute", [], attr);
            }
            doc.end("Map");
        }
        if let Some(agg) = &self.aggregation {
            doc.start("Aggregation", []);
            doc.text_element("WindowType", [], agg.window.kind.keyword());
            doc.text_element("WindowSize", [], &agg.window.size.to_string());
            doc.text_element("WindowStep", [], &agg.window.advance.to_string());
            for spec in &agg.specs {
                let pair = format!("{}({})", spec.function.keyword(), spec.attribute);
                doc.text_element("Attribute", [], &pair);
            }
            doc.end("Aggregation");
        }
        doc.end("UserQuery");
        doc.finish()
    }

    /// Parse the Figure 4(a) XML form.
    ///
    /// # Errors
    /// Returns [`ExacmlError::InvalidUserQuery`] describing the problem.
    pub fn from_xml(xml: &str) -> Result<UserQuery, ExacmlError> {
        let root = parse_document(xml).map_err(|e| ExacmlError::InvalidUserQuery(e.to_string()))?;
        if root.name != "UserQuery" {
            return Err(ExacmlError::InvalidUserQuery(format!(
                "expected <UserQuery>, found <{}>",
                root.name
            )));
        }
        let stream = root
            .first_child("Stream")
            .and_then(|s| s.attribute("name").map(str::to_string))
            .ok_or_else(|| ExacmlError::InvalidUserQuery("missing <Stream name=...>".into()))?;
        let mut query = UserQuery::for_stream(stream);

        if let Some(filter_el) = root.first_child("Filter") {
            let condition = filter_el
                .first_child("FilterCondition")
                .map(|c| c.text.clone())
                .filter(|t| !t.trim().is_empty())
                .ok_or_else(|| {
                    ExacmlError::InvalidUserQuery("<Filter> without <FilterCondition>".into())
                })?;
            query.filter = Some(condition);
        }
        if let Some(map_el) = root.first_child("Map") {
            let attrs: Vec<String> = map_el
                .children_named("Attribute")
                .iter()
                .map(|a| a.text.trim().to_string())
                .filter(|a| !a.is_empty())
                .collect();
            if attrs.is_empty() {
                return Err(ExacmlError::InvalidUserQuery("<Map> lists no attributes".into()));
            }
            query.map = attrs;
        }
        if let Some(agg_el) = root.first_child("Aggregation") {
            let kind = agg_el
                .first_child("WindowType")
                .and_then(|t| WindowKind::from_keyword(t.text.trim()))
                .ok_or_else(|| {
                    ExacmlError::InvalidUserQuery("bad or missing <WindowType>".into())
                })?;
            let size: u64 = agg_el
                .first_child("WindowSize")
                .and_then(|t| t.text.trim().parse().ok())
                .ok_or_else(|| {
                    ExacmlError::InvalidUserQuery("bad or missing <WindowSize>".into())
                })?;
            let advance: u64 = agg_el
                .first_child("WindowStep")
                .and_then(|t| t.text.trim().parse().ok())
                .ok_or_else(|| {
                    ExacmlError::InvalidUserQuery("bad or missing <WindowStep>".into())
                })?;
            let mut specs = Vec::new();
            for attr_el in agg_el.children_named("Attribute") {
                let text = attr_el.text.trim();
                let spec = parse_func_attr(text).ok_or_else(|| {
                    ExacmlError::InvalidUserQuery(format!("bad aggregation attribute '{text}'"))
                })?;
                specs.push(spec);
            }
            if specs.is_empty() {
                return Err(ExacmlError::InvalidUserQuery(
                    "<Aggregation> lists no attributes".into(),
                ));
            }
            query.aggregation =
                Some(UserAggregation { window: WindowSpec { kind, size, advance }, specs });
        }
        Ok(query)
    }
}

/// Parse `func(attr)` (the Figure 4a spelling) or `attr:func` (the obligation
/// spelling) into an aggregation spec.
fn parse_func_attr(text: &str) -> Option<AggSpec> {
    if let Some(open) = text.find('(') {
        let close = text.rfind(')')?;
        let func = AggFunc::from_keyword(text[..open].trim())?;
        let attr = text[open + 1..close].trim();
        if attr.is_empty() {
            return None;
        }
        return Some(AggSpec::new(attr, func));
    }
    AggSpec::parse(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure4a_query() -> UserQuery {
        UserQuery::for_stream("weather")
            .with_filter("RainRate > 50")
            .with_map(["RainRate"])
            .with_aggregation(
                WindowSpec::tuples(10, 2),
                vec![AggSpec::new("RainRate", AggFunc::Avg)],
            )
    }

    #[test]
    fn builder_and_graph() {
        let q = figure4a_query();
        assert!(!q.is_empty());
        let g = q.to_graph().unwrap();
        assert_eq!(g.composition(), "FB+MB+AB");
        assert_eq!(g.stream, "weather");
        assert_eq!(g.aggregate().unwrap().window, WindowSpec::tuples(10, 2));
    }

    #[test]
    fn empty_query_builds_identity_graph() {
        let q = UserQuery::for_stream("weather");
        assert!(q.is_empty());
        assert!(q.to_graph().unwrap().is_empty());
    }

    #[test]
    fn bad_filter_is_reported() {
        let q = UserQuery::for_stream("weather").with_filter("rainrate >");
        assert!(matches!(q.to_graph(), Err(ExacmlError::InvalidUserQuery(_))));
    }

    #[test]
    fn xml_round_trip_matches_figure4a() {
        let q = figure4a_query();
        let xml = q.to_xml();
        assert!(xml.contains("<UserQuery>"));
        assert!(xml.contains("<Stream name=\"weather\"/>"));
        assert!(xml.contains("<FilterCondition>RainRate &gt; 50</FilterCondition>"));
        assert!(xml.contains("<WindowSize>10</WindowSize>"));
        assert!(xml.contains("avg(RainRate)"));
        let parsed = UserQuery::from_xml(&xml).unwrap();
        assert_eq!(parsed, q);
    }

    #[test]
    fn xml_round_trip_for_partial_queries() {
        for q in [
            UserQuery::for_stream("gps"),
            UserQuery::for_stream("gps").with_filter("speed > 80"),
            UserQuery::for_stream("gps").with_map(["latitude", "longitude"]),
            UserQuery::for_stream("gps").with_aggregation(
                WindowSpec::time(60_000, 60_000),
                vec![AggSpec::new("speed", AggFunc::Max)],
            ),
        ] {
            let parsed = UserQuery::from_xml(&q.to_xml()).unwrap();
            assert_eq!(parsed, q);
        }
    }

    #[test]
    fn from_xml_rejects_malformed_documents() {
        assert!(UserQuery::from_xml("<NotAQuery/>").is_err());
        assert!(UserQuery::from_xml("<UserQuery/>").is_err());
        assert!(
            UserQuery::from_xml("<UserQuery><Stream name=\"s\"/><Filter/></UserQuery>").is_err()
        );
        assert!(
            UserQuery::from_xml("<UserQuery><Stream name=\"s\"/><Map></Map></UserQuery>").is_err()
        );
        assert!(UserQuery::from_xml(
            "<UserQuery><Stream name=\"s\"/><Aggregation><WindowType>tuple</WindowType></Aggregation></UserQuery>"
        )
        .is_err());
        assert!(UserQuery::from_xml(
            "<UserQuery><Stream name=\"s\"/><Aggregation><WindowType>tuple</WindowType>\
             <WindowSize>5</WindowSize><WindowStep>2</WindowStep>\
             <Attribute>median(x)</Attribute></Aggregation></UserQuery>"
        )
        .is_err());
        assert!(UserQuery::from_xml("not xml").is_err());
    }

    #[test]
    fn fingerprint_is_insensitive_to_attribute_order_and_case() {
        let a = UserQuery::for_stream("Weather").with_map(["b", "a"]);
        let b = UserQuery::for_stream("weather").with_map(["A", "B"]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = UserQuery::for_stream("weather").with_map(["a"]);
        assert_ne!(a.fingerprint(), c.fingerprint());
        // Aggregations participate too.
        let d = figure4a_query();
        let e = figure4a_query().with_aggregation(
            WindowSpec::tuples(11, 2),
            vec![AggSpec::new("RainRate", AggFunc::Avg)],
        );
        assert_ne!(d.fingerprint(), e.fingerprint());
    }

    #[test]
    fn both_aggregation_spellings_parse() {
        let xml = "<UserQuery><Stream name=\"s\"/><Aggregation><WindowType>tuple</WindowType>\
                   <WindowSize>5</WindowSize><WindowStep>2</WindowStep>\
                   <Attribute>avg(a)</Attribute><Attribute>b:max</Attribute></Aggregation></UserQuery>";
        let q = UserQuery::from_xml(xml).unwrap();
        let agg = q.aggregation.unwrap();
        assert_eq!(agg.specs.len(), 2);
        assert_eq!(agg.specs[0], AggSpec::new("a", AggFunc::Avg));
        assert_eq!(agg.specs[1], AggSpec::new("b", AggFunc::Max));
    }
}
