//! Merging the policy-derived and user-supplied query graphs (Section 3.1).
//!
//! "One could simply concatenate the two graphs, but properly merging them
//! together gains advantages such as reducing the number of operators in the
//! query graph and therefore improving efficiency. It also allows for the
//! detection of empty/partial results."
//!
//! Merge rules, with the policy graph providing `F1`/`M1`/`A1` and the user
//! graph `F2`/`M2`/`A2`:
//!
//! * **filter** — `F3`'s condition is `(C1) AND (C2)`, simplified where
//!   possible (e.g. `x > v1 AND x > v2` → `x > max(v1, v2)`);
//! * **map** — the paper's text says `S3 = S1 ∪ S2`; taken literally that
//!   would expose attributes the policy hides, and the paper's own NR/PR
//!   rule for map is based on the intersection, so the default here is
//!   `S3 = S1 ∩ S2` and the literal union is available behind
//!   [`MergeOptions::map_union`] (see "Query merging & shared plans" in
//!   `docs/ARCHITECTURE.md`);
//! * **window aggregation** — only allowed when the window types match and
//!   the user's window is at least as coarse as the policy's (size and
//!   advance step no smaller); the merged operator takes the user's window
//!   and the intersection of the `attribute:function` pairs.
//!
//! The NR/PR warnings of Section 3.5 are produced as part of the same pass.

use crate::error::ExacmlError;
use crate::warnings::{check_aggregate_merge, check_map_merge, Warning, WarningSource};
use exacml_dsms::{AggregateOp, FilterOp, MapOp, Operator, QueryGraph};
use exacml_expr::{analyze_merge, simplify, ConflictReport, Expr, Origin};

/// Options controlling the merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeOptions {
    /// Use the paper's literal `S3 = S1 ∪ S2` rule for map operators instead
    /// of the safe intersection (default `false`).
    pub map_union: bool,
    /// Simplify the merged filter condition (default `true`). Turning this
    /// off reproduces the "simply concatenate" baseline the paper compares
    /// against when motivating proper merging.
    pub simplify_filters: bool,
}

impl Default for MergeOptions {
    fn default() -> Self {
        MergeOptions { map_union: false, simplify_filters: true }
    }
}

/// The result of merging the two graphs.
#[derive(Debug, Clone)]
pub struct MergeOutcome {
    /// The merged query graph (filter → map → aggregation order).
    pub graph: QueryGraph,
    /// NR/PR warnings raised during the merge.
    pub warnings: Vec<Warning>,
    /// The detailed filter-condition conflict report, when both sides
    /// contributed a filter.
    pub filter_report: Option<ConflictReport>,
}

/// Merge the policy-derived graph with the user-query graph.
///
/// # Errors
/// Returns [`ExacmlError::StreamMismatch`] when the graphs target different
/// streams and [`ExacmlError::WindowTooFine`] when the user requests a finer
/// aggregation window than the policy permits (merge condition 2 of
/// Section 3.1 — this is an error rather than a warning because honouring
/// the request would leak finer-grained data than the owner allowed).
pub fn merge_graphs(
    policy: &QueryGraph,
    user: &QueryGraph,
    options: MergeOptions,
) -> Result<MergeOutcome, ExacmlError> {
    if !policy.stream.eq_ignore_ascii_case(&user.stream) {
        return Err(ExacmlError::StreamMismatch {
            requested: policy.stream.clone(),
            query: user.stream.clone(),
        });
    }

    let mut warnings = Vec::new();
    let mut operators = Vec::new();
    let mut filter_report = None;

    // --- Filter boxes -----------------------------------------------------
    let merged_filter = match (policy.filter(), user.filter()) {
        (Some(f1), Some(f2)) => {
            let report = analyze_merge(f1.condition(), f2.condition());
            if let Some(w) = Warning::from_filter_verdict(
                report.verdict,
                &format!(
                    "policy condition '{}' combined with query condition '{}'",
                    f1.source(),
                    f2.source()
                ),
            ) {
                warnings.push(w);
            }
            filter_report = Some(report);
            let combined: Expr = f1
                .condition()
                .clone()
                .with_origin(Origin::Policy)
                .and(f2.condition().clone().with_origin(Origin::User));
            let condition = if options.simplify_filters { simplify(&combined) } else { combined };
            Some(FilterOp::new(condition))
        }
        (Some(f1), None) => Some(f1.clone()),
        (None, Some(f2)) => Some(f2.clone()),
        (None, None) => None,
    };
    if let Some(f) = merged_filter {
        operators.push(Operator::Filter(f));
    }

    // --- Map boxes ---------------------------------------------------------
    let merged_map = match (policy.map(), user.map()) {
        (Some(m1), Some(m2)) => {
            if let Some(w) = check_map_merge(m1, m2) {
                warnings.push(w);
            }
            let attrs: Vec<String> = if options.map_union {
                // The paper's literal rule: S3 = S1 ∪ S2.
                let mut union: Vec<String> = m1.attributes().to_vec();
                for a in m2.attributes() {
                    if !union.iter().any(|x| x.eq_ignore_ascii_case(a)) {
                        union.push(a.clone());
                    }
                }
                union
            } else {
                // Safe reading: only attributes both sides expose.
                m1.attributes()
                    .iter()
                    .filter(|a| m2.attributes().iter().any(|b| b.eq_ignore_ascii_case(a)))
                    .cloned()
                    .collect()
            };
            if attrs.is_empty() {
                // Nothing remains visible; the NR warning is already recorded.
                None
            } else {
                Some(MapOp::new(attrs))
            }
        }
        // Single-sided merges are option-independent: `map_union` widens only
        // the two-sided union above. Reading an absent map as "all attributes
        // visible" and taking the literal union would be wrong on either
        // side — with no *user* map it would widen the projection past the
        // policy-visible schema, and with no *policy* map it would erase the
        // user's own projection. The surviving side's projection is the
        // merged projection, exactly.
        (Some(m), None) | (None, Some(m)) => Some(m.clone()),
        (None, None) => None,
    };
    if let Some(m) = merged_map {
        operators.push(Operator::Map(m));
    }

    // --- Aggregation boxes ---------------------------------------------------
    let merged_agg = match (policy.aggregate(), user.aggregate()) {
        (Some(a1), Some(a2)) => {
            // Merge condition 2: the user may not ask for a finer window.
            if !a2.window.is_coarsening_of(&a1.window) {
                return Err(ExacmlError::WindowTooFine {
                    detail: format!(
                        "policy window is {}, requested window is {}",
                        a1.window, a2.window
                    ),
                });
            }
            if let Some(w) = check_aggregate_merge(a1, a2) {
                warnings.push(w);
            }
            // Intersection of attribute:function pairs; the merged window is
            // the user's (coarser or equal) window.
            let specs: Vec<_> = a2
                .specs
                .iter()
                .filter(|s| {
                    a1.specs.iter().any(|p| {
                        p.function == s.function && p.attribute.eq_ignore_ascii_case(&s.attribute)
                    })
                })
                .cloned()
                .collect();
            if specs.is_empty() {
                if !warnings.iter().any(|w| w.source == WarningSource::Aggregate) {
                    warnings.push(Warning::empty(
                        WarningSource::Aggregate,
                        "no aggregation requested by the query is offered by the policy",
                    ));
                }
                // Fall back to the policy's aggregation so the owner's
                // coarsening is still enforced if the graph is deployed.
                Some(AggregateOp::new(a2.window, a1.specs.clone()))
            } else {
                Some(AggregateOp::new(a2.window, specs))
            }
        }
        (Some(a1), None) => Some(a1.clone()),
        (None, Some(a2)) => Some(a2.clone()),
        (None, None) => None,
    };
    if let Some(a) = merged_agg {
        operators.push(Operator::Aggregate(a));
    }

    Ok(MergeOutcome {
        graph: QueryGraph::from_operators(&policy.stream, operators),
        warnings,
        filter_report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::warnings::WarningKind;
    use exacml_dsms::{AggFunc, AggSpec, QueryGraphBuilder, Schema, WindowSpec};

    fn policy_graph() -> QueryGraph {
        // The Example 1 policy graph (Figure 1).
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

    fn user_graph() -> QueryGraph {
        // The Section 3.1 user refinement (Figure 4a): rain above 50 mm/h,
        // only rain rate, windows of 10 advancing by 2.
        QueryGraphBuilder::on_stream("weather")
            .filter_str("rainrate > 50")
            .unwrap()
            .map(["samplingtime", "rainrate"])
            .aggregate(
                WindowSpec::tuples(10, 2),
                vec![
                    AggSpec::new("samplingtime", AggFunc::LastValue),
                    AggSpec::new("rainrate", AggFunc::Avg),
                ],
            )
            .build()
    }

    #[test]
    fn merges_the_paper_running_example() {
        let outcome =
            merge_graphs(&policy_graph(), &user_graph(), MergeOptions::default()).unwrap();
        let g = &outcome.graph;
        assert_eq!(g.composition(), "FB+MB+AB");
        // Filter simplifies to the stricter bound.
        assert_eq!(g.filter().unwrap().condition().to_string(), "rainrate > 50");
        // Map keeps the attributes both sides expose.
        assert_eq!(
            g.map().unwrap().attributes(),
            &["samplingtime".to_string(), "rainrate".to_string()]
        );
        // Window takes the user's coarser size, policy's functions survive the
        // intersection.
        let agg = g.aggregate().unwrap();
        assert_eq!(agg.window, WindowSpec::tuples(10, 2));
        assert_eq!(agg.specs.len(), 2);
        // The merged graph matches Figure 4(b) when rendered as StreamSQL.
        let sql = exacml_dsms::streamsql::generate(g, &Schema::weather_example());
        assert!(sql.contains("WHERE rainrate > 50"));
        assert!(sql.contains("SIZE 10 ADVANCE 2 TUPLES"));
        assert!(sql.contains("avg(rainrate) AS avgrainrate"));
        // A PR warning is raised: the user query's map asks only for a subset
        // (and the policy filter narrows nothing here, since 50 > 5).
        assert!(!outcome.warnings.is_empty());
        // The merged graph is still valid against the stream schema.
        g.validate(&Schema::weather_example()).unwrap();
    }

    #[test]
    fn filter_only_policy_passes_user_query_through() {
        let policy = QueryGraphBuilder::on_stream("s").filter_str("a > 1").unwrap().build();
        let user = QueryGraphBuilder::on_stream("s").map(["a", "b"]).build();
        let outcome = merge_graphs(&policy, &user, MergeOptions::default()).unwrap();
        assert_eq!(outcome.graph.composition(), "FB+MB");
        assert!(outcome.warnings.is_empty());
    }

    #[test]
    fn filter_conflict_produces_nr_warning() {
        let policy = QueryGraphBuilder::on_stream("s").filter_str("a < 4").unwrap().build();
        let user = QueryGraphBuilder::on_stream("s").filter_str("a > 5").unwrap().build();
        let outcome = merge_graphs(&policy, &user, MergeOptions::default()).unwrap();
        assert_eq!(outcome.warnings.len(), 1);
        assert_eq!(outcome.warnings[0].kind, WarningKind::EmptyResult);
        assert_eq!(outcome.warnings[0].source, WarningSource::Filter);
        // The simplified merged condition is the constant FALSE.
        assert_eq!(outcome.graph.filter().unwrap().condition(), &Expr::False);
        assert!(outcome.filter_report.is_some());
    }

    #[test]
    fn filter_narrowing_produces_pr_warning() {
        let policy = QueryGraphBuilder::on_stream("s").filter_str("a > 8").unwrap().build();
        let user = QueryGraphBuilder::on_stream("s").filter_str("a > 5").unwrap().build();
        let outcome = merge_graphs(&policy, &user, MergeOptions::default()).unwrap();
        assert_eq!(outcome.warnings[0].kind, WarningKind::PartialResult);
        assert_eq!(outcome.graph.filter().unwrap().condition().to_string(), "a > 8");
    }

    #[test]
    fn simplification_can_be_disabled() {
        let policy = QueryGraphBuilder::on_stream("s").filter_str("a > 5").unwrap().build();
        let user = QueryGraphBuilder::on_stream("s").filter_str("a > 50").unwrap().build();
        let options = MergeOptions { simplify_filters: false, ..MergeOptions::default() };
        let outcome = merge_graphs(&policy, &user, options).unwrap();
        // Without simplification both leaves survive.
        assert_eq!(outcome.graph.filter().unwrap().condition().leaf_count(), 2);
        let outcome = merge_graphs(&policy, &user, MergeOptions::default()).unwrap();
        assert_eq!(outcome.graph.filter().unwrap().condition().leaf_count(), 1);
    }

    #[test]
    fn map_union_option_follows_the_paper_text() {
        let policy = QueryGraphBuilder::on_stream("s").map(["a", "b"]).build();
        let user = QueryGraphBuilder::on_stream("s").map(["b", "c"]).build();
        let safe = merge_graphs(&policy, &user, MergeOptions::default()).unwrap();
        assert_eq!(safe.graph.map().unwrap().attributes(), &["b".to_string()]);
        let union = merge_graphs(
            &policy,
            &user,
            MergeOptions { map_union: true, ..MergeOptions::default() },
        )
        .unwrap();
        assert_eq!(
            union.graph.map().unwrap().attributes(),
            &["a".to_string(), "b".to_string(), "c".to_string()]
        );
        // Both produce the same PR warning (sets differ but intersect).
        assert_eq!(safe.warnings[0].kind, WarningKind::PartialResult);
        assert_eq!(union.warnings[0].kind, WarningKind::PartialResult);
    }

    #[test]
    fn map_union_never_widens_single_sided_merges() {
        // Regression pin: with `map_union` on, a merge where only ONE side
        // carries a map must keep exactly that side's projection. A literal
        // `S1 ∪ S2` reading with the absent side as "everything visible"
        // would expose attributes the policy hides (policy-map side) or
        // un-project the user's query (user-map side).
        let options = MergeOptions { map_union: true, ..MergeOptions::default() };
        let policy_mapped = QueryGraphBuilder::on_stream("s").map(["a", "b"]).build();
        let user_plain = QueryGraphBuilder::on_stream("s").filter_str("a > 1").unwrap().build();
        let outcome = merge_graphs(&policy_mapped, &user_plain, options).unwrap();
        assert_eq!(
            outcome.graph.map().unwrap().attributes(),
            &["a".to_string(), "b".to_string()],
            "user side without a map must not widen past the policy projection"
        );
        let policy_plain = QueryGraphBuilder::on_stream("s").filter_str("b > 2").unwrap().build();
        let user_mapped = QueryGraphBuilder::on_stream("s").map(["b"]).build();
        let outcome = merge_graphs(&policy_plain, &user_mapped, options).unwrap();
        assert_eq!(
            outcome.graph.map().unwrap().attributes(),
            &["b".to_string()],
            "policy side without a map must not erase the user projection"
        );
    }

    #[test]
    fn disjoint_maps_drop_the_operator_and_warn_nr() {
        let policy = QueryGraphBuilder::on_stream("s").map(["a"]).build();
        let user = QueryGraphBuilder::on_stream("s").map(["b"]).build();
        let outcome = merge_graphs(&policy, &user, MergeOptions::default()).unwrap();
        assert_eq!(outcome.warnings[0].kind, WarningKind::EmptyResult);
        assert!(outcome.graph.map().is_none());
    }

    #[test]
    fn finer_user_window_is_rejected() {
        let policy = QueryGraphBuilder::on_stream("s")
            .aggregate(WindowSpec::tuples(5, 2), vec![AggSpec::new("a", AggFunc::Sum)])
            .build();
        for user_window in
            [WindowSpec::tuples(3, 2), WindowSpec::tuples(5, 1), WindowSpec::time(10, 2)]
        {
            let user = QueryGraphBuilder::on_stream("s")
                .aggregate(user_window, vec![AggSpec::new("a", AggFunc::Sum)])
                .build();
            assert!(matches!(
                merge_graphs(&policy, &user, MergeOptions::default()),
                Err(ExacmlError::WindowTooFine { .. })
            ));
        }
    }

    #[test]
    fn aggregation_function_mismatch_warns_and_keeps_policy_specs() {
        let policy = QueryGraphBuilder::on_stream("s")
            .aggregate(WindowSpec::tuples(5, 2), vec![AggSpec::new("a", AggFunc::Sum)])
            .build();
        let user = QueryGraphBuilder::on_stream("s")
            .aggregate(WindowSpec::tuples(10, 4), vec![AggSpec::new("a", AggFunc::Avg)])
            .build();
        let outcome = merge_graphs(&policy, &user, MergeOptions::default()).unwrap();
        assert_eq!(outcome.warnings[0].kind, WarningKind::EmptyResult);
        let agg = outcome.graph.aggregate().unwrap();
        assert_eq!(agg.specs, vec![AggSpec::new("a", AggFunc::Sum)]);
        assert_eq!(agg.window, WindowSpec::tuples(10, 4));
    }

    #[test]
    fn policy_only_aggregation_is_kept() {
        let policy = QueryGraphBuilder::on_stream("s")
            .aggregate(WindowSpec::tuples(5, 2), vec![AggSpec::new("a", AggFunc::Sum)])
            .build();
        let user = QueryGraphBuilder::on_stream("s").filter_str("a > 0").unwrap().build();
        let outcome = merge_graphs(&policy, &user, MergeOptions::default()).unwrap();
        assert_eq!(outcome.graph.composition(), "FB+AB");
        assert_eq!(outcome.graph.aggregate().unwrap().window, WindowSpec::tuples(5, 2));
        assert!(outcome.warnings.is_empty());
    }

    #[test]
    fn stream_mismatch_is_rejected() {
        let policy = QueryGraphBuilder::on_stream("weather").build();
        let user = QueryGraphBuilder::on_stream("gps").build();
        assert!(matches!(
            merge_graphs(&policy, &user, MergeOptions::default()),
            Err(ExacmlError::StreamMismatch { .. })
        ));
    }

    #[test]
    fn identity_user_query_reproduces_policy_graph() {
        let policy = policy_graph();
        let user = QueryGraph::identity("weather");
        let outcome = merge_graphs(&policy, &user, MergeOptions::default()).unwrap();
        assert_eq!(outcome.graph, policy);
        assert!(outcome.warnings.is_empty());
    }
}
