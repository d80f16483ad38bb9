//! Empty-result (NR) and partial-result (PR) warnings.
//!
//! Section 3.5 of the paper: when the PEP merges the query graph derived from
//! the policy obligations with the graph derived from the user's customised
//! query, the combination may yield no tuples at all (**NR**) or silently
//! withhold tuples the user asked for (**PR**). Detecting this at request
//! time and telling the user "improves system efficiency by informing users
//! of empty/partial results due to policy and query mismatches".
//!
//! The filter-operator analysis lives in the predicate engine
//! ([`exacml_expr::check`]); this module adds the map and aggregation rules
//! and the warning data type shared by the whole framework.

use exacml_dsms::{AggregateOp, MapOp};
use exacml_expr::Verdict;
use std::fmt;

/// Which operator pair produced the warning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WarningSource {
    /// Filter vs filter condition conflict.
    Filter,
    /// Map vs map attribute-set conflict.
    Map,
    /// Aggregation window / function conflict.
    Aggregate,
}

impl fmt::Display for WarningSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WarningSource::Filter => f.write_str("filter"),
            WarningSource::Map => f.write_str("map"),
            WarningSource::Aggregate => f.write_str("aggregation"),
        }
    }
}

/// The severity of a warning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum WarningKind {
    /// Partial result: some tuples matching the user query are withheld.
    PartialResult,
    /// Empty result: no tuple will ever be returned.
    EmptyResult,
}

impl fmt::Display for WarningKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WarningKind::PartialResult => f.write_str("PR"),
            WarningKind::EmptyResult => f.write_str("NR"),
        }
    }
}

/// A warning raised while merging the policy and user query graphs.
#[derive(Debug, Clone, PartialEq)]
pub struct Warning {
    /// PR or NR.
    pub kind: WarningKind,
    /// The operator pair that produced it.
    pub source: WarningSource,
    /// Human-readable explanation, suitable for returning to the user.
    pub detail: String,
}

impl Warning {
    /// A partial-result warning.
    pub fn partial(source: WarningSource, detail: impl Into<String>) -> Self {
        Warning { kind: WarningKind::PartialResult, source, detail: detail.into() }
    }

    /// An empty-result warning.
    pub fn empty(source: WarningSource, detail: impl Into<String>) -> Self {
        Warning { kind: WarningKind::EmptyResult, source, detail: detail.into() }
    }

    /// Convert a filter-analysis verdict into a warning (if any).
    #[must_use]
    pub fn from_filter_verdict(verdict: Verdict, detail: &str) -> Option<Warning> {
        match verdict {
            Verdict::Compatible => None,
            Verdict::Pr => Some(Warning::partial(WarningSource::Filter, detail)),
            Verdict::Nr => Some(Warning::empty(WarningSource::Filter, detail)),
        }
    }
}

impl fmt::Display for Warning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {} operator: {}", self.kind, self.source, self.detail)
    }
}

/// Whether a set of warnings contains an empty-result warning.
#[must_use]
pub fn has_empty_result(warnings: &[Warning]) -> bool {
    warnings.iter().any(|w| w.kind == WarningKind::EmptyResult)
}

/// Whether a set of warnings contains a partial-result warning.
#[must_use]
pub fn has_partial_result(warnings: &[Warning]) -> bool {
    warnings.iter().any(|w| w.kind == WarningKind::PartialResult)
}

/// The map-operator NR/PR rule (Section 3.5):
/// with `S1` the policy's visible attributes and `S2` the user's requested
/// attributes — if `S1 ∩ S2 = ∅` alert NR, otherwise alert PR when
/// `S1 ≠ S2`.
#[must_use]
pub fn check_map_merge(policy: &MapOp, user: &MapOp) -> Option<Warning> {
    let policy_set: Vec<&str> = policy.attributes().iter().map(String::as_str).collect();
    let user_set: Vec<&str> = user.attributes().iter().map(String::as_str).collect();
    let intersection: Vec<&str> = user_set
        .iter()
        .copied()
        .filter(|a| policy_set.iter().any(|p| p.eq_ignore_ascii_case(a)))
        .collect();
    if intersection.is_empty() {
        return Some(Warning::empty(
            WarningSource::Map,
            format!(
                "none of the requested attributes [{}] is visible under the policy [{}]",
                user_set.join(", "),
                policy_set.join(", ")
            ),
        ));
    }
    let same_sets = policy_set.len() == user_set.len()
        && user_set.iter().all(|a| policy_set.iter().any(|p| p.eq_ignore_ascii_case(a)));
    if !same_sets {
        let hidden: Vec<&str> = user_set
            .iter()
            .copied()
            .filter(|a| !policy_set.iter().any(|p| p.eq_ignore_ascii_case(a)))
            .collect();
        return Some(Warning::partial(
            WarningSource::Map,
            if hidden.is_empty() {
                "the policy exposes attributes the query does not request".to_string()
            } else {
                format!("requested attributes [{}] are hidden by the policy", hidden.join(", "))
            },
        ));
    }
    None
}

/// The aggregation-operator NR/PR rules (Section 3.5), with `A1` from the
/// policy and `A2` from the user query:
///
/// 1. `A1.size > A2.size` → NR
/// 2. `A1.advancestep > A2.advancestep` → NR
/// 3. `A1.type ≠ A2.type` → NR
/// 4. different functions applied to the same attribute → NR
/// 5. attribute present in both with the same function → no alert
/// 6. all other cases (attribute requested but absent from the policy) → PR
#[must_use]
pub fn check_aggregate_merge(policy: &AggregateOp, user: &AggregateOp) -> Option<Warning> {
    if policy.window.kind != user.window.kind {
        return Some(Warning::empty(
            WarningSource::Aggregate,
            format!(
                "window types differ: policy uses {}, query asks for {}",
                policy.window.kind, user.window.kind
            ),
        ));
    }
    if policy.window.size > user.window.size {
        return Some(Warning::empty(
            WarningSource::Aggregate,
            format!(
                "policy window size {} exceeds requested size {}",
                policy.window.size, user.window.size
            ),
        ));
    }
    if policy.window.advance > user.window.advance {
        return Some(Warning::empty(
            WarningSource::Aggregate,
            format!(
                "policy advance step {} exceeds requested step {}",
                policy.window.advance, user.window.advance
            ),
        ));
    }

    let mut partial: Option<Warning> = None;
    for spec in &user.specs {
        match policy.specs.iter().find(|p| p.attribute.eq_ignore_ascii_case(&spec.attribute)) {
            Some(p) if p.function == spec.function => {}
            Some(p) => {
                return Some(Warning::empty(
                    WarningSource::Aggregate,
                    format!(
                        "attribute '{}' is aggregated with {} by the policy but {} was requested",
                        spec.attribute,
                        p.function.keyword(),
                        spec.function.keyword()
                    ),
                ));
            }
            None => {
                partial.get_or_insert_with(|| {
                    Warning::partial(
                        WarningSource::Aggregate,
                        format!(
                            "requested aggregation {}({}) is not offered by the policy",
                            spec.function.keyword(),
                            spec.attribute
                        ),
                    )
                });
            }
        }
    }
    partial
}

#[cfg(test)]
mod tests {
    use super::*;
    use exacml_dsms::{AggFunc, AggSpec, WindowSpec};

    #[test]
    fn map_rules_from_paper() {
        let policy = MapOp::new(["samplingtime", "rainrate", "windspeed"]);
        // Identical sets → no warning.
        assert!(check_map_merge(&policy, &MapOp::new(["samplingtime", "rainrate", "windspeed"]))
            .is_none());
        // Disjoint sets → NR.
        let w = check_map_merge(&policy, &MapOp::new(["temperature"])).unwrap();
        assert_eq!(w.kind, WarningKind::EmptyResult);
        assert_eq!(w.source, WarningSource::Map);
        // Overlapping but different → PR.
        let w = check_map_merge(&policy, &MapOp::new(["rainrate", "temperature"])).unwrap();
        assert_eq!(w.kind, WarningKind::PartialResult);
        assert!(w.detail.contains("temperature"));
        // Subset requested (user asks for less) → still PR per the paper's
        // "alert PR if S1 != S2" rule.
        let w = check_map_merge(&policy, &MapOp::new(["rainrate"])).unwrap();
        assert_eq!(w.kind, WarningKind::PartialResult);
    }

    #[test]
    fn aggregate_rules_from_paper() {
        let policy = AggregateOp::new(
            WindowSpec::tuples(5, 2),
            vec![AggSpec::new("rainrate", AggFunc::Avg), AggSpec::new("windspeed", AggFunc::Max)],
        );
        // Coarser user window with a matching function → no warning.
        let user = AggregateOp::new(
            WindowSpec::tuples(10, 2),
            vec![AggSpec::new("rainrate", AggFunc::Avg)],
        );
        assert!(check_aggregate_merge(&policy, &user).is_none());
        // Rule 1: finer user window size → NR.
        let user = AggregateOp::new(
            WindowSpec::tuples(4, 2),
            vec![AggSpec::new("rainrate", AggFunc::Avg)],
        );
        assert_eq!(check_aggregate_merge(&policy, &user).unwrap().kind, WarningKind::EmptyResult);
        // Rule 2: finer advance step → NR.
        let user = AggregateOp::new(
            WindowSpec::tuples(5, 1),
            vec![AggSpec::new("rainrate", AggFunc::Avg)],
        );
        assert_eq!(check_aggregate_merge(&policy, &user).unwrap().kind, WarningKind::EmptyResult);
        // Rule 3: different window type → NR.
        let user =
            AggregateOp::new(WindowSpec::time(5, 2), vec![AggSpec::new("rainrate", AggFunc::Avg)]);
        assert_eq!(check_aggregate_merge(&policy, &user).unwrap().kind, WarningKind::EmptyResult);
        // Rule 4: different function on the same attribute → NR.
        let user = AggregateOp::new(
            WindowSpec::tuples(5, 2),
            vec![AggSpec::new("rainrate", AggFunc::Max)],
        );
        assert_eq!(check_aggregate_merge(&policy, &user).unwrap().kind, WarningKind::EmptyResult);
        // Rule 6: attribute not offered by the policy → PR.
        let user = AggregateOp::new(
            WindowSpec::tuples(5, 2),
            vec![AggSpec::new("rainrate", AggFunc::Avg), AggSpec::new("humidity", AggFunc::Avg)],
        );
        assert_eq!(check_aggregate_merge(&policy, &user).unwrap().kind, WarningKind::PartialResult);
    }

    #[test]
    fn warning_helpers() {
        let warnings = vec![
            Warning::partial(WarningSource::Map, "x"),
            Warning::empty(WarningSource::Filter, "y"),
        ];
        assert!(has_empty_result(&warnings));
        assert!(has_partial_result(&warnings));
        assert!(!has_empty_result(&warnings[..1]));
        assert!(warnings[0].to_string().contains("PR"));
        assert!(warnings[1].to_string().contains("NR"));
    }

    #[test]
    fn filter_verdict_conversion() {
        assert!(Warning::from_filter_verdict(Verdict::Compatible, "d").is_none());
        assert_eq!(
            Warning::from_filter_verdict(Verdict::Pr, "d").unwrap().kind,
            WarningKind::PartialResult
        );
        assert_eq!(
            Warning::from_filter_verdict(Verdict::Nr, "d").unwrap().kind,
            WarningKind::EmptyResult
        );
    }
}
