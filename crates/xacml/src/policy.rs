//! Policies, targets, rules and combining algorithms.

use crate::attribute::AttributeCategory;
use crate::obligation::Obligation;
use crate::request::Request;
use std::fmt;

/// The effect of a rule or decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Effect {
    /// Access granted.
    Permit,
    /// Access denied.
    Deny,
}

impl fmt::Display for Effect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

impl Effect {
    /// The XACML effect keyword (`Permit` or `Deny`).
    #[must_use]
    pub(crate) fn keyword(self) -> &'static str {
        match self {
            Effect::Permit => "Permit",
            Effect::Deny => "Deny",
        }
    }

    /// Parse the XACML effect keyword.
    #[must_use]
    pub fn from_str_opt(s: &str) -> Option<Effect> {
        match s.trim() {
            "Permit" | "permit" => Some(Effect::Permit),
            "Deny" | "deny" => Some(Effect::Deny),
            _ => None,
        }
    }
}

/// One attribute matcher of a target: the request must carry an attribute of
/// the given category and id whose textual value equals `value`
/// (`string-equal` semantics — the only match function the framework needs).
#[derive(Debug, Clone, PartialEq)]
pub struct AttributeMatch {
    /// The category the attribute must appear in.
    pub category: AttributeCategory,
    /// The attribute identifier.
    pub attribute_id: String,
    /// The value to compare against (string-equal).
    pub value: String,
}

impl AttributeMatch {
    /// Construct a matcher.
    pub fn new(
        category: AttributeCategory,
        attribute_id: impl Into<String>,
        value: impl Into<String>,
    ) -> Self {
        AttributeMatch { category, attribute_id: attribute_id.into(), value: value.into() }
    }

    /// Whether the request satisfies the matcher.
    #[must_use]
    pub fn matches(&self, request: &Request) -> bool {
        request.values_of(self.category, &self.attribute_id).iter().any(|v| v.text == self.value)
    }
}

/// A target: the conjunction of attribute matchers that decides whether a
/// policy or rule applies to a request. An empty target applies to every
/// request.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Target {
    /// All matchers; every one must be satisfied.
    pub matches: Vec<AttributeMatch>,
}

impl Target {
    /// A target that applies to every request.
    #[must_use]
    pub fn any() -> Self {
        Target { matches: Vec::new() }
    }

    /// Build a target from matchers.
    #[must_use]
    pub fn new(matches: Vec<AttributeMatch>) -> Self {
        Target { matches }
    }

    /// The common subject/resource/action target used by the framework: the
    /// named subject asking for the named stream with the named action.
    #[must_use]
    pub fn subject_resource_action(subject: &str, resource: &str, action: &str) -> Self {
        use crate::request::ids;
        Target::new(vec![
            AttributeMatch::new(AttributeCategory::Subject, ids::SUBJECT_ID, subject),
            AttributeMatch::new(AttributeCategory::Resource, ids::RESOURCE_ID, resource),
            AttributeMatch::new(AttributeCategory::Action, ids::ACTION_ID, action),
        ])
    }

    /// Whether the request satisfies every matcher.
    #[must_use]
    pub fn matches(&self, request: &Request) -> bool {
        self.matches.iter().all(|m| m.matches(request))
    }
}

/// A rule inside a policy.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Rule identifier.
    pub id: String,
    /// The effect the rule produces when it applies.
    pub effect: Effect,
    /// The rule's own target (evaluated after the policy target).
    pub target: Target,
}

impl Rule {
    /// A permit rule applying to every request that reached the policy.
    pub fn permit_all(id: impl Into<String>) -> Self {
        Rule { id: id.into(), effect: Effect::Permit, target: Target::any() }
    }

    /// A deny rule applying to every request that reached the policy.
    pub fn deny_all(id: impl Into<String>) -> Self {
        Rule { id: id.into(), effect: Effect::Deny, target: Target::any() }
    }
}

/// Rule combining algorithms (within one policy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RuleCombiningAlg {
    /// The first rule whose target matches decides.
    #[default]
    FirstApplicable,
    /// Any matching Permit rule wins over Deny rules.
    PermitOverrides,
    /// Any matching Deny rule wins over Permit rules.
    DenyOverrides,
}

impl RuleCombiningAlg {
    /// The URN used in XACML policy documents.
    #[must_use]
    pub fn urn(self) -> &'static str {
        match self {
            RuleCombiningAlg::FirstApplicable => {
                "urn:oasis:names:tc:xacml:1.0:rule-combining-algorithm:first-applicable"
            }
            RuleCombiningAlg::PermitOverrides => {
                "urn:oasis:names:tc:xacml:1.0:rule-combining-algorithm:permit-overrides"
            }
            RuleCombiningAlg::DenyOverrides => {
                "urn:oasis:names:tc:xacml:1.0:rule-combining-algorithm:deny-overrides"
            }
        }
    }

    /// Parse the URN (or a short alias).
    #[must_use]
    pub fn from_urn(urn: &str) -> Option<RuleCombiningAlg> {
        let tail = urn.rsplit(':').next().unwrap_or(urn);
        match tail {
            "first-applicable" => Some(RuleCombiningAlg::FirstApplicable),
            "permit-overrides" => Some(RuleCombiningAlg::PermitOverrides),
            "deny-overrides" => Some(RuleCombiningAlg::DenyOverrides),
            _ => None,
        }
    }
}

/// An access-control policy.
#[derive(Debug, Clone, PartialEq)]
pub struct Policy {
    /// Policy identifier (unique within the store).
    pub id: String,
    /// Free-form description.
    pub description: String,
    /// The policy's target.
    pub target: Target,
    /// The policy's rules.
    pub rules: Vec<Rule>,
    /// How the rules are combined.
    pub rule_combining: RuleCombiningAlg,
    /// The obligations returned alongside a matching decision.
    pub obligations: Vec<Obligation>,
}

impl Policy {
    /// A new policy with no rules and no obligations.
    pub fn new(id: impl Into<String>) -> Self {
        Policy {
            id: id.into(),
            description: String::new(),
            target: Target::any(),
            rules: Vec::new(),
            rule_combining: RuleCombiningAlg::FirstApplicable,
            obligations: Vec::new(),
        }
    }

    /// Set the description (builder style).
    #[must_use]
    pub fn with_description(mut self, description: impl Into<String>) -> Self {
        self.description = description.into();
        self
    }

    /// Set the target (builder style).
    #[must_use]
    pub fn with_target(mut self, target: Target) -> Self {
        self.target = target;
        self
    }

    /// Append a rule (builder style).
    #[must_use]
    pub fn with_rule(mut self, rule: Rule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Set the rule combining algorithm (builder style).
    #[must_use]
    pub fn with_rule_combining(mut self, alg: RuleCombiningAlg) -> Self {
        self.rule_combining = alg;
        self
    }

    /// Append an obligation (builder style).
    #[must_use]
    pub fn with_obligation(mut self, obligation: Obligation) -> Self {
        self.obligations.push(obligation);
        self
    }

    /// Structural validation: non-empty id, at least one rule, no duplicate
    /// rule ids.
    ///
    /// # Errors
    /// Returns a description of the first problem.
    pub fn validate(&self) -> Result<(), String> {
        if self.id.trim().is_empty() {
            return Err("policy id is empty".into());
        }
        if self.rules.is_empty() {
            return Err("policy has no rules".into());
        }
        for (i, rule) in self.rules.iter().enumerate() {
            if rule.id.trim().is_empty() {
                return Err(format!("rule #{i} has an empty id"));
            }
            if self.rules[..i].iter().any(|r| r.id == rule.id) {
                return Err(format!("duplicate rule id '{}'", rule.id));
            }
        }
        Ok(())
    }

    /// Evaluate the policy against a request: `None` when the policy's
    /// target does not match (Not Applicable), otherwise the combined effect
    /// of the matching rules.
    #[must_use]
    pub fn evaluate(&self, request: &Request) -> Option<Effect> {
        if !self.target.matches(request) {
            return None;
        }
        let applicable = self.rules.iter().filter(|r| r.target.matches(request)).map(|r| r.effect);
        match self.rule_combining {
            RuleCombiningAlg::FirstApplicable => applicable.clone().next(),
            RuleCombiningAlg::PermitOverrides => {
                let effects: Vec<Effect> = applicable.collect();
                if effects.contains(&Effect::Permit) {
                    Some(Effect::Permit)
                } else if effects.contains(&Effect::Deny) {
                    Some(Effect::Deny)
                } else {
                    None
                }
            }
            RuleCombiningAlg::DenyOverrides => {
                let effects: Vec<Effect> = applicable.collect();
                if effects.contains(&Effect::Deny) {
                    Some(Effect::Deny)
                } else if effects.contains(&Effect::Permit) {
                    Some(Effect::Permit)
                } else {
                    None
                }
            }
        }
    }

    /// The obligations that accompany a decision with the given effect.
    #[must_use]
    pub fn obligations_for(&self, effect: Effect) -> Vec<Obligation> {
        self.obligations.iter().filter(|o| o.fulfill_on == effect).cloned().collect()
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Policy[{}, {} rules, {} obligations]",
            self.id,
            self.rules.len(),
            self.obligations.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::AttributeValue;
    use crate::request::ids;

    fn lta_policy() -> Policy {
        Policy::new("nea-weather-for-lta")
            .with_description("NEA weather data for the LTA warning system")
            .with_target(Target::subject_resource_action("LTA", "weather", "subscribe"))
            .with_rule(Rule::permit_all("permit"))
    }

    #[test]
    fn target_matching() {
        let policy = lta_policy();
        assert_eq!(policy.evaluate(&Request::subscribe("LTA", "weather")), Some(Effect::Permit));
        assert_eq!(policy.evaluate(&Request::subscribe("LTA", "gps")), None);
        assert_eq!(policy.evaluate(&Request::subscribe("NEA", "weather")), None);
        // Extra attributes do not disturb matching.
        let req = Request::subscribe("LTA", "weather")
            .with_subject(ids::SUBJECT_ROLE, AttributeValue::string("agency"));
        assert_eq!(policy.evaluate(&req), Some(Effect::Permit));
    }

    #[test]
    fn empty_target_matches_everything() {
        let policy = Policy::new("open").with_rule(Rule::permit_all("p"));
        assert_eq!(policy.evaluate(&Request::new()), Some(Effect::Permit));
        assert_eq!(
            policy.evaluate(&Request::subscribe("anyone", "anything")),
            Some(Effect::Permit)
        );
    }

    #[test]
    fn rule_combining_algorithms() {
        let base = Policy::new("p")
            .with_rule(Rule::deny_all("deny"))
            .with_rule(Rule::permit_all("permit"));
        let req = Request::new();

        let first = base.clone().with_rule_combining(RuleCombiningAlg::FirstApplicable);
        assert_eq!(first.evaluate(&req), Some(Effect::Deny));

        let permit_overrides = base.clone().with_rule_combining(RuleCombiningAlg::PermitOverrides);
        assert_eq!(permit_overrides.evaluate(&req), Some(Effect::Permit));

        let deny_overrides = base.with_rule_combining(RuleCombiningAlg::DenyOverrides);
        assert_eq!(deny_overrides.evaluate(&req), Some(Effect::Deny));
    }

    #[test]
    fn rules_with_non_matching_targets_are_skipped() {
        let policy = Policy::new("p")
            .with_rule(Rule {
                id: "only-lta".into(),
                effect: Effect::Permit,
                target: Target::new(vec![AttributeMatch::new(
                    AttributeCategory::Subject,
                    ids::SUBJECT_ID,
                    "LTA",
                )]),
            })
            .with_rule(Rule::deny_all("fallback"));
        assert_eq!(policy.evaluate(&Request::subscribe("LTA", "x")), Some(Effect::Permit));
        assert_eq!(policy.evaluate(&Request::subscribe("EMA", "x")), Some(Effect::Deny));
    }

    #[test]
    fn obligations_filtered_by_effect() {
        let policy = lta_policy()
            .with_obligation(Obligation::on_permit("exacml:obligation:stream-filter"))
            .with_obligation(Obligation::on_deny("audit-denied"));
        assert_eq!(policy.obligations_for(Effect::Permit).len(), 1);
        assert_eq!(policy.obligations_for(Effect::Deny).len(), 1);
        assert_eq!(policy.obligations_for(Effect::Permit)[0].id, "exacml:obligation:stream-filter");
    }

    #[test]
    fn validation() {
        assert!(lta_policy().validate().is_ok());
        assert!(Policy::new("").with_rule(Rule::permit_all("r")).validate().is_err());
        assert!(Policy::new("p").validate().is_err());
        let dup = Policy::new("p").with_rule(Rule::permit_all("r")).with_rule(Rule::deny_all("r"));
        assert!(dup.validate().unwrap_err().contains("duplicate"));
    }

    #[test]
    fn combining_urns_round_trip() {
        for alg in [
            RuleCombiningAlg::FirstApplicable,
            RuleCombiningAlg::PermitOverrides,
            RuleCombiningAlg::DenyOverrides,
        ] {
            assert_eq!(RuleCombiningAlg::from_urn(alg.urn()), Some(alg));
        }
        assert_eq!(RuleCombiningAlg::from_urn("bogus"), None);
    }

    #[test]
    fn effect_parsing() {
        assert_eq!(Effect::from_str_opt("Permit"), Some(Effect::Permit));
        assert_eq!(Effect::from_str_opt("deny"), Some(Effect::Deny));
        assert_eq!(Effect::from_str_opt("maybe"), None);
    }
}
