//! Obligations.
//!
//! Obligations are the XACML escape hatch the eXACML/eXACML+ line of work
//! exploits: the PDP returns them alongside the Permit/Deny decision, and the
//! PEP must fulfil them. The paper embeds the fine-grained stream constraints
//! — filter condition, visible attributes, window specification — inside the
//! obligations block of the policy (Figure 2, Table 1).

use crate::attribute::AttributeValue;
use crate::policy::Effect;
use std::fmt;

/// One `<AttributeAssignment>` of an obligation.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributeAssignment {
    /// The assignment's attribute identifier
    /// (e.g. `pCloud:obligation:stream-filter-condition-id`).
    pub attribute_id: String,
    /// The assigned value.
    pub value: AttributeValue,
}

impl AttributeAssignment {
    /// Construct an assignment.
    pub fn new(attribute_id: impl Into<String>, value: AttributeValue) -> Self {
        AttributeAssignment { attribute_id: attribute_id.into(), value }
    }

    /// A string-typed assignment (the most common case in Figure 2).
    pub fn string(attribute_id: impl Into<String>, text: impl Into<String>) -> Self {
        AttributeAssignment::new(attribute_id, AttributeValue::string(text))
    }

    /// An integer-typed assignment (window size / advance step in Figure 2).
    pub fn integer(attribute_id: impl Into<String>, value: i64) -> Self {
        AttributeAssignment::new(attribute_id, AttributeValue::integer(value))
    }
}

/// An obligation returned by the PDP on a matching decision.
#[derive(Debug, Clone, PartialEq)]
pub struct Obligation {
    /// The obligation identifier (e.g. `exacml:obligation:stream-filter`).
    pub id: String,
    /// The decision the obligation applies to (`FulfillOn` in XACML).
    pub fulfill_on: Effect,
    /// The obligation's attribute assignments.
    pub assignments: Vec<AttributeAssignment>,
}

impl Obligation {
    /// A new obligation fulfilled on Permit (all of the paper's stream
    /// obligations are `FulfillOn="Permit"`).
    pub fn on_permit(id: impl Into<String>) -> Self {
        Obligation { id: id.into(), fulfill_on: Effect::Permit, assignments: Vec::new() }
    }

    /// A new obligation fulfilled on Deny.
    pub fn on_deny(id: impl Into<String>) -> Self {
        Obligation { id: id.into(), fulfill_on: Effect::Deny, assignments: Vec::new() }
    }

    /// Append an assignment (builder style).
    #[must_use]
    pub fn with_assignment(mut self, assignment: AttributeAssignment) -> Self {
        self.assignments.push(assignment);
        self
    }

    /// Append a string assignment (builder style).
    #[must_use]
    pub fn with_string(self, attribute_id: &str, text: impl Into<String>) -> Self {
        self.with_assignment(AttributeAssignment::string(attribute_id, text))
    }

    /// Append an integer assignment (builder style).
    #[must_use]
    pub fn with_integer(self, attribute_id: &str, value: i64) -> Self {
        self.with_assignment(AttributeAssignment::integer(attribute_id, value))
    }

    /// All values assigned to one attribute id, in document order (the map
    /// and window-attribute obligations repeat the same id, e.g. one
    /// `stream-map-attribute-id` per visible column).
    #[must_use]
    pub fn values_of(&self, attribute_id: &str) -> Vec<&AttributeValue> {
        self.assignments
            .iter()
            .filter(|a| a.attribute_id == attribute_id)
            .map(|a| &a.value)
            .collect()
    }

    /// The first value of an attribute id, as text.
    #[must_use]
    pub fn first_text(&self, attribute_id: &str) -> Option<&str> {
        self.values_of(attribute_id).first().map(|v| v.text.as_str())
    }

    /// The first value of an attribute id, as an integer.
    #[must_use]
    pub fn first_integer(&self, attribute_id: &str) -> Option<i64> {
        self.values_of(attribute_id).first().and_then(|v| v.as_integer())
    }
}

impl fmt::Display for Obligation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (FulfillOn={}, {} assignments)",
            self.id,
            self.fulfill_on,
            self.assignments.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_accessors() {
        let ob = Obligation::on_permit("exacml:obligation:stream-map")
            .with_string("pCloud:obligation:stream-map-attribute-id", "samplingtime")
            .with_string("pCloud:obligation:stream-map-attribute-id", "rainrate")
            .with_integer("pCloud:obligation:stream-window-size-id", 5);
        assert_eq!(ob.fulfill_on, Effect::Permit);
        assert_eq!(ob.values_of("pCloud:obligation:stream-map-attribute-id").len(), 2);
        assert_eq!(
            ob.first_text("pCloud:obligation:stream-map-attribute-id"),
            Some("samplingtime")
        );
        assert_eq!(ob.first_integer("pCloud:obligation:stream-window-size-id"), Some(5));
        assert_eq!(ob.first_text("nosuch"), None);
        assert!(ob.to_string().contains("stream-map"));
    }

    #[test]
    fn on_deny_sets_effect() {
        let ob = Obligation::on_deny("audit");
        assert_eq!(ob.fulfill_on, Effect::Deny);
    }
}
