//! Access requests.
//!
//! A request carries the requester's credentials (subject attributes), the
//! resource being asked for (for eXACML+, the name/URI of a data stream),
//! the action (e.g. `subscribe`) and optional environment attributes. The
//! paper's workload generator produces one request file per policy so that
//! the PDP always permits it (Section 4.2).

use crate::attribute::{AttributeCategory, AttributeValue};
use std::fmt;

/// One attribute of a request.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestAttribute {
    /// The category (subject / resource / action / environment).
    pub category: AttributeCategory,
    /// The attribute identifier (a URI in full XACML; free-form here).
    pub attribute_id: String,
    /// The attribute value.
    pub value: AttributeValue,
}

/// An access request evaluated by the PDP.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Request {
    /// All attributes of the request.
    pub attributes: Vec<RequestAttribute>,
}

/// Standard attribute identifiers used throughout the framework.
pub mod ids {
    /// The subject identifier (who is asking).
    pub const SUBJECT_ID: &str = "urn:oasis:names:tc:xacml:1.0:subject:subject-id";
    /// The subject's role.
    pub const SUBJECT_ROLE: &str = "urn:oasis:names:tc:xacml:2.0:subject:role";
    /// The resource identifier (which stream).
    pub const RESOURCE_ID: &str = "urn:oasis:names:tc:xacml:1.0:resource:resource-id";
    /// The action identifier (what is being done).
    pub const ACTION_ID: &str = "urn:oasis:names:tc:xacml:1.0:action:action-id";
}

impl Request {
    /// Empty request (matched only by empty targets).
    #[must_use]
    pub fn new() -> Self {
        Request::default()
    }

    /// Convenience constructor for the common subject / resource / action
    /// triple used throughout the framework and the evaluation workload.
    #[must_use]
    pub fn subscribe(subject: &str, stream: &str) -> Self {
        Request::new()
            .with_subject(ids::SUBJECT_ID, AttributeValue::string(subject))
            .with_resource(ids::RESOURCE_ID, AttributeValue::string(stream))
            .with_action(ids::ACTION_ID, AttributeValue::string("subscribe"))
    }

    /// Add an attribute (builder style).
    #[must_use]
    pub fn with_attribute(
        mut self,
        category: AttributeCategory,
        attribute_id: impl Into<String>,
        value: AttributeValue,
    ) -> Self {
        self.attributes.push(RequestAttribute {
            category,
            attribute_id: attribute_id.into(),
            value,
        });
        self
    }

    /// Add a subject attribute.
    #[must_use]
    pub fn with_subject(self, attribute_id: impl Into<String>, value: AttributeValue) -> Self {
        self.with_attribute(AttributeCategory::Subject, attribute_id, value)
    }

    /// Add a resource attribute.
    #[must_use]
    pub fn with_resource(self, attribute_id: impl Into<String>, value: AttributeValue) -> Self {
        self.with_attribute(AttributeCategory::Resource, attribute_id, value)
    }

    /// Add an action attribute.
    #[must_use]
    pub fn with_action(self, attribute_id: impl Into<String>, value: AttributeValue) -> Self {
        self.with_attribute(AttributeCategory::Action, attribute_id, value)
    }

    /// Add an environment attribute.
    #[must_use]
    pub fn with_environment(self, attribute_id: impl Into<String>, value: AttributeValue) -> Self {
        self.with_attribute(AttributeCategory::Environment, attribute_id, value)
    }

    /// All values of an attribute in a category.
    #[must_use]
    pub fn values_of(
        &self,
        category: AttributeCategory,
        attribute_id: &str,
    ) -> Vec<&AttributeValue> {
        self.attributes
            .iter()
            .filter(|a| a.category == category && a.attribute_id == attribute_id)
            .map(|a| &a.value)
            .collect()
    }

    /// First value of an attribute in a category, as text.
    #[must_use]
    pub fn first_value(&self, category: AttributeCategory, attribute_id: &str) -> Option<&str> {
        self.values_of(category, attribute_id).first().map(|v| v.text.as_str())
    }

    /// The subject identifier, if present.
    #[must_use]
    pub fn subject_id(&self) -> Option<&str> {
        self.first_value(AttributeCategory::Subject, ids::SUBJECT_ID)
    }

    /// The resource identifier (stream name), if present.
    #[must_use]
    pub fn resource_id(&self) -> Option<&str> {
        self.first_value(AttributeCategory::Resource, ids::RESOURCE_ID)
    }

    /// The action identifier, if present.
    #[must_use]
    pub fn action_id(&self) -> Option<&str> {
        self.first_value(AttributeCategory::Action, ids::ACTION_ID)
    }

    /// Canonical text form of the **whole** request: every attribute of every
    /// category as a category/id/value triple, sorted, so two documents that
    /// list the same attributes in a different order share a key and two
    /// requests the PDP could tell apart never do. This is what anything
    /// that answers a request without asking the PDP must key on.
    #[must_use]
    pub fn canonical_key(&self) -> String {
        let mut parts: Vec<String> = self
            .attributes
            .iter()
            .map(|a| format!("{:?}\x1f{}\x1f{}", a.category, a.attribute_id, a.value.text))
            .collect();
        parts.sort_unstable();
        parts.join("\x1e")
    }

    /// Basic structural validation: every attribute id non-empty.
    ///
    /// # Errors
    /// Returns a description of the first problem.
    pub fn validate(&self) -> Result<(), String> {
        for attr in &self.attributes {
            if attr.attribute_id.trim().is_empty() {
                return Err("request contains an attribute with an empty id".into());
            }
        }
        Ok(())
    }
}

impl fmt::Display for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Request[subject={:?}, resource={:?}, action={:?}]",
            self.subject_id(),
            self.resource_id(),
            self.action_id()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subscribe_constructor_sets_triple() {
        let r = Request::subscribe("LTA", "weather");
        assert_eq!(r.subject_id(), Some("LTA"));
        assert_eq!(r.resource_id(), Some("weather"));
        assert_eq!(r.action_id(), Some("subscribe"));
        r.validate().unwrap();
    }

    #[test]
    fn values_of_filters_by_category_and_id() {
        let r = Request::new()
            .with_subject(ids::SUBJECT_ROLE, AttributeValue::string("analyst"))
            .with_subject(ids::SUBJECT_ROLE, AttributeValue::string("driver"))
            .with_resource(ids::RESOURCE_ID, AttributeValue::string("weather"));
        assert_eq!(r.values_of(AttributeCategory::Subject, ids::SUBJECT_ROLE).len(), 2);
        assert_eq!(r.values_of(AttributeCategory::Resource, ids::SUBJECT_ROLE).len(), 0);
        assert_eq!(r.first_value(AttributeCategory::Subject, ids::SUBJECT_ROLE), Some("analyst"));
    }

    #[test]
    fn validation_rejects_empty_ids() {
        let r = Request::new().with_subject("", AttributeValue::string("x"));
        assert!(r.validate().is_err());
    }

    #[test]
    fn canonical_key_ignores_order_and_separates_every_attribute() {
        let request = Request::subscribe("LTA", "weather");
        let reordered = Request::new()
            .with_action(ids::ACTION_ID, AttributeValue::string("subscribe"))
            .with_resource(ids::RESOURCE_ID, AttributeValue::string("weather"))
            .with_subject(ids::SUBJECT_ID, AttributeValue::string("LTA"));
        assert_eq!(request.canonical_key(), reordered.canonical_key());
        // An attribute outside the subject/resource/action triple is part of
        // the key, and so is its value.
        let on = request.clone().with_environment("duty", AttributeValue::string("on"));
        let off = request.clone().with_environment("duty", AttributeValue::string("off"));
        assert_ne!(on.canonical_key(), request.canonical_key());
        assert_ne!(on.canonical_key(), off.canonical_key());
    }

    #[test]
    fn display_mentions_the_triple() {
        let r = Request::subscribe("NEA", "gps");
        let s = r.to_string();
        assert!(s.contains("NEA"));
        assert!(s.contains("gps"));
    }
}
