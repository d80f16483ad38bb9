//! The map (projection) box.

use crate::error::DsmsError;
use crate::schema::Schema;
use crate::tuple::Tuple;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A map operator: projects each tuple onto a subset of attributes
/// (Section 2.1 — "a map operator contains a set of projected attributes").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MapOp {
    attributes: Vec<String>,
}

impl MapOp {
    /// Build a map operator from attribute names. Duplicates are removed
    /// while preserving first-seen order.
    pub fn new<I, S>(attributes: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut attrs: Vec<String> = Vec::new();
        for a in attributes {
            let a = a.into();
            if !attrs.iter().any(|x| x.eq_ignore_ascii_case(&a)) {
                attrs.push(a);
            }
        }
        MapOp { attributes: attrs }
    }

    /// The projected attribute names, in output order.
    #[must_use]
    pub fn attributes(&self) -> &[String] {
        &self.attributes
    }

    /// Whether the projection keeps the given attribute.
    #[must_use]
    pub fn keeps(&self, attr: &str) -> bool {
        self.attributes.iter().any(|a| a.eq_ignore_ascii_case(attr))
    }

    /// Check that the projection is non-empty and every attribute exists in
    /// the input schema.
    ///
    /// # Errors
    /// Returns [`DsmsError::InvalidGraph`] for an empty projection and
    /// [`DsmsError::UnknownAttribute`] for a missing attribute.
    pub fn validate(&self, input: &Schema) -> Result<(), DsmsError> {
        if self.attributes.is_empty() {
            return Err(DsmsError::InvalidGraph("map operator projects no attributes".into()));
        }
        for attr in &self.attributes {
            if !input.contains(attr) {
                return Err(DsmsError::UnknownAttribute {
                    operator: "map".into(),
                    attribute: attr.clone(),
                });
            }
        }
        Ok(())
    }

    /// The projected schema.
    ///
    /// # Errors
    /// Fails when validation against the input schema fails.
    pub fn output_schema(&self, input: &Schema) -> Result<Schema, DsmsError> {
        self.validate(input)?;
        Ok(input.project(&self.attributes))
    }

    /// Apply the projection to one tuple.
    #[must_use]
    pub fn apply(&self, tuple: &Tuple, output_schema: &Arc<Schema>) -> Tuple {
        tuple.project(Arc::clone(output_schema))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn projects_requested_attributes() {
        let schema = Schema::weather_example();
        let op = MapOp::new(["samplingtime", "rainrate", "windspeed"]);
        let out_schema = op.output_schema(&schema).unwrap().shared();
        assert_eq!(out_schema.field_names(), vec!["samplingtime", "rainrate", "windspeed"]);

        let t = Tuple::builder(&schema)
            .set("samplingtime", Value::Timestamp(1))
            .set("rainrate", 7.0)
            .set("windspeed", 3.0)
            .set("temperature", 33.0)
            .finish_with_defaults();
        let projected = op.apply(&t, &out_schema);
        assert_eq!(projected.schema().len(), 3);
        assert_eq!(projected.get_f64("rainrate"), Some(7.0));
        assert!(projected.get("temperature").is_none());
    }

    #[test]
    fn deduplicates_attributes() {
        let op = MapOp::new(["a", "A", "b", "a"]);
        assert_eq!(op.attributes(), &["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn keeps_is_case_insensitive() {
        let op = MapOp::new(["RainRate"]);
        assert!(op.keeps("rainrate"));
        assert!(!op.keeps("windspeed"));
    }

    #[test]
    fn rejects_empty_and_unknown() {
        let schema = Schema::weather_example();
        assert!(matches!(
            MapOp::new(Vec::<String>::new()).validate(&schema),
            Err(DsmsError::InvalidGraph(_))
        ));
        assert!(matches!(
            MapOp::new(["nosuch"]).validate(&schema),
            Err(DsmsError::UnknownAttribute { .. })
        ));
    }
}
