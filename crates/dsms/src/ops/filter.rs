//! The filter (selection) box.

use crate::error::DsmsError;
use crate::schema::Schema;
use crate::tuple::Tuple;
use exacml_expr::{eval, parse_expr, Expr};

/// A filter operator: tuples pass through only when the condition holds.
///
/// The condition is a boolean expression over the stream's attributes
/// composed of the comparison operators `<, >, <=, >=, =, !=` and the
/// connectives `AND`, `OR`, `NOT` (Section 2.1 of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct FilterOp {
    condition: Expr,
    /// The original textual form, preserved for StreamSQL generation and
    /// policy round-tripping.
    source: String,
}

impl FilterOp {
    /// Build a filter from an already-parsed condition.
    #[must_use]
    pub fn new(condition: Expr) -> Self {
        let source = condition.to_string();
        FilterOp { condition, source }
    }

    /// Parse a filter from its textual condition.
    ///
    /// # Errors
    /// Returns [`DsmsError::BadCondition`] when the text does not parse.
    pub fn parse(condition: &str) -> Result<Self, DsmsError> {
        let expr = parse_expr(condition).map_err(|e| DsmsError::BadCondition(e.to_string()))?;
        Ok(FilterOp { condition: expr, source: condition.trim().to_string() })
    }

    /// The parsed condition.
    #[must_use]
    pub fn condition(&self) -> &Expr {
        &self.condition
    }

    /// The original condition text.
    #[must_use]
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Check that every attribute referenced by the condition exists in the
    /// input schema.
    ///
    /// # Errors
    /// Returns [`DsmsError::UnknownAttribute`] naming the missing attribute.
    pub fn validate(&self, input: &Schema) -> Result<(), DsmsError> {
        for attr in self.condition.attributes() {
            if !input.contains(&attr) {
                return Err(DsmsError::UnknownAttribute {
                    operator: "filter".into(),
                    attribute: attr,
                });
            }
        }
        Ok(())
    }

    /// Filters never change the schema.
    ///
    /// # Errors
    /// Fails when validation against the input schema fails.
    pub fn output_schema(&self, input: &Schema) -> Result<Schema, DsmsError> {
        self.validate(input)?;
        Ok(input.clone())
    }

    /// Apply the filter to one tuple, returning it when the condition holds.
    #[must_use]
    pub fn apply(&self, tuple: Tuple) -> Option<Tuple> {
        if eval(&self.condition, &tuple) {
            Some(tuple)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn weather(rain: f64) -> Tuple {
        let schema = Schema::weather_example();
        Tuple::builder(&schema)
            .set("rainrate", rain)
            .set("samplingtime", Value::Timestamp(0))
            .finish_with_defaults()
    }

    #[test]
    fn passes_matching_tuples_only() {
        let f = FilterOp::parse("rainrate > 5").unwrap();
        assert!(f.apply(weather(9.0)).is_some());
        assert!(f.apply(weather(2.0)).is_none());
        assert!(f.apply(weather(5.0)).is_none());
    }

    #[test]
    fn validates_attributes_against_schema() {
        let f = FilterOp::parse("rainrate > 5 AND bogus < 2").unwrap();
        let err = f.validate(&Schema::weather_example()).unwrap_err();
        assert!(
            matches!(err, DsmsError::UnknownAttribute { attribute, .. } if attribute == "bogus")
        );
        let f = FilterOp::parse("rainrate > 5 AND windspeed < 30").unwrap();
        f.validate(&Schema::weather_example()).unwrap();
    }

    #[test]
    fn output_schema_is_unchanged() {
        let f = FilterOp::parse("rainrate > 5").unwrap();
        let schema = Schema::weather_example();
        assert_eq!(f.output_schema(&schema).unwrap(), schema);
    }

    #[test]
    fn parse_error_is_reported() {
        assert!(matches!(FilterOp::parse("rainrate >"), Err(DsmsError::BadCondition(_))));
    }

    #[test]
    fn source_text_is_preserved() {
        let f = FilterOp::parse("  rainrate > 5 ").unwrap();
        assert_eq!(f.source(), "rainrate > 5");
    }
}
