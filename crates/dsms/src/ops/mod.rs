//! Aurora operator boxes.
//!
//! The paper restricts itself to the three most common Aurora boxes
//! (Section 2.1): **filter** (selection), **map** (projection) and
//! **window-based aggregation**. A query graph is a DAG of these boxes; in
//! practice every graph the framework generates is a chain
//! `filter? → map? → aggregate?` (Figure 1).

pub mod aggregate;
pub mod filter;
pub mod map;

use crate::error::DsmsError;
use crate::schema::Schema;
use aggregate::AggregateOp;
use filter::FilterOp;
use map::MapOp;
use std::fmt;

/// One operator box of a query graph.
#[derive(Debug, Clone, PartialEq)]
pub enum Operator {
    /// Selection on a boolean condition.
    Filter(FilterOp),
    /// Projection onto a set of attributes.
    Map(MapOp),
    /// Aggregate functions over a sliding window.
    Aggregate(AggregateOp),
}

impl Operator {
    /// Short operator-kind name for error messages and StreamSQL comments.
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        match self {
            Operator::Filter(_) => "filter",
            Operator::Map(_) => "map",
            Operator::Aggregate(_) => "aggregate",
        }
    }

    /// Validate the operator against the schema of its input stream.
    ///
    /// # Errors
    /// Returns [`DsmsError::UnknownAttribute`], [`DsmsError::InvalidGraph`] or
    /// [`DsmsError::BadAggregate`] when the operator cannot be applied.
    pub fn validate(&self, input: &Schema) -> Result<(), DsmsError> {
        match self {
            Operator::Filter(op) => op.validate(input),
            Operator::Map(op) => op.validate(input),
            Operator::Aggregate(op) => op.validate(input),
        }
    }

    /// The schema of the operator's output stream given its input schema.
    ///
    /// # Errors
    /// Fails when the operator does not validate against the input schema.
    pub fn output_schema(&self, input: &Schema) -> Result<Schema, DsmsError> {
        match self {
            Operator::Filter(op) => op.output_schema(input),
            Operator::Map(op) => op.output_schema(input),
            Operator::Aggregate(op) => op.output_schema(input),
        }
    }
}

impl fmt::Display for Operator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operator::Filter(op) => write!(f, "Filter[{}]", op.condition()),
            Operator::Map(op) => write!(f, "Map[{}]", op.attributes().join(", ")),
            Operator::Aggregate(op) => write!(f, "Aggregate[{op}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::WindowSpec;
    use aggregate::{AggFunc, AggSpec};

    #[test]
    fn kind_names() {
        let f = Operator::Filter(FilterOp::parse("a > 1").unwrap());
        let m = Operator::Map(MapOp::new(["a"]));
        let a = Operator::Aggregate(AggregateOp::new(
            WindowSpec::tuples(5, 2),
            vec![AggSpec::new("a", AggFunc::Avg)],
        ));
        assert_eq!(f.kind_name(), "filter");
        assert_eq!(m.kind_name(), "map");
        assert_eq!(a.kind_name(), "aggregate");
        assert!(f.to_string().contains("a > 1"));
        assert!(m.to_string().contains('a'));
        assert!(a.to_string().contains("avg"));
    }
}
