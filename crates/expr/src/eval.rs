//! Evaluation of expressions against attribute bindings.
//!
//! The DSMS filter operator evaluates the (merged) filter condition against
//! every incoming tuple; the property tests use the same evaluator to prove
//! that NOT-elimination and DNF conversion preserve truth tables.

use crate::ast::{CmpOp, Expr, Scalar, SimpleExpr};
use std::collections::HashMap;

/// A source of attribute values.
///
/// Implemented by the DSMS tuple type and by [`MapBindings`] for tests.
pub trait Bindings {
    /// Look up the value bound to `attr`, if any.
    fn lookup(&self, attr: &str) -> Option<Scalar>;
}

/// Simple hash-map backed bindings, handy in tests and examples.
#[derive(Debug, Clone, Default)]
pub struct MapBindings {
    values: HashMap<String, Scalar>,
}

impl MapBindings {
    /// Empty bindings.
    #[must_use]
    pub fn new() -> Self {
        MapBindings { values: HashMap::new() }
    }

    /// Add a numeric binding (builder style).
    #[must_use]
    pub fn with_number(mut self, attr: impl Into<String>, value: f64) -> Self {
        self.values.insert(attr.into(), Scalar::Number(value));
        self
    }

    /// Add a text binding (builder style).
    #[must_use]
    pub fn with_text(mut self, attr: impl Into<String>, value: impl Into<String>) -> Self {
        self.values.insert(attr.into(), Scalar::Text(value.into()));
        self
    }

    /// Insert a binding in place.
    pub fn set(&mut self, attr: impl Into<String>, value: Scalar) {
        self.values.insert(attr.into(), value);
    }
}

impl Bindings for MapBindings {
    fn lookup(&self, attr: &str) -> Option<Scalar> {
        self.values.get(attr).cloned()
    }
}

impl Bindings for HashMap<String, Scalar> {
    fn lookup(&self, attr: &str) -> Option<Scalar> {
        self.get(attr).cloned()
    }
}

/// Evaluate a simple expression against bindings.
///
/// Missing attributes and kind mismatches (number vs text) evaluate to
/// `false`, matching the DSMS behaviour of dropping tuples a predicate
/// cannot be decided for.
#[must_use]
pub(crate) fn eval_simple(simple: &SimpleExpr, bindings: &dyn Bindings) -> bool {
    let Some(actual) = bindings.lookup(&simple.attr) else {
        return false;
    };
    compare(&actual, simple.op, &simple.value)
}

/// Compare a bound value against the literal of a simple expression.
#[must_use]
pub(crate) fn compare(actual: &Scalar, op: CmpOp, literal: &Scalar) -> bool {
    match actual.partial_cmp_same_kind(literal) {
        Some(ord) => op.apply_ord(ord),
        None => false,
    }
}

/// Evaluate a complex expression against bindings.
#[must_use]
pub fn eval(expr: &Expr, bindings: &dyn Bindings) -> bool {
    match expr {
        Expr::True => true,
        Expr::False => false,
        Expr::Simple(s) => eval_simple(s, bindings),
        Expr::Not(inner) => !eval(inner, bindings),
        Expr::And(a, b) => eval(a, bindings) && eval(b, bindings),
        Expr::Or(a, b) => eval(a, bindings) || eval(b, bindings),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;

    #[test]
    fn evaluates_numeric_comparisons() {
        let b = MapBindings::new().with_number("rainrate", 7.5);
        assert!(eval(&parse_expr("rainrate > 5").unwrap(), &b));
        assert!(!eval(&parse_expr("rainrate > 10").unwrap(), &b));
        assert!(eval(&parse_expr("rainrate <= 7.5").unwrap(), &b));
        assert!(eval(&parse_expr("rainrate != 3").unwrap(), &b));
    }

    #[test]
    fn evaluates_string_equality() {
        let b = MapBindings::new().with_text("station", "S11");
        assert!(eval(&parse_expr("station = 'S11'").unwrap(), &b));
        assert!(!eval(&parse_expr("station = 'S12'").unwrap(), &b));
        assert!(eval(&parse_expr("station != 'S12'").unwrap(), &b));
    }

    #[test]
    fn missing_attribute_is_false() {
        let b = MapBindings::new();
        assert!(!eval(&parse_expr("a > 1").unwrap(), &b));
        // ... but NOT over a missing attribute flips it, as in standard
        // three-valued-free boolean evaluation of our engine.
        assert!(eval(&parse_expr("NOT (a > 1)").unwrap(), &b));
    }

    #[test]
    fn kind_mismatch_is_false() {
        let b = MapBindings::new().with_text("a", "hello");
        assert!(!eval(&parse_expr("a > 1").unwrap(), &b));
        let b = MapBindings::new().with_number("a", 3.0);
        assert!(!eval(&parse_expr("a = 'hello'").unwrap(), &b));
    }

    #[test]
    fn boolean_connectives() {
        let b = MapBindings::new().with_number("a", 5.0).with_number("b", 10.0);
        assert!(eval(&parse_expr("a = 5 AND b = 10").unwrap(), &b));
        assert!(!eval(&parse_expr("a = 5 AND b = 11").unwrap(), &b));
        assert!(eval(&parse_expr("a = 6 OR b = 10").unwrap(), &b));
        assert!(eval(&parse_expr("NOT (a = 6)").unwrap(), &b));
        assert!(eval(&parse_expr("TRUE").unwrap(), &b));
        assert!(!eval(&parse_expr("FALSE").unwrap(), &b));
    }

    #[test]
    fn paper_example3_filtering() {
        // Stream fragment (..., 9,10,11,3,2,6,9,8,7,2,13,...) with
        // policy filter a > 8 and user filter a > 5: the user receives only
        // tuples satisfying both.
        let both = parse_expr("a > 8 AND a > 5").unwrap();
        let values = [9.0, 10.0, 11.0, 3.0, 2.0, 6.0, 9.0, 8.0, 7.0, 2.0, 13.0];
        let surviving: Vec<f64> = values
            .iter()
            .copied()
            .filter(|v| eval(&both, &MapBindings::new().with_number("a", *v)))
            .collect();
        assert_eq!(surviving, vec![9.0, 10.0, 11.0, 9.0, 13.0]);
    }

    #[test]
    fn hashmap_bindings_work() {
        let mut m: HashMap<String, Scalar> = HashMap::new();
        m.insert("x".into(), Scalar::Number(2.0));
        assert!(eval(&parse_expr("x >= 2").unwrap(), &m));
    }
}
