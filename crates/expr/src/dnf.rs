//! Disjunctive normal form (Step 2 of the Section 3.5 procedure).
//!
//! A [`Dnf`] is a disjunction of [`Conjunct`]s, each of which is a
//! conjunction of simple expressions. It is produced by evaluating the
//! postfix sequence of the NOT-free condition with a stack: `AND` applies
//! the distributive law to its two operands (cartesian product of their
//! conjuncts), `OR` concatenates them — exactly the algorithm the paper
//! sketches using the IBM postfix-evaluation reference.

use crate::ast::{Expr, SimpleExpr};
use crate::normalize::eliminate_not;
use crate::postfix::{to_postfix, PostfixTok};
use std::fmt;

/// A conjunction of simple expressions (one "clause" of the DNF).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Conjunct {
    /// The conjoined simple expressions.
    pub terms: Vec<SimpleExpr>,
}

impl Conjunct {
    /// An empty conjunct, which is vacuously true.
    #[must_use]
    pub fn always_true() -> Self {
        Conjunct { terms: Vec::new() }
    }

    /// Build a conjunct from terms.
    #[must_use]
    pub fn new(terms: Vec<SimpleExpr>) -> Self {
        Conjunct { terms }
    }

    /// Concatenate two conjuncts (logical AND of the clauses).
    #[must_use]
    pub fn merge(&self, other: &Conjunct) -> Conjunct {
        let mut terms = Vec::with_capacity(self.terms.len() + other.terms.len());
        terms.extend(self.terms.iter().cloned());
        terms.extend(other.terms.iter().cloned());
        Conjunct { terms }
    }

    /// Number of simple expressions in the clause.
    #[must_use]
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the clause has no terms (i.e. is vacuously true).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Convert back into an [`Expr`] (an AND-chain, or `TRUE` when empty).
    #[must_use]
    pub fn to_expr(&self) -> Expr {
        self.terms
            .iter()
            .cloned()
            .map(Expr::Simple)
            .reduce(|a, b| Expr::And(Box::new(a), Box::new(b)))
            .unwrap_or(Expr::True)
    }
}

impl fmt::Display for Conjunct {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return f.write_str("TRUE");
        }
        let parts: Vec<String> = self.terms.iter().map(ToString::to_string).collect();
        f.write_str(&parts.join(" AND "))
    }
}

/// A condition in disjunctive normal form.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Dnf {
    /// The disjuncts. An empty list is the constant FALSE; a list containing
    /// one empty conjunct is the constant TRUE.
    pub conjuncts: Vec<Conjunct>,
}

impl Dnf {
    /// The constant FALSE.
    #[must_use]
    pub fn never() -> Self {
        Dnf { conjuncts: Vec::new() }
    }

    /// The constant TRUE.
    #[must_use]
    pub fn always() -> Self {
        Dnf { conjuncts: vec![Conjunct::always_true()] }
    }

    /// Convert an arbitrary expression (NOT allowed) into DNF.
    ///
    /// This is the full Step 1 + Step 2 pipeline: eliminate NOT, convert to
    /// postfix, evaluate the postfix sequence with distribution on AND and
    /// concatenation on OR.
    #[must_use]
    pub fn from_expr(expr: &Expr) -> Dnf {
        let nnf = eliminate_not(expr);
        let postfix = to_postfix(&nnf);
        let mut stack: Vec<Dnf> = Vec::new();
        for tok in postfix {
            match tok {
                PostfixTok::Operand(s) => {
                    stack.push(Dnf { conjuncts: vec![Conjunct::new(vec![s])] });
                }
                PostfixTok::True => stack.push(Dnf::always()),
                PostfixTok::False => stack.push(Dnf::never()),
                PostfixTok::And => {
                    let right = stack.pop().expect("postfix AND needs two operands");
                    let left = stack.pop().expect("postfix AND needs two operands");
                    stack.push(left.distribute_and(&right));
                }
                PostfixTok::Or => {
                    let right = stack.pop().expect("postfix OR needs two operands");
                    let left = stack.pop().expect("postfix OR needs two operands");
                    stack.push(left.concat_or(&right));
                }
            }
        }
        stack.pop().unwrap_or_else(Dnf::always)
    }

    /// Distributive law: `(A ∨ B) ∧ (C ∨ D) = AC ∨ AD ∨ BC ∨ BD`.
    #[must_use]
    pub fn distribute_and(&self, other: &Dnf) -> Dnf {
        let mut conjuncts = Vec::with_capacity(self.conjuncts.len() * other.conjuncts.len());
        for a in &self.conjuncts {
            for b in &other.conjuncts {
                conjuncts.push(a.merge(b));
            }
        }
        Dnf { conjuncts }
    }

    /// OR of two DNFs: simple concatenation of their clauses.
    #[must_use]
    pub fn concat_or(&self, other: &Dnf) -> Dnf {
        let mut conjuncts = Vec::with_capacity(self.conjuncts.len() + other.conjuncts.len());
        conjuncts.extend(self.conjuncts.iter().cloned());
        conjuncts.extend(other.conjuncts.iter().cloned());
        Dnf { conjuncts }
    }

    /// Number of clauses (the `k` of the O(k·n²) cost bound).
    #[must_use]
    pub fn clause_count(&self) -> usize {
        self.conjuncts.len()
    }

    /// Maximum clause width (the `n` of the O(k·n²) cost bound).
    #[must_use]
    pub fn max_clause_width(&self) -> usize {
        self.conjuncts.iter().map(Conjunct::len).max().unwrap_or(0)
    }

    /// Convert back into an [`Expr`] (an OR of AND-chains).
    #[must_use]
    pub fn to_expr(&self) -> Expr {
        self.conjuncts
            .iter()
            .map(Conjunct::to_expr)
            .reduce(|a, b| Expr::Or(Box::new(a), Box::new(b)))
            .unwrap_or(Expr::False)
    }
}

impl fmt::Display for Dnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.conjuncts.is_empty() {
            return f.write_str("FALSE");
        }
        let parts: Vec<String> = self.conjuncts.iter().map(|c| format!("({c})")).collect();
        f.write_str(&parts.join(" OR "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval, MapBindings};
    use crate::parser::parse_expr;

    fn dnf(src: &str) -> Dnf {
        Dnf::from_expr(&parse_expr(src).unwrap())
    }

    #[test]
    fn single_simple_expression() {
        let d = dnf("a > 1");
        assert_eq!(d.clause_count(), 1);
        assert_eq!(d.conjuncts[0].len(), 1);
    }

    #[test]
    fn and_produces_single_clause() {
        let d = dnf("a > 1 AND b < 2 AND c = 3");
        assert_eq!(d.clause_count(), 1);
        assert_eq!(d.conjuncts[0].len(), 3);
    }

    #[test]
    fn or_produces_multiple_clauses() {
        let d = dnf("a > 1 OR b < 2 OR c = 3");
        assert_eq!(d.clause_count(), 3);
        assert_eq!(d.max_clause_width(), 1);
    }

    #[test]
    fn distribution_of_and_over_or() {
        // (a>1 OR b>2) AND (c>3 OR d>4)  →  4 clauses of width 2.
        let d = dnf("(a > 1 OR b > 2) AND (c > 3 OR d > 4)");
        assert_eq!(d.clause_count(), 4);
        assert!(d.conjuncts.iter().all(|c| c.len() == 2));
    }

    #[test]
    fn paper_example4_dnf_shape() {
        // P = ((a>20 AND a<30) OR NOT(a != 40)) AND (NOT(a>=10) AND b=20)
        // The paper obtains two conjuncts: {E,D,C} and {E,D,B,A}
        // i.e. one clause of width 3 and one of width 4.
        let d = dnf("((a > 20 AND a < 30) OR NOT (a != 40)) AND (NOT (a >= 10) AND b = 20)");
        assert_eq!(d.clause_count(), 2);
        let mut widths: Vec<usize> = d.conjuncts.iter().map(Conjunct::len).collect();
        widths.sort_unstable();
        assert_eq!(widths, vec![3, 4]);
    }

    #[test]
    fn constants() {
        // FALSE has no clause; TRUE has an empty one.
        assert!(dnf("FALSE").conjuncts.is_empty());
        assert!(dnf("TRUE").conjuncts.iter().any(Conjunct::is_empty));
        // FALSE OR x  →  just x (after parser constant folding).
        assert_eq!(dnf("FALSE OR a > 1").clause_count(), 1);
    }

    #[test]
    fn dnf_preserves_truth_table_on_grid() {
        let sources = [
            "((a > 20 AND a < 30) OR NOT (a != 40)) AND (NOT (a >= 10) AND b = 20)",
            "(a > 1 OR b > 2) AND (a < 5 OR b < 6) AND NOT (a = 3)",
            "NOT ((a >= 2 AND b <= 3) OR (a != 4 AND b > 1))",
        ];
        for src in sources {
            let original = parse_expr(src).unwrap();
            let d = Dnf::from_expr(&original);
            let roundtrip = d.to_expr();
            for a in 0..=45 {
                for b in 0..=25 {
                    let bindings = MapBindings::new()
                        .with_number("a", f64::from(a))
                        .with_number("b", f64::from(b));
                    assert_eq!(
                        eval(&original, &bindings),
                        eval(&roundtrip, &bindings),
                        "mismatch for {src} at a={a} b={b}"
                    );
                }
            }
        }
    }

    #[test]
    fn display_is_readable() {
        let d = dnf("a > 1 AND b < 2");
        assert_eq!(d.to_string(), "(a > 1 AND b < 2)");
        assert_eq!(Dnf::never().to_string(), "FALSE");
    }
}
