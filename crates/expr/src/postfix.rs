//! Infix → postfix conversion (part of Step 2 of the Section 3.5 procedure).
//!
//! The paper converts the NOT-free condition to postfix (reverse Polish)
//! form with a standard stack-based algorithm, and then *evaluates* the
//! postfix sequence to build the DNF, applying the distributive law whenever
//! the operator is `AND` and concatenating operands whenever it is `OR`.
//! This module produces the postfix sequence; [`crate::dnf`] performs the
//! evaluation.

use crate::ast::{Expr, SimpleExpr};

/// One element of a postfix sequence.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum PostfixTok {
    /// A simple-expression operand.
    Operand(SimpleExpr),
    /// Constant true operand.
    True,
    /// Constant false operand.
    False,
    /// Binary AND operator.
    And,
    /// Binary OR operator.
    Or,
}

/// Convert a NOT-free expression into its postfix sequence.
///
/// # Panics
/// Panics if the expression still contains a `Not` node — callers must run
/// [`crate::normalize::eliminate_not`] first. (This is an internal invariant;
/// the public entry point [`crate::dnf::Dnf::from_expr`] always does so.)
#[must_use]
pub(crate) fn to_postfix(expr: &Expr) -> Vec<PostfixTok> {
    let mut out = Vec::with_capacity(expr.leaf_count() * 2);
    emit(expr, &mut out);
    out
}

fn emit(expr: &Expr, out: &mut Vec<PostfixTok>) {
    match expr {
        Expr::True => out.push(PostfixTok::True),
        Expr::False => out.push(PostfixTok::False),
        Expr::Simple(s) => out.push(PostfixTok::Operand(s.clone())),
        Expr::And(a, b) => {
            emit(a, out);
            emit(b, out);
            out.push(PostfixTok::And);
        }
        Expr::Or(a, b) => {
            emit(a, out);
            emit(b, out);
            out.push(PostfixTok::Or);
        }
        Expr::Not(_) => {
            panic!("to_postfix requires a NOT-free expression; run eliminate_not first")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::eliminate_not;
    use crate::parser::parse_expr;

    #[test]
    fn flat_and_produces_operands_then_operator() {
        let e = parse_expr("a > 1 AND b < 2").unwrap();
        let pf = to_postfix(&e);
        assert_eq!(pf.len(), 3);
        assert!(matches!(pf[0], PostfixTok::Operand(_)));
        assert!(matches!(pf[1], PostfixTok::Operand(_)));
        assert_eq!(pf[2], PostfixTok::And);
    }

    #[test]
    fn example4_shape() {
        // ((A & B) | C) & (D & E) has postfix A B & C | D E & &
        let e = parse_expr("((a > 20 AND a < 30) OR a = 40) AND (a < 10 AND b = 20)").unwrap();
        let pf = to_postfix(&e);
        let ops: Vec<&PostfixTok> =
            pf.iter().filter(|t| matches!(t, PostfixTok::And | PostfixTok::Or)).collect();
        assert_eq!(ops.len(), 4);
        assert_eq!(pf.len(), 9);
        // Last operator must be the top-level AND.
        assert_eq!(*pf.last().unwrap(), PostfixTok::And);
        assert!(ops.contains(&&PostfixTok::Or));
    }

    #[test]
    fn constants_become_operands() {
        let e = parse_expr("TRUE OR a > 1").unwrap();
        // Constant folding in the parser collapses this to TRUE.
        let pf = to_postfix(&eliminate_not(&e));
        assert!(!pf.is_empty());
    }

    #[test]
    #[should_panic(expected = "NOT-free")]
    fn panics_on_not_node() {
        let e = parse_expr("NOT (a > 1)").unwrap();
        let _ = to_postfix(&e);
    }

    #[test]
    fn operand_count_matches_leaf_count() {
        let e = parse_expr("(a > 1 OR b > 2) AND (c > 3 OR d > 4) AND e = 5").unwrap();
        let pf = to_postfix(&e);
        let operands = pf.iter().filter(|t| matches!(t, PostfixTok::Operand(_))).count();
        assert_eq!(operands, e.leaf_count());
        let operators = pf.iter().filter(|t| matches!(t, PostfixTok::And | PostfixTok::Or)).count();
        assert_eq!(operators, operands - 1);
    }
}
