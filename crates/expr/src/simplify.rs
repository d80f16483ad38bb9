//! Conjunct-level simplification of merged filter conditions.
//!
//! Section 3.1 of the paper notes that after merging two filter operators
//! `F1` (policy) and `F2` (user) into `F3 = (C1) AND (C2)`, the combined
//! condition can often be simplified — e.g. `x > v1 AND x > v2` collapses to
//! `x > max(v1, v2)`. This module implements that simplification over the
//! DNF of the merged condition:
//!
//! * numeric bounds per attribute are tightened into a single interval,
//! * equalities are checked against the interval and the inequalities,
//! * contradictory conjuncts are removed entirely,
//! * duplicate simple expressions and duplicate conjuncts are removed.
//!
//! The result is an equivalent expression with at most as many operators as
//! the input (the "reducing the number of operators" benefit the paper
//! mentions).

use crate::ast::{CmpOp, Expr, Scalar, SimpleExpr};
use crate::dnf::{Conjunct, Dnf};
use std::collections::BTreeMap;

/// Simplify a boolean condition into an equivalent, usually smaller, one.
#[must_use]
pub fn simplify(expr: &Expr) -> Expr {
    let dnf = Dnf::from_expr(expr);
    simplify_dnf(&dnf).to_expr()
}

/// Simplify every conjunct of a DNF, dropping unsatisfiable ones and
/// duplicate clauses.
#[must_use]
pub(crate) fn simplify_dnf(dnf: &Dnf) -> Dnf {
    let mut out: Vec<Conjunct> = Vec::with_capacity(dnf.conjuncts.len());
    for conjunct in &dnf.conjuncts {
        match simplify_conjunct(conjunct) {
            Some(c) => {
                if c.is_empty() {
                    // A vacuously-true clause makes the whole condition TRUE.
                    return Dnf::always();
                }
                if !out.contains(&c) {
                    out.push(c);
                }
            }
            None => { /* unsatisfiable clause: drop it */ }
        }
    }
    Dnf { conjuncts: out }
}

/// Accumulated numeric constraints for one attribute within a conjunct.
#[derive(Debug, Default, Clone)]
struct NumericBounds {
    /// Tightest lower bound seen, with inclusivity.
    lower: Option<(f64, bool)>,
    /// Tightest upper bound seen, with inclusivity.
    upper: Option<(f64, bool)>,
    /// Required equality value, if any.
    equals: Option<f64>,
    /// Excluded values (`!=`).
    not_equals: Vec<f64>,
}

impl NumericBounds {
    fn add(&mut self, op: CmpOp, v: f64) {
        match op {
            CmpOp::Gt => self.tighten_lower(v, false),
            CmpOp::Ge => self.tighten_lower(v, true),
            CmpOp::Lt => self.tighten_upper(v, false),
            CmpOp::Le => self.tighten_upper(v, true),
            CmpOp::Eq => match self.equals {
                None => self.equals = Some(v),
                Some(existing) if existing == v => {}
                Some(_) => {
                    // Two different equalities: mark as contradiction by
                    // installing impossible bounds.
                    self.lower = Some((f64::INFINITY, false));
                    self.upper = Some((f64::NEG_INFINITY, false));
                }
            },
            CmpOp::Ne => {
                if !self.not_equals.contains(&v) {
                    self.not_equals.push(v);
                }
            }
        }
    }

    fn tighten_lower(&mut self, v: f64, inclusive: bool) {
        self.lower = Some(match self.lower {
            None => (v, inclusive),
            Some((cur, cur_inc)) => {
                if v > cur || (v == cur && !inclusive && cur_inc) {
                    (v, inclusive)
                } else {
                    (cur, cur_inc)
                }
            }
        });
    }

    fn tighten_upper(&mut self, v: f64, inclusive: bool) {
        self.upper = Some(match self.upper {
            None => (v, inclusive),
            Some((cur, cur_inc)) => {
                if v < cur || (v == cur && !inclusive && cur_inc) {
                    (v, inclusive)
                } else {
                    (cur, cur_inc)
                }
            }
        });
    }

    /// Check satisfiability and emit the minimal list of simple expressions.
    /// Returns `None` when the constraints are contradictory.
    fn emit(&self, attr: &str) -> Option<Vec<SimpleExpr>> {
        // Equality dominates: check it against all other constraints.
        if let Some(eq) = self.equals {
            if let Some((lo, inc)) = self.lower {
                if eq < lo || (eq == lo && !inc) {
                    return None;
                }
            }
            if let Some((hi, inc)) = self.upper {
                if eq > hi || (eq == hi && !inc) {
                    return None;
                }
            }
            if self.not_equals.contains(&eq) {
                return None;
            }
            return Some(vec![SimpleExpr::new(attr, CmpOp::Eq, eq)]);
        }

        // Interval consistency.
        if let (Some((lo, lo_inc)), Some((hi, hi_inc))) = (self.lower, self.upper) {
            if lo > hi || (lo == hi && !(lo_inc && hi_inc)) {
                return None;
            }
            // Degenerate interval [v, v] collapses to an equality.
            if lo == hi && lo_inc && hi_inc {
                if self.not_equals.contains(&lo) {
                    return None;
                }
                return Some(vec![SimpleExpr::new(attr, CmpOp::Eq, lo)]);
            }
        }

        let mut out = Vec::new();
        if let Some((lo, inc)) = self.lower {
            out.push(SimpleExpr::new(attr, if inc { CmpOp::Ge } else { CmpOp::Gt }, lo));
        }
        if let Some((hi, inc)) = self.upper {
            out.push(SimpleExpr::new(attr, if inc { CmpOp::Le } else { CmpOp::Lt }, hi));
        }
        // Keep only exclusions that are not already outside the interval.
        for v in &self.not_equals {
            let inside_lower = match self.lower {
                None => true,
                Some((lo, inc)) => *v > lo || (*v == lo && inc),
            };
            let inside_upper = match self.upper {
                None => true,
                Some((hi, inc)) => *v < hi || (*v == hi && inc),
            };
            if inside_lower && inside_upper {
                out.push(SimpleExpr::new(attr, CmpOp::Ne, *v));
            }
        }
        Some(out)
    }
}

/// Accumulated string constraints for one attribute within a conjunct.
#[derive(Debug, Default, Clone)]
struct TextConstraints {
    equals: Option<String>,
    contradiction: bool,
    not_equals: Vec<String>,
}

impl TextConstraints {
    fn add(&mut self, op: CmpOp, v: &str) {
        match op {
            CmpOp::Eq => match &self.equals {
                None => self.equals = Some(v.to_string()),
                Some(existing) if existing == v => {}
                Some(_) => self.contradiction = true,
            },
            CmpOp::Ne if !self.not_equals.iter().any(|s| s == v) => {
                self.not_equals.push(v.to_string());
            }
            // Ordering over strings is rejected upstream; keep the term
            // verbatim by treating it as a contradiction-free opaque
            // constraint (conservative, never happens for parsed input).
            _ => {}
        }
    }

    fn emit(&self, attr: &str) -> Option<Vec<SimpleExpr>> {
        if self.contradiction {
            return None;
        }
        if let Some(eq) = &self.equals {
            if self.not_equals.iter().any(|s| s == eq) {
                return None;
            }
            return Some(vec![SimpleExpr::new(attr, CmpOp::Eq, eq.clone())]);
        }
        Some(self.not_equals.iter().map(|s| SimpleExpr::new(attr, CmpOp::Ne, s.clone())).collect())
    }
}

/// Simplify a single conjunct. Returns `None` when the conjunct is
/// unsatisfiable (and should be dropped from the DNF).
#[must_use]
pub(crate) fn simplify_conjunct(conjunct: &Conjunct) -> Option<Conjunct> {
    // Group terms per attribute, preserving first-seen attribute order so the
    // simplified output is stable and readable.
    let mut order: Vec<String> = Vec::new();
    let mut numeric: BTreeMap<String, NumericBounds> = BTreeMap::new();
    let mut textual: BTreeMap<String, TextConstraints> = BTreeMap::new();
    let mut mixed_kind: Vec<String> = Vec::new();

    for term in &conjunct.terms {
        if !order.contains(&term.attr) {
            order.push(term.attr.clone());
        }
        match &term.value {
            Scalar::Number(v) => {
                if textual.contains_key(&term.attr) {
                    mixed_kind.push(term.attr.clone());
                }
                numeric.entry(term.attr.clone()).or_default().add(term.op, *v);
            }
            Scalar::Text(s) => {
                if numeric.contains_key(&term.attr) {
                    mixed_kind.push(term.attr.clone());
                }
                textual.entry(term.attr.clone()).or_default().add(term.op, s);
            }
        }
    }

    // An attribute constrained to be both a number and a string can never be
    // satisfied by a typed column.
    if !mixed_kind.is_empty() {
        return None;
    }

    let mut terms = Vec::with_capacity(conjunct.terms.len());
    for attr in order {
        if let Some(bounds) = numeric.get(&attr) {
            terms.extend(bounds.emit(&attr)?);
        }
        if let Some(texts) = textual.get(&attr) {
            terms.extend(texts.emit(&attr)?);
        }
    }
    Some(Conjunct::new(terms))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval, MapBindings};
    use crate::parser::parse_expr;

    fn simp(src: &str) -> String {
        simplify(&parse_expr(src).unwrap()).to_string()
    }

    #[test]
    fn paper_merge_example_collapses_redundant_bound() {
        // C1 = x > v1, C2 = x > v2 with v2 >= v1 → x > v2.
        assert_eq!(simp("x > 5 AND x > 50"), "x > 50");
        assert_eq!(simp("x > 50 AND x > 5"), "x > 50");
    }

    #[test]
    fn keeps_both_bounds_of_a_window() {
        assert_eq!(simp("x > 5 AND x < 50"), "(x > 5) AND (x < 50)");
    }

    #[test]
    fn inclusive_vs_exclusive_bounds() {
        // The strict bound wins at equal values.
        assert_eq!(simp("x >= 5 AND x > 5"), "x > 5");
        assert_eq!(simp("x <= 5 AND x < 5"), "x < 5");
    }

    #[test]
    fn contradictions_become_false() {
        assert_eq!(simp("x > 5 AND x < 4"), "FALSE");
        assert_eq!(simp("x = 5 AND x = 6"), "FALSE");
        assert_eq!(simp("x = 5 AND x != 5"), "FALSE");
        assert_eq!(simp("x > 5 AND x = 3"), "FALSE");
        assert_eq!(simp("s = 'a' AND s = 'b'"), "FALSE");
    }

    #[test]
    fn degenerate_interval_becomes_equality() {
        assert_eq!(simp("x >= 5 AND x <= 5"), "x = 5");
    }

    #[test]
    fn equality_absorbs_compatible_bounds() {
        assert_eq!(simp("x = 7 AND x > 5 AND x <= 10"), "x = 7");
    }

    #[test]
    fn irrelevant_exclusions_are_dropped() {
        // x != 100 is implied by x < 50.
        assert_eq!(simp("x < 50 AND x != 100"), "x < 50");
        // ... but an exclusion inside the interval is kept.
        assert_eq!(simp("x < 50 AND x != 10"), "(x < 50) AND (x != 10)");
    }

    #[test]
    fn unsatisfiable_disjunct_is_dropped() {
        assert_eq!(simp("(x > 5 AND x < 4) OR x = 9"), "x = 9");
    }

    #[test]
    fn duplicate_clauses_are_removed() {
        assert_eq!(simp("x > 5 OR x > 5"), "x > 5");
    }

    #[test]
    fn mixed_kind_attribute_is_unsatisfiable() {
        assert_eq!(simp("x = 5 AND x = 'five'"), "FALSE");
    }

    #[test]
    fn string_equalities() {
        assert_eq!(simp("s = 'a' AND s != 'b'"), "s = 'a'");
        assert_eq!(simp("s != 'a' AND s != 'a'"), "s != 'a'");
    }

    #[test]
    fn true_stays_true() {
        assert_eq!(simp("TRUE"), "TRUE");
        assert_eq!(simp("x > 1 OR TRUE"), "TRUE");
    }

    #[test]
    fn simplification_preserves_semantics_on_grid() {
        let sources = [
            "x > 5 AND x > 50",
            "(x > 5 AND x < 4) OR x = 9",
            "x >= 5 AND x <= 5 AND x != 7",
            "(x > 0 AND x != 3) OR (x < -5 AND x > -10)",
            "x < 50 AND x != 10 AND x >= 0",
        ];
        for src in sources {
            let original = parse_expr(src).unwrap();
            let simplified = simplify(&original);
            for i in -30..=120 {
                let x = f64::from(i) * 0.5;
                let b = MapBindings::new().with_number("x", x);
                assert_eq!(
                    eval(&original, &b),
                    eval(&simplified, &b),
                    "mismatch for {src} at x={x} (simplified: {simplified})"
                );
            }
        }
    }

    #[test]
    fn simplified_is_never_larger() {
        let sources = [
            "x > 5 AND x > 50 AND x > 17",
            "(x > 5 OR x > 2) AND (x > 1 OR x > 0)",
            "x = 5 AND x >= 0 AND x <= 100 AND x != 9",
        ];
        for src in sources {
            let original = parse_expr(src).unwrap();
            let simplified = simplify(&original);
            assert!(
                simplified.leaf_count() <= Dnf::from_expr(&original).to_expr().leaf_count(),
                "simplify grew {src}"
            );
        }
    }
}
