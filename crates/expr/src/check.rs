//! NR/PR conflict analysis (Step 3 of the Section 3.5 procedure).
//!
//! When the PEP merges the filter condition derived from a policy obligation
//! (`C1`) with the condition from a user query (`C2`), the combined predicate
//! `P = C1 AND C2` may return *no* tuples (an **NR**, empty-result warning)
//! or only *some* of the tuples the user asked for (a **PR**, partial-result
//! warning). The procedure is:
//!
//! 1. eliminate `NOT` from `P` ([`crate::normalize`]),
//! 2. convert to DNF ([`crate::dnf`]),
//! 3. pairwise apply `checkTwoSimpleExpression` to the simple expressions of
//!    each conjunct; a conjunct is NR if any pair is contradictory, PR if any
//!    policy-side predicate strictly narrows a user-side predicate; the whole
//!    condition alerts NR only if *every* conjunct is NR, and PR if every
//!    conjunct is marked (NR or PR).
//!
//! The per-pair logic reproduces the Figure 5 decision matrix, extended to
//! all 6×6 operator combinations and to string equality predicates.

use crate::ast::{CmpOp, Expr, Origin, Scalar, SimpleExpr};
use crate::dnf::{Conjunct, Dnf};
use std::fmt;

/// Outcome of a conflict check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Verdict {
    /// No conflict: the user receives everything their query asks for.
    Compatible,
    /// Partial result: some tuples matching the user query are withheld by
    /// the policy.
    Pr,
    /// Empty result: no tuple can ever satisfy the merged condition.
    Nr,
}

impl Verdict {
    /// The more severe of two verdicts (NR > PR > Compatible).
    #[must_use]
    pub fn max(self, other: Verdict) -> Verdict {
        std::cmp::max(self, other)
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Compatible => f.write_str("OK"),
            Verdict::Pr => f.write_str("PR"),
            Verdict::Nr => f.write_str("NR"),
        }
    }
}

/// Detailed outcome of [`analyze_merge`].
#[derive(Debug, Clone, PartialEq)]
pub struct ConflictReport {
    /// The overall alert raised to the user.
    pub verdict: Verdict,
    /// Per-conjunct verdicts (in DNF clause order).
    pub clause_verdicts: Vec<Verdict>,
    /// How many `checkTwoSimpleExpression` calls were made — the paper bounds
    /// the cost by O(k·n²) and the Example 4 walkthrough counts 3 + 6 calls.
    pub pair_checks: usize,
    /// Number of DNF clauses (`k`).
    pub clause_count: usize,
    /// Maximum clause width (`n`).
    pub max_clause_width: usize,
}

/// The numeric or string "solution set" of a simple expression, used for
/// satisfiability and containment reasoning.
#[derive(Debug, Clone, PartialEq)]
enum ValueSet {
    /// `x = v` over numbers: a single point.
    NumPoint(f64),
    /// `x != v` over numbers: everything except one point.
    NumComplement(f64),
    /// A half-line: all numbers above `bound` (inclusive if `inclusive`).
    NumAbove { bound: f64, inclusive: bool },
    /// A half-line: all numbers below `bound` (inclusive if `inclusive`).
    NumBelow { bound: f64, inclusive: bool },
    /// `x = s` over strings.
    TextPoint(String),
    /// `x != s` over strings.
    TextComplement(String),
}

impl ValueSet {
    fn of(simple: &SimpleExpr) -> Option<ValueSet> {
        match (&simple.value, simple.op) {
            (Scalar::Number(v), CmpOp::Eq) => Some(ValueSet::NumPoint(*v)),
            (Scalar::Number(v), CmpOp::Ne) => Some(ValueSet::NumComplement(*v)),
            (Scalar::Number(v), CmpOp::Gt) => {
                Some(ValueSet::NumAbove { bound: *v, inclusive: false })
            }
            (Scalar::Number(v), CmpOp::Ge) => {
                Some(ValueSet::NumAbove { bound: *v, inclusive: true })
            }
            (Scalar::Number(v), CmpOp::Lt) => {
                Some(ValueSet::NumBelow { bound: *v, inclusive: false })
            }
            (Scalar::Number(v), CmpOp::Le) => {
                Some(ValueSet::NumBelow { bound: *v, inclusive: true })
            }
            (Scalar::Text(s), CmpOp::Eq) => Some(ValueSet::TextPoint(s.clone())),
            (Scalar::Text(s), CmpOp::Ne) => Some(ValueSet::TextComplement(s.clone())),
            // Ordering operators over strings are rejected by the parser;
            // if constructed programmatically we cannot reason about them.
            (Scalar::Text(_), _) => None,
        }
    }

    /// Is this set restricted to numbers (as opposed to strings)?
    fn is_numeric(&self) -> bool {
        matches!(
            self,
            ValueSet::NumPoint(_)
                | ValueSet::NumComplement(_)
                | ValueSet::NumAbove { .. }
                | ValueSet::NumBelow { .. }
        )
    }

    fn contains_number(&self, x: f64) -> bool {
        match self {
            ValueSet::NumPoint(v) => x == *v,
            ValueSet::NumComplement(v) => x != *v,
            ValueSet::NumAbove { bound, inclusive } => x > *bound || (*inclusive && x == *bound),
            ValueSet::NumBelow { bound, inclusive } => x < *bound || (*inclusive && x == *bound),
            _ => false,
        }
    }

    /// Do the two sets have a non-empty intersection?
    fn intersects(&self, other: &ValueSet) -> bool {
        use ValueSet::{NumAbove, NumBelow, NumComplement, NumPoint, TextComplement, TextPoint};
        match (self, other) {
            // A number predicate and a string predicate on the same attribute
            // can never both hold for a single typed column.
            (a, b) if a.is_numeric() != b.is_numeric() => false,

            (NumPoint(p), _) => other.contains_number(*p),
            (_, NumPoint(p)) => self.contains_number(*p),
            // Two complements always intersect (the real line minus two points).
            (NumComplement(_), NumComplement(_)) => true,
            // A half-line minus one point is never empty.
            (NumComplement(_), NumAbove { .. } | NumBelow { .. })
            | (NumAbove { .. } | NumBelow { .. }, NumComplement(_)) => true,
            // Two half-lines in the same direction always intersect.
            (NumAbove { .. }, NumAbove { .. }) | (NumBelow { .. }, NumBelow { .. }) => true,
            // Opposite half-lines intersect when the bounds overlap.
            (
                NumAbove { bound: lo, inclusive: lo_inc },
                NumBelow { bound: hi, inclusive: hi_inc },
            )
            | (
                NumBelow { bound: hi, inclusive: hi_inc },
                NumAbove { bound: lo, inclusive: lo_inc },
            ) => lo < hi || (lo == hi && *lo_inc && *hi_inc),

            (TextPoint(a), TextPoint(b)) => a == b,
            (TextPoint(a), TextComplement(b)) | (TextComplement(b), TextPoint(a)) => a != b,
            (TextComplement(_), TextComplement(_)) => true,

            // Remaining combinations are mixed-kind and unreachable because of
            // the is_numeric guard above.
            _ => false,
        }
    }

    /// Is `self` a subset of `other`?
    fn subset_of(&self, other: &ValueSet) -> bool {
        use ValueSet::{NumAbove, NumBelow, NumComplement, NumPoint, TextComplement, TextPoint};
        match (self, other) {
            (a, b) if a.is_numeric() != b.is_numeric() => false,

            (NumPoint(p), _) => other.contains_number(*p),
            (NumComplement(a), NumComplement(b)) => a == b,
            // A complement (the whole line minus a point) is never contained
            // in a half-line or a point.
            (NumComplement(_), _) => false,
            // Half-lines are infinite, so never inside a point.
            (NumAbove { .. } | NumBelow { .. }, NumPoint(_)) => false,
            // A half-line is inside a complement iff the excluded point is
            // outside the half-line.
            (s @ (NumAbove { .. } | NumBelow { .. }), NumComplement(v)) => !s.contains_number(*v),
            (NumAbove { bound: a, inclusive: ia }, NumAbove { bound: b, inclusive: ib }) => {
                a > b || (a == b && (*ib || !*ia))
            }
            (NumBelow { bound: a, inclusive: ia }, NumBelow { bound: b, inclusive: ib }) => {
                a < b || (a == b && (*ib || !*ia))
            }
            // Opposite directions: a half-line is unbounded on the side the
            // other is bounded on, so containment is impossible.
            (NumAbove { .. }, NumBelow { .. }) | (NumBelow { .. }, NumAbove { .. }) => false,

            (TextPoint(a), TextPoint(b)) => a == b,
            (TextPoint(a), TextComplement(b)) => a != b,
            (TextComplement(a), TextComplement(b)) => a == b,
            (TextComplement(_), TextPoint(_)) => false,

            _ => false,
        }
    }
}

/// `checkTwoSimpleExpression` from the paper, with roles passed explicitly:
/// `policy` comes from the obligation-derived filter, `user` from the user
/// query. Returns the verdict for the pair.
///
/// * Different attributes never conflict.
/// * If the conjunction of the two predicates is unsatisfiable, the pair is
///   **NR**.
/// * Otherwise, if the user's solution set is not fully contained in the
///   policy's (i.e. the policy removes tuples the user asked for), the pair
///   is **PR** — this reproduces the Figure 5 matrix for `x ≥ v1` vs
///   `x ≤ v2` and generalises it to all operator combinations.
/// * Otherwise the pair is compatible.
#[must_use]
pub fn check_two_simple(policy: &SimpleExpr, user: &SimpleExpr) -> Verdict {
    if policy.attr != user.attr {
        return Verdict::Compatible;
    }
    let (Some(p), Some(u)) = (ValueSet::of(policy), ValueSet::of(user)) else {
        // Ill-formed predicates (ordering over strings): treat conservatively
        // as a partial-result risk rather than crashing.
        return Verdict::Pr;
    };
    if !p.intersects(&u) {
        return Verdict::Nr;
    }
    if u.subset_of(&p) {
        Verdict::Compatible
    } else {
        Verdict::Pr
    }
}

/// Check every pair of simple expressions within one DNF conjunct.
///
/// Pairs are formed the way the paper's Example 4 does — `C(n,2)` calls per
/// conjunct — but the PR decision is only meaningful for pairs where one side
/// comes from the policy and the other from the user query (tracked by
/// [`Origin`] tags). Pairs with the same origin can still raise NR, because a
/// contradiction makes the whole conjunct unsatisfiable regardless of origin.
#[must_use]
pub(crate) fn check_conjunct(conjunct: &Conjunct) -> (Verdict, usize) {
    let terms = &conjunct.terms;
    let mut verdict = Verdict::Compatible;
    let mut calls = 0usize;
    for i in 0..terms.len() {
        for j in (i + 1)..terms.len() {
            let (a, b) = (&terms[i], &terms[j]);
            if a.attr != b.attr {
                continue;
            }
            calls += 1;
            let pair = match (a.origin, b.origin) {
                (Origin::Policy, Origin::User) => check_two_simple(a, b),
                (Origin::User, Origin::Policy) => check_two_simple(b, a),
                // Same (or unknown) origin: only unsatisfiability matters.
                _ => match check_two_simple(a, b) {
                    Verdict::Nr => Verdict::Nr,
                    _ => Verdict::Compatible,
                },
            };
            verdict = verdict.max(pair);
            if verdict == Verdict::Nr {
                // A single contradiction kills the conjunct; no need to keep
                // scanning (the call count still reflects work done so far,
                // mirroring a short-circuiting implementation).
                return (Verdict::Nr, calls);
            }
        }
    }
    (verdict, calls)
}

/// Aggregate the per-conjunct verdicts of a DNF according to the paper's
/// rule: alert NR only when *all* conjuncts are NR; alert PR when all
/// conjuncts are marked (PR or NR) but not all NR; otherwise no alert.
#[must_use]
pub(crate) fn check_dnf(dnf: &Dnf) -> ConflictReport {
    let mut clause_verdicts = Vec::with_capacity(dnf.conjuncts.len());
    let mut pair_checks = 0usize;
    for conjunct in &dnf.conjuncts {
        let (v, calls) = check_conjunct(conjunct);
        pair_checks += calls;
        clause_verdicts.push(v);
    }
    let verdict = if clause_verdicts.is_empty() {
        // The merged condition is constant FALSE.
        Verdict::Nr
    } else if clause_verdicts.iter().all(|v| *v == Verdict::Nr) {
        Verdict::Nr
    } else if clause_verdicts.iter().all(|v| *v != Verdict::Compatible) {
        Verdict::Pr
    } else {
        Verdict::Compatible
    };
    ConflictReport {
        verdict,
        clause_verdicts,
        pair_checks,
        clause_count: dnf.clause_count(),
        max_clause_width: dnf.max_clause_width(),
    }
}

/// Full pipeline: tag the policy and user conditions with their origins,
/// conjoin them, convert to DNF and run the NR/PR analysis.
#[must_use]
pub fn analyze_merge(policy: &Expr, user: &Expr) -> ConflictReport {
    let combined =
        policy.clone().with_origin(Origin::Policy).and(user.clone().with_origin(Origin::User));
    let dnf = Dnf::from_expr(&combined);
    check_dnf(&dnf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;

    fn analyze(policy: &str, user: &str) -> Verdict {
        analyze_merge(&parse_expr(policy).unwrap(), &parse_expr(user).unwrap()).verdict
    }

    #[test]
    fn example3_pr_case() {
        // Policy: a > 8, user: a > 5. Tuples in (5, 8] are withheld → PR.
        assert_eq!(analyze("a > 8", "a > 5"), Verdict::Pr);
    }

    #[test]
    fn example3_nr_case() {
        // Policy: a < 4, user: a > 5 → contradiction → NR.
        assert_eq!(analyze("a < 4", "a > 5"), Verdict::Nr);
    }

    #[test]
    fn compatible_when_user_is_stricter() {
        // Policy: a > 5, user: a > 50 → everything the user wants is allowed.
        assert_eq!(analyze("a > 5", "a > 50"), Verdict::Compatible);
        assert_eq!(analyze("a >= 5", "a = 7"), Verdict::Compatible);
        assert_eq!(analyze("a != 3", "a > 10"), Verdict::Compatible);
    }

    #[test]
    fn figure5_ge_vs_le_matrix() {
        // S1 = x >= v1 (policy), S2 = x <= v2 (user).
        // v1 > v2  → empty intersection → NR.
        assert_eq!(analyze("x >= 10", "x <= 5"), Verdict::Nr);
        // v1 <= v2 → the user also wanted values below v1 → PR.
        assert_eq!(analyze("x >= 5", "x <= 10"), Verdict::Pr);
        // v1 == v2 → only the single point x = v1 survives → still PR.
        assert_eq!(analyze("x >= 7", "x <= 7"), Verdict::Pr);
    }

    #[test]
    fn equality_pairs() {
        assert_eq!(analyze("x = 5", "x = 5"), Verdict::Compatible);
        assert_eq!(analyze("x = 5", "x = 6"), Verdict::Nr);
        assert_eq!(analyze("x = 5", "x > 4"), Verdict::Pr);
        assert_eq!(analyze("x != 5", "x = 5"), Verdict::Nr);
        assert_eq!(analyze("x != 5", "x = 6"), Verdict::Compatible);
        assert_eq!(analyze("x != 5", "x > 0"), Verdict::Pr);
    }

    #[test]
    fn string_predicates() {
        assert_eq!(analyze("s = 'a'", "s = 'a'"), Verdict::Compatible);
        assert_eq!(analyze("s = 'a'", "s = 'b'"), Verdict::Nr);
        assert_eq!(analyze("s != 'a'", "s = 'b'"), Verdict::Compatible);
        assert_eq!(analyze("s != 'a'", "s != 'b'"), Verdict::Pr);
        assert_eq!(analyze("s = 'a'", "s != 'b'"), Verdict::Pr);
    }

    #[test]
    fn mixed_kind_on_same_attribute_is_nr() {
        assert_eq!(analyze("x = 5", "x = 'five'"), Verdict::Nr);
    }

    #[test]
    fn different_attributes_do_not_conflict() {
        assert_eq!(analyze("a > 5", "b < 3"), Verdict::Compatible);
    }

    #[test]
    fn paper_example4_returns_nr() {
        // C1 = (a>20 AND a<30) OR NOT(a != 40); C2 = NOT(a>=10) AND b=20.
        // Both DNF conjuncts contain a contradiction (a<10 vs a=40, and
        // a<10 vs a>20), so the overall alert is NR.
        let report = analyze_merge(
            &parse_expr("(a > 20 AND a < 30) OR NOT (a != 40)").unwrap(),
            &parse_expr("NOT (a >= 10) AND b = 20").unwrap(),
        );
        assert_eq!(report.verdict, Verdict::Nr);
        assert_eq!(report.clause_count, 2);
        assert!(report.clause_verdicts.iter().all(|v| *v == Verdict::Nr));
    }

    #[test]
    fn disjunctive_user_query_only_partially_blocked_is_compatible_overall() {
        // Policy allows a > 0. User asks for a > 5 OR a < -100.
        // One DNF branch (a > 5) is fully allowed, the other (a < -100) is
        // contradictory; per the paper's rule an alert is raised only when
        // *all* conjuncts are marked, so no alert here.
        assert_eq!(analyze("a > 0", "a > 5 OR a < -100"), Verdict::Compatible);
    }

    #[test]
    fn all_branches_marked_pr_alerts_pr() {
        // Policy allows a > 10; the user asks for a > 5 OR a > 7 — both
        // branches lose part of their range → PR.
        assert_eq!(analyze("a > 10", "a > 5 OR a > 7"), Verdict::Pr);
    }

    #[test]
    fn mix_of_nr_and_pr_branches_alerts_pr() {
        // Policy allows a > 10. Branch 1 (a < 0) is NR, branch 2 (a > 3) is PR.
        assert_eq!(analyze("a > 10", "a < 0 OR a > 3"), Verdict::Pr);
    }

    #[test]
    fn pair_check_counts_match_example4() {
        // Example 4 makes C(3,2)=3 calls on the first conjunct and C(4,2)=6 on
        // the second — but our conjunct check may short-circuit once NR is
        // found, so the count is at most 9 and at least 2.
        let report = analyze_merge(
            &parse_expr("(a > 20 AND a < 30) OR NOT (a != 40)").unwrap(),
            &parse_expr("NOT (a >= 10) AND b = 20").unwrap(),
        );
        assert!(report.pair_checks >= 2);
        assert!(report.pair_checks <= 9);
        assert_eq!(report.max_clause_width, 4);
    }

    #[test]
    fn true_policy_never_alerts() {
        assert_eq!(analyze("TRUE", "a > 5"), Verdict::Compatible);
        assert_eq!(analyze("TRUE", "a > 5 OR b < 3"), Verdict::Compatible);
    }

    #[test]
    fn false_user_query_is_nr() {
        assert_eq!(analyze("a > 5", "FALSE"), Verdict::Nr);
    }

    #[test]
    fn check_two_simple_exhaustive_sanity() {
        // For every operator pair and every value ordering, the verdict must
        // be consistent with a brute-force sample of the number line.
        let candidates = [1.0_f64, 5.0, 9.0];
        let sample: Vec<f64> = (-20..=40).map(|i| f64::from(i) * 0.5).collect();
        for op1 in CmpOp::all() {
            for op2 in CmpOp::all() {
                for v1 in candidates {
                    for v2 in candidates {
                        let policy = SimpleExpr::new("x", op1, v1);
                        let user = SimpleExpr::new("x", op2, v2);
                        let verdict = check_two_simple(&policy, &user);
                        let both: Vec<f64> = sample
                            .iter()
                            .copied()
                            .filter(|x| {
                                op1.apply_ord(x.partial_cmp(&v1).unwrap())
                                    && op2.apply_ord(x.partial_cmp(&v2).unwrap())
                            })
                            .collect();
                        let user_only: Vec<f64> = sample
                            .iter()
                            .copied()
                            .filter(|x| op2.apply_ord(x.partial_cmp(&v2).unwrap()))
                            .collect();
                        match verdict {
                            Verdict::Nr => {
                                assert!(
                                    both.is_empty(),
                                    "NR but {op1} {v1} ∧ {op2} {v2} is satisfiable on the sample"
                                );
                            }
                            Verdict::Compatible => {
                                assert_eq!(
                                    both.len(),
                                    user_only.len(),
                                    "Compatible but policy {op1} {v1} drops user {op2} {v2} tuples"
                                );
                            }
                            Verdict::Pr => {
                                // PR claims: satisfiable on the real line, but the user
                                // loses something. The finite sample may not witness
                                // satisfiability, but it must never show the user set
                                // fully preserved AND non-empty intersection missing.
                                if !user_only.is_empty() {
                                    assert!(both.len() <= user_only.len());
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}
