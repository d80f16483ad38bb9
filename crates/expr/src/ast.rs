//! Abstract syntax for filter conditions.
//!
//! The paper's Section 3.5 defines two kinds of expressions:
//!
//! * a **simple expression** `x op v` where `x` is a stream attribute,
//!   `op ∈ {<, >, ≤, ≥, =, ≠}` and `v` is a number, or a string (strings only
//!   with `=` / `≠`);
//! * a **complex expression** formed by connecting simple expressions with
//!   `NOT`, `AND` and `OR`.
//!
//! [`Expr`] models complex expressions, [`SimpleExpr`] the leaves.

use std::fmt;

/// A comparison operator of a simple expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `=`
    Eq,
    /// `!=`
    Ne,
}

impl CmpOp {
    /// The negated operator, per Table 2 of the paper
    /// (`NOT (x > v)` ≡ `x <= v`, etc.).
    #[must_use]
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Ge => CmpOp::Lt,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
        }
    }

    /// Whether this operator may be applied to string values.
    /// The paper restricts strings to equality and inequality.
    #[must_use]
    pub fn valid_for_strings(self) -> bool {
        matches!(self, CmpOp::Eq | CmpOp::Ne)
    }

    /// All six operators, useful for exhaustive testing of the
    /// `checkTwoSimpleExpression` matrix.
    #[must_use]
    pub fn all() -> [CmpOp; 6] {
        [CmpOp::Lt, CmpOp::Gt, CmpOp::Le, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne]
    }

    /// Apply the comparison to two ordered values.
    #[must_use]
    pub fn apply_ord(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::{Equal, Greater, Less};
        match self {
            CmpOp::Lt => ord == Less,
            CmpOp::Gt => ord == Greater,
            CmpOp::Le => ord != Greater,
            CmpOp::Ge => ord != Less,
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Lt => "<",
            CmpOp::Gt => ">",
            CmpOp::Le => "<=",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
        };
        f.write_str(s)
    }
}

/// The constant side of a simple expression: a number or a string.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar {
    /// A numeric constant. All numerics are carried as `f64`, matching the
    /// DSMS `double` columns the paper's weather example uses.
    Number(f64),
    /// A string constant (quoted in the surface syntax).
    Text(String),
}

impl Scalar {
    /// Total ordering between scalars of the same kind.
    /// Returns `None` when the kinds differ or a number is NaN.
    #[must_use]
    pub fn partial_cmp_same_kind(&self, other: &Scalar) -> Option<std::cmp::Ordering> {
        match (self, other) {
            (Scalar::Number(a), Scalar::Number(b)) => a.partial_cmp(b),
            (Scalar::Text(a), Scalar::Text(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scalar::Number(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Scalar::Text(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<f64> for Scalar {
    fn from(v: f64) -> Self {
        Scalar::Number(v)
    }
}

impl From<i64> for Scalar {
    fn from(v: i64) -> Self {
        Scalar::Number(v as f64)
    }
}

impl From<&str> for Scalar {
    fn from(v: &str) -> Self {
        Scalar::Text(v.to_string())
    }
}

impl From<String> for Scalar {
    fn from(v: String) -> Self {
        Scalar::Text(v)
    }
}

/// Where a simple expression came from. The PR/NR analysis is asymmetric:
/// a *policy* predicate narrowing a *user* predicate is a partial-result
/// situation, while the reverse is perfectly fine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Origin {
    /// Derived from a policy obligation.
    Policy,
    /// Supplied by the user's customised query.
    User,
    /// Origin unknown or irrelevant (e.g. stand-alone parsing).
    #[default]
    Unspecified,
}

/// A simple expression `attr op value`, optionally tagged with its origin.
#[derive(Debug, Clone, PartialEq)]
pub struct SimpleExpr {
    /// Attribute name (a column of the stream schema).
    pub attr: String,
    /// Comparison operator.
    pub op: CmpOp,
    /// Constant operand.
    pub value: Scalar,
    /// Provenance of the predicate (policy vs user query).
    pub origin: Origin,
}

impl SimpleExpr {
    /// Create a new simple expression with [`Origin::Unspecified`].
    pub fn new(attr: impl Into<String>, op: CmpOp, value: impl Into<Scalar>) -> Self {
        SimpleExpr { attr: attr.into(), op, value: value.into(), origin: Origin::Unspecified }
    }

    /// Create a new simple expression with an explicit origin.
    pub fn with_origin(
        attr: impl Into<String>,
        op: CmpOp,
        value: impl Into<Scalar>,
        origin: Origin,
    ) -> Self {
        SimpleExpr { attr: attr.into(), op, value: value.into(), origin }
    }

    /// Return a copy with the origin replaced.
    #[must_use]
    pub fn tagged(mut self, origin: Origin) -> Self {
        self.origin = origin;
        self
    }

    /// The negation of this simple expression, using Table 2 rules.
    #[must_use]
    pub fn negate(&self) -> SimpleExpr {
        SimpleExpr {
            attr: self.attr.clone(),
            op: self.op.negate(),
            value: self.value.clone(),
            origin: self.origin,
        }
    }

    /// Whether the expression is well formed: ordering operators are only
    /// applied to numbers.
    #[must_use]
    pub fn is_well_formed(&self) -> bool {
        match self.value {
            Scalar::Number(_) => true,
            Scalar::Text(_) => self.op.valid_for_strings(),
        }
    }
}

impl fmt::Display for SimpleExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.attr, self.op, self.value)
    }
}

/// A complex expression: the boolean combination of simple expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Constant true (the neutral element for AND; an absent filter).
    True,
    /// Constant false.
    False,
    /// A leaf simple expression.
    Simple(SimpleExpr),
    /// Logical negation.
    Not(Box<Expr>),
    /// Logical conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Logical disjunction.
    Or(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Leaf constructor.
    pub fn simple(attr: impl Into<String>, op: CmpOp, value: impl Into<Scalar>) -> Expr {
        Expr::Simple(SimpleExpr::new(attr, op, value))
    }

    /// `self AND other`, with trivial constant folding.
    #[must_use]
    pub fn and(self, other: Expr) -> Expr {
        match (self, other) {
            (Expr::True, e) | (e, Expr::True) => e,
            (Expr::False, _) | (_, Expr::False) => Expr::False,
            (a, b) => Expr::And(Box::new(a), Box::new(b)),
        }
    }

    /// `self OR other`, with trivial constant folding.
    #[must_use]
    pub fn or(self, other: Expr) -> Expr {
        match (self, other) {
            (Expr::False, e) | (e, Expr::False) => e,
            (Expr::True, _) | (_, Expr::True) => Expr::True,
            (a, b) => Expr::Or(Box::new(a), Box::new(b)),
        }
    }

    /// `NOT self`, with trivial constant folding.
    ///
    /// Named after the paper's connective; the `std::ops::Not` trait is not
    /// implemented because this is a by-value builder, not an operator.
    #[allow(clippy::should_implement_trait)]
    #[must_use]
    pub fn not(self) -> Expr {
        match self {
            Expr::True => Expr::False,
            Expr::False => Expr::True,
            Expr::Not(inner) => *inner,
            e => Expr::Not(Box::new(e)),
        }
    }

    /// Tag every simple expression in the tree with `origin`.
    #[must_use]
    pub fn with_origin(self, origin: Origin) -> Expr {
        match self {
            Expr::Simple(s) => Expr::Simple(s.tagged(origin)),
            Expr::Not(e) => Expr::Not(Box::new(e.with_origin(origin))),
            Expr::And(a, b) => {
                Expr::And(Box::new(a.with_origin(origin)), Box::new(b.with_origin(origin)))
            }
            Expr::Or(a, b) => {
                Expr::Or(Box::new(a.with_origin(origin)), Box::new(b.with_origin(origin)))
            }
            other => other,
        }
    }

    /// All attribute names referenced by the expression (duplicates removed,
    /// order of first appearance preserved).
    #[must_use]
    pub fn attributes(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        self.visit_simple(&mut |s| {
            if !out.iter().any(|a| a == &s.attr) {
                out.push(s.attr.clone());
            }
        });
        out
    }

    /// Number of simple-expression leaves.
    #[must_use]
    pub fn leaf_count(&self) -> usize {
        let mut n = 0usize;
        self.visit_simple(&mut |_| n += 1);
        n
    }

    /// Depth-first visit of every simple expression leaf.
    pub fn visit_simple(&self, f: &mut impl FnMut(&SimpleExpr)) {
        match self {
            Expr::Simple(s) => f(s),
            Expr::Not(e) => e.visit_simple(f),
            Expr::And(a, b) | Expr::Or(a, b) => {
                a.visit_simple(f);
                b.visit_simple(f);
            }
            Expr::True | Expr::False => {}
        }
    }

    /// Whether every leaf is well formed (see [`SimpleExpr::is_well_formed`]).
    #[must_use]
    pub fn is_well_formed(&self) -> bool {
        let mut ok = true;
        self.visit_simple(&mut |s| ok &= s.is_well_formed());
        ok
    }
}

impl From<SimpleExpr> for Expr {
    fn from(s: SimpleExpr) -> Self {
        Expr::Simple(s)
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::True => f.write_str("TRUE"),
            Expr::False => f.write_str("FALSE"),
            Expr::Simple(s) => write!(f, "{s}"),
            Expr::Not(e) => write!(f, "NOT ({e})"),
            Expr::And(a, b) => write!(f, "({a}) AND ({b})"),
            Expr::Or(a, b) => write!(f, "({a}) OR ({b})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_negation_rules() {
        // The exact Table 2 mapping from the paper.
        assert_eq!(CmpOp::Gt.negate(), CmpOp::Le);
        assert_eq!(CmpOp::Lt.negate(), CmpOp::Ge);
        assert_eq!(CmpOp::Ge.negate(), CmpOp::Lt);
        assert_eq!(CmpOp::Le.negate(), CmpOp::Gt);
        assert_eq!(CmpOp::Eq.negate(), CmpOp::Ne);
        assert_eq!(CmpOp::Ne.negate(), CmpOp::Eq);
    }

    #[test]
    fn negation_is_involutive() {
        for op in CmpOp::all() {
            assert_eq!(op.negate().negate(), op);
        }
    }

    #[test]
    fn string_ops_restricted() {
        assert!(CmpOp::Eq.valid_for_strings());
        assert!(CmpOp::Ne.valid_for_strings());
        assert!(!CmpOp::Lt.valid_for_strings());
        assert!(!CmpOp::Ge.valid_for_strings());
    }

    #[test]
    fn simple_expr_well_formedness() {
        assert!(SimpleExpr::new("a", CmpOp::Lt, 3.0).is_well_formed());
        assert!(SimpleExpr::new("a", CmpOp::Eq, "x").is_well_formed());
        assert!(!SimpleExpr::new("a", CmpOp::Lt, "x").is_well_formed());
    }

    #[test]
    fn constant_folding_in_builders() {
        let e = Expr::simple("a", CmpOp::Gt, 1.0);
        assert_eq!(e.clone().and(Expr::True), e);
        assert_eq!(e.clone().and(Expr::False), Expr::False);
        assert_eq!(e.clone().or(Expr::False), e);
        assert_eq!(e.clone().or(Expr::True), Expr::True);
        assert_eq!(Expr::True.not(), Expr::False);
        assert_eq!(e.clone().not().not(), e);
    }

    #[test]
    fn attributes_and_leaf_count() {
        let e = Expr::simple("a", CmpOp::Gt, 1.0)
            .and(Expr::simple("b", CmpOp::Lt, 2.0).or(Expr::simple("a", CmpOp::Eq, 3.0)));
        assert_eq!(e.attributes(), vec!["a".to_string(), "b".to_string()]);
        assert_eq!(e.leaf_count(), 3);
    }

    #[test]
    fn origin_tagging_reaches_all_leaves() {
        let e = Expr::simple("a", CmpOp::Gt, 1.0)
            .and(Expr::simple("b", CmpOp::Lt, 2.0))
            .with_origin(Origin::Policy);
        let mut seen = 0;
        e.visit_simple(&mut |s| {
            assert_eq!(s.origin, Origin::Policy);
            seen += 1;
        });
        assert_eq!(seen, 2);
    }

    #[test]
    fn display_round_trips_visually() {
        let e = Expr::simple("rainrate", CmpOp::Gt, 5.0);
        assert_eq!(e.to_string(), "rainrate > 5");
        let s = SimpleExpr::new("station", CmpOp::Eq, "S11");
        assert_eq!(s.to_string(), "station = 'S11'");
    }

    #[test]
    fn scalar_ordering() {
        use std::cmp::Ordering;
        assert_eq!(
            Scalar::Number(1.0).partial_cmp_same_kind(&Scalar::Number(2.0)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Scalar::Text("a".into()).partial_cmp_same_kind(&Scalar::Text("a".into())),
            Some(Ordering::Equal)
        );
        assert_eq!(Scalar::Number(1.0).partial_cmp_same_kind(&Scalar::Text("a".into())), None);
    }

    #[test]
    fn cmp_op_apply_ord() {
        use std::cmp::Ordering::*;
        assert!(CmpOp::Lt.apply_ord(Less));
        assert!(!CmpOp::Lt.apply_ord(Equal));
        assert!(CmpOp::Le.apply_ord(Equal));
        assert!(CmpOp::Ge.apply_ord(Greater));
        assert!(CmpOp::Ne.apply_ord(Less));
        assert!(CmpOp::Eq.apply_ord(Equal));
    }
}
