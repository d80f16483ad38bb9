//! # exacml-expr — predicate engine for stream access control
//!
//! This crate implements the boolean-expression machinery that the eXACML+
//! paper (Section 3.5) relies on for merging filter conditions and detecting
//! **empty-result (NR)** and **partial-result (PR)** conflicts between a
//! data-owner's policy and a user's customised continuous query.
//!
//! The building blocks are:
//!
//! * [`ast`] — *simple expressions* `x op v` (with `op ∈ {<,>,≤,≥,=,≠}`) and
//!   *complex expressions* built from `NOT`, `AND`, `OR`.
//! * [`lexer`] / [`parser`] — a small parser for the textual condition syntax
//!   used inside policy obligations and user queries
//!   (e.g. `rainrate > 5 AND (windspeed <= 30 OR NOT station = 'S11')`).
//! * [`normalize`] — NOT-elimination using De Morgan's laws and the paper's
//!   Table 2 operator-negation rules.
//! * [`postfix`] / [`dnf`] — the infix → postfix → disjunctive-normal-form
//!   pipeline described in Section 3.5 (Step 2).
//! * [`check`] — `checkTwoSimpleExpression` and the conjunct/DNF-level
//!   aggregation that produces `Ok` / `PR` / `NR` verdicts (Step 3, Figure 5).
//! * [`mod@simplify`] — conjunct-level interval tightening used when two filter
//!   operators are merged (Section 3.1).
//! * [`eval`] — evaluation of expressions against attribute bindings; used by
//!   the DSMS filter operator and by the property tests that prove the DNF
//!   conversion preserves truth tables.
//!
//! ```
//! use exacml_expr::prelude::*;
//!
//! let policy = parse_expr("rainrate > 8").unwrap();
//! let user = parse_expr("rainrate > 5").unwrap();
//! let report = analyze_merge(&policy, &user);
//! assert_eq!(report.verdict, Verdict::Pr); // some tuples the user wants are hidden
//! ```

pub mod ast;
pub mod check;
pub mod dnf;
pub mod error;
pub mod eval;
pub mod lexer;
pub mod normalize;
pub mod parser;
pub mod postfix;
pub mod simplify;

pub use ast::{CmpOp, Expr, Origin, Scalar, SimpleExpr};
pub use check::{analyze_merge, check_two_simple, ConflictReport, Verdict};
pub use dnf::{Conjunct, Dnf};
pub use error::ExprError;
pub use eval::{Bindings, MapBindings};
pub use parser::{parse_expr, MAX_DEPTH};
pub use simplify::simplify;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::ast::{CmpOp, Expr, Origin, Scalar, SimpleExpr};
    pub use crate::check::{analyze_merge, check_two_simple, ConflictReport, Verdict};
    pub use crate::dnf::{Conjunct, Dnf};
    pub use crate::error::ExprError;
    pub use crate::eval::{Bindings, MapBindings};
    pub use crate::parser::parse_expr;
    pub use crate::simplify::simplify;
}
