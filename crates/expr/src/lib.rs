//! # exacml-expr — predicate engine for stream access control
//!
//! This crate implements the boolean-expression machinery that the eXACML+
//! paper (Section 3.5) relies on for merging filter conditions and detecting
//! **empty-result (NR)** and **partial-result (PR)** conflicts between a
//! data-owner's policy and a user's customised continuous query.
//!
//! The building blocks are:
//!
//! * [`SimpleExpr`] / [`Expr`] — *simple expressions* `x op v` (with
//!   `op ∈ {<,>,≤,≥,=,≠}`) and *complex expressions* built from `NOT`,
//!   `AND`, `OR`.
//! * [`parse_expr`] — a small lexer and parser for the textual condition
//!   syntax used inside policy obligations and user queries
//!   (e.g. `rainrate > 5 AND (windspeed <= 30 OR NOT station = 'S11')`).
//! * [`eliminate_not`] — NOT-elimination using De Morgan's laws and the
//!   paper's Table 2 operator-negation rules.
//! * [`Dnf`] — the infix → postfix → disjunctive-normal-form pipeline
//!   described in Section 3.5 (Step 2).
//! * [`check_two_simple`] / [`analyze_merge`] — `checkTwoSimpleExpression`
//!   and the conjunct/DNF-level aggregation that produces `Ok` / `PR` / `NR`
//!   verdicts (Step 3, Figure 5).
//! * [`simplify`] — conjunct-level interval tightening used when two filter
//!   operators are merged (Section 3.1).
//! * [`eval`] — evaluation of expressions against attribute bindings; used by
//!   the DSMS filter operator and by the property tests that prove the DNF
//!   conversion preserves truth tables.
//!
//! ```
//! use exacml_expr::{analyze_merge, parse_expr, Verdict};
//!
//! let policy = parse_expr("rainrate > 8").unwrap();
//! let user = parse_expr("rainrate > 5").unwrap();
//! let report = analyze_merge(&policy, &user);
//! assert_eq!(report.verdict, Verdict::Pr); // some tuples the user wants are hidden
//! ```

#![warn(unreachable_pub)]

mod ast;
mod check;
mod dnf;
mod error;
mod eval;
mod lexer;
mod normalize;
mod parser;
mod postfix;
mod simplify;

pub use ast::{CmpOp, Expr, Origin, Scalar, SimpleExpr};
pub use check::{analyze_merge, check_two_simple, ConflictReport, Verdict};
pub use dnf::{Conjunct, Dnf};
pub use error::ExprError;
pub use eval::{eval, Bindings, MapBindings};
pub use normalize::{eliminate_not, is_not_free};
pub use parser::{parse_expr, MAX_DEPTH};
pub use simplify::simplify;
