//! Parser for filter conditions.
//!
//! Grammar (standard precedence: `NOT` binds tighter than `AND`, which binds
//! tighter than `OR`):
//!
//! ```text
//! expr      := or_expr
//! or_expr   := and_expr ( OR and_expr )*
//! and_expr  := not_expr ( AND not_expr )*
//! not_expr  := NOT not_expr | primary
//! primary   := '(' expr ')' | TRUE | FALSE | simple
//! simple    := IDENT op literal | literal op IDENT      (the latter is flipped)
//! op        := '<' | '>' | '<=' | '>=' | '=' | '!='
//! literal   := NUMBER | STRING
//! ```
//!
//! The grammar nests, but the parser does not recurse: operators wait on an
//! explicit stack, so the stack a parse needs does not grow with the input.

use crate::ast::{CmpOp, Expr, Scalar, SimpleExpr};
use crate::error::ExprError;
use crate::lexer::{tokenize, Spanned, Token};

/// The deepest nesting any parser of untrusted text accepts: `NOT`s and
/// parentheses here, elements in the XACML XML parser. What a parse builds
/// is walked recursively afterwards (evaluation, normalisation, writing,
/// drop), so the bound keeps a hostile input from overflowing the stack
/// there; it is the value the vendored `serde_json` refuses past.
pub const MAX_DEPTH: usize = 128;

/// Parse a condition string into an [`Expr`].
///
/// # Errors
/// Returns [`ExprError`] on lexical or syntactic problems, on nesting
/// deeper than [`MAX_DEPTH`], and on ill-typed simple expressions (ordering
/// operators on strings).
pub fn parse_expr(input: &str) -> Result<Expr, ExprError> {
    let tokens = tokenize(input)?;
    if tokens.is_empty() {
        return Err(ExprError::EmptyExpression);
    }
    let expr = Parser { tokens, pos: 0 }.parse()?;
    if !expr.is_well_formed() {
        // Locate the first offending leaf for the error message.
        let mut bad: Option<SimpleExpr> = None;
        expr.visit_simple(&mut |s| {
            if bad.is_none() && !s.is_well_formed() {
                bad = Some(s.clone());
            }
        });
        let s = bad.expect("ill-formed expr must contain an ill-formed leaf");
        return Err(ExprError::InvalidStringComparison { attribute: s.attr, op: s.op.to_string() });
    }
    Ok(expr)
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
}

/// An operator still waiting for its right operand, innermost last.
enum Pending {
    Or,
    And,
    Not,
    Open,
}

/// Fold waiting binary operators into `right`, innermost first: every `AND`,
/// and every `OR` too unless `and_only` (an `AND` binds tighter). Stops at
/// the first `NOT` or `(`.
fn fold(
    pending: &mut Vec<Pending>,
    operands: &mut Vec<Expr>,
    mut right: Expr,
    and_only: bool,
) -> Expr {
    loop {
        let combine: fn(Box<Expr>, Box<Expr>) -> Expr = match pending.last() {
            Some(Pending::And) => Expr::And,
            Some(Pending::Or) if !and_only => Expr::Or,
            _ => return right,
        };
        pending.pop();
        let left = operands.pop().expect("a binary operator waits beside its left operand");
        right = combine(Box::new(left), Box::new(right));
    }
}

impl Parser {
    fn advance(&mut self) -> Option<Spanned> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// The whole token list as one expression. Waiting operators live on
    /// an explicit stack rather than one call frame per nesting level, so a
    /// hostile input costs heap, not stack; the `NOT`s and `(`s waiting at
    /// once (the nesting depth) may not pass [`MAX_DEPTH`].
    fn parse(&mut self) -> Result<Expr, ExprError> {
        let mut pending: Vec<Pending> = Vec::new();
        let mut operands: Vec<Expr> = Vec::new();
        let mut depth = 0;
        loop {
            // An operand: `NOT`s and `(`s, then a constant or comparison.
            let mut operand = loop {
                let spanned = self
                    .advance()
                    .ok_or_else(|| ExprError::UnexpectedEof { expected: "expression".into() })?;
                let nesting = match spanned.token {
                    Token::Not => Pending::Not,
                    Token::LParen => Pending::Open,
                    _ => break self.parse_atom(spanned)?,
                };
                if depth == MAX_DEPTH {
                    return Err(ExprError::TooDeep { max: MAX_DEPTH, position: spanned.position });
                }
                depth += 1;
                pending.push(nesting);
            };
            // What follows it: `NOT`s it completes, `)`s, then `AND`, `OR`
            // or the end of input.
            loop {
                while matches!(pending.last(), Some(Pending::Not)) {
                    pending.pop();
                    depth -= 1;
                    operand = Expr::Not(Box::new(operand));
                }
                // Every `NOT` still waiting now waits above a `(`.
                let inside_parens = depth > 0;
                match self.advance() {
                    Some(Spanned { token: Token::And, .. }) => {
                        let left = fold(&mut pending, &mut operands, operand, true);
                        operands.push(left);
                        pending.push(Pending::And);
                        break;
                    }
                    Some(Spanned { token: Token::Or, .. }) => {
                        let left = fold(&mut pending, &mut operands, operand, false);
                        operands.push(left);
                        pending.push(Pending::Or);
                        break;
                    }
                    Some(Spanned { token: Token::RParen, .. }) if inside_parens => {
                        operand = fold(&mut pending, &mut operands, operand, false);
                        pending.pop();
                        depth -= 1;
                    }
                    None if !inside_parens => {
                        return Ok(fold(&mut pending, &mut operands, operand, false));
                    }
                    None => return Err(ExprError::UnexpectedEof { expected: "')'".into() }),
                    Some(t) => {
                        return Err(ExprError::UnexpectedToken {
                            expected: if inside_parens { "')'" } else { "end of input" }.into(),
                            found: format!("{:?}", t.token),
                            position: t.position,
                        })
                    }
                }
            }
        }
    }

    /// A constant or a comparison, starting at `spanned`.
    fn parse_atom(&mut self, spanned: Spanned) -> Result<Expr, ExprError> {
        match spanned.token {
            Token::True => Ok(Expr::True),
            Token::False => Ok(Expr::False),
            Token::Ident(attr) => {
                let op = self.parse_op()?;
                let value = self.parse_literal()?;
                Ok(Expr::Simple(SimpleExpr::new(attr, op, value)))
            }
            // Allow the flipped form `5 < rainrate`, normalising to `rainrate > 5`.
            Token::Number(n) => {
                let op = self.parse_op()?;
                let attr = self.parse_ident()?;
                Ok(Expr::Simple(SimpleExpr::new(attr, flip(op), Scalar::Number(n))))
            }
            Token::Text(s) => {
                let op = self.parse_op()?;
                let attr = self.parse_ident()?;
                Ok(Expr::Simple(SimpleExpr::new(attr, flip(op), Scalar::Text(s))))
            }
            other => Err(ExprError::UnexpectedToken {
                expected: "attribute, literal, '(' , TRUE or FALSE".into(),
                found: format!("{other:?}"),
                position: spanned.position,
            }),
        }
    }

    fn parse_op(&mut self) -> Result<CmpOp, ExprError> {
        let spanned = self
            .advance()
            .ok_or_else(|| ExprError::UnexpectedEof { expected: "comparison operator".into() })?;
        match spanned.token {
            Token::Lt => Ok(CmpOp::Lt),
            Token::Gt => Ok(CmpOp::Gt),
            Token::Le => Ok(CmpOp::Le),
            Token::Ge => Ok(CmpOp::Ge),
            Token::Eq => Ok(CmpOp::Eq),
            Token::Ne => Ok(CmpOp::Ne),
            other => Err(ExprError::UnexpectedToken {
                expected: "comparison operator".into(),
                found: format!("{other:?}"),
                position: spanned.position,
            }),
        }
    }

    fn parse_literal(&mut self) -> Result<Scalar, ExprError> {
        let spanned = self
            .advance()
            .ok_or_else(|| ExprError::UnexpectedEof { expected: "literal".into() })?;
        match spanned.token {
            Token::Number(n) => Ok(Scalar::Number(n)),
            Token::Text(s) => Ok(Scalar::Text(s)),
            other => Err(ExprError::UnexpectedToken {
                expected: "numeric or string literal".into(),
                found: format!("{other:?}"),
                position: spanned.position,
            }),
        }
    }

    fn parse_ident(&mut self) -> Result<String, ExprError> {
        let spanned = self
            .advance()
            .ok_or_else(|| ExprError::UnexpectedEof { expected: "attribute name".into() })?;
        match spanned.token {
            Token::Ident(name) => Ok(name),
            other => Err(ExprError::UnexpectedToken {
                expected: "attribute name".into(),
                found: format!("{other:?}"),
                position: spanned.position,
            }),
        }
    }
}

/// Flip a comparison when the literal was written on the left-hand side
/// (`5 < x` becomes `x > 5`).
fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Ge => CmpOp::Le,
        CmpOp::Eq => CmpOp::Eq,
        CmpOp::Ne => CmpOp::Ne,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{CmpOp, Expr};

    #[test]
    fn parses_paper_example_condition() {
        let e = parse_expr("rainrate > 5").unwrap();
        assert_eq!(e, Expr::simple("rainrate", CmpOp::Gt, 5.0));
    }

    #[test]
    fn parses_example4_conditions() {
        // C1 = (a>20 AND a<30) OR NOT(a != 40)
        let c1 = parse_expr("(a > 20 AND a < 30) OR NOT (a != 40)").unwrap();
        assert_eq!(c1.leaf_count(), 3);
        // C2 = NOT(a>=10) AND b=20
        let c2 = parse_expr("NOT (a >= 10) AND b = 20").unwrap();
        assert_eq!(c2.leaf_count(), 2);
    }

    #[test]
    fn respects_precedence_not_over_and_over_or() {
        // a > 1 OR b > 2 AND c > 3  ==  a > 1 OR (b > 2 AND c > 3)
        let e = parse_expr("a > 1 OR b > 2 AND c > 3").unwrap();
        match e {
            Expr::Or(left, right) => {
                assert_eq!(*left, Expr::simple("a", CmpOp::Gt, 1.0));
                assert!(matches!(*right, Expr::And(_, _)));
            }
            other => panic!("expected OR at the root, got {other:?}"),
        }
        // NOT a = 1 AND b = 2  ==  (NOT a = 1) AND b = 2
        let e = parse_expr("NOT a = 1 AND b = 2").unwrap();
        assert!(matches!(e, Expr::And(_, _)));
    }

    #[test]
    fn binary_operators_associate_to_the_left() {
        let (a, b, c) = (
            Expr::simple("a", CmpOp::Gt, 1.0),
            Expr::simple("b", CmpOp::Gt, 2.0),
            Expr::simple("c", CmpOp::Gt, 3.0),
        );
        let pair = |op: fn(Box<Expr>, Box<Expr>) -> Expr, x: &Expr, y: &Expr| {
            op(Box::new(x.clone()), Box::new(y.clone()))
        };
        let and_ab = pair(Expr::And, &a, &b);
        assert_eq!(parse_expr("a > 1 AND b > 2 AND c > 3").unwrap(), pair(Expr::And, &and_ab, &c));
        let or_ab = pair(Expr::Or, &a, &b);
        assert_eq!(parse_expr("a > 1 OR b > 2 OR c > 3").unwrap(), pair(Expr::Or, &or_ab, &c));
        assert_eq!(parse_expr("a > 1 AND b > 2 OR c > 3").unwrap(), pair(Expr::Or, &and_ab, &c));
        let not_or_bc = Expr::Not(Box::new(pair(Expr::Or, &b, &c)));
        assert_eq!(
            parse_expr("a > 1 AND NOT (b > 2 OR c > 3)").unwrap(),
            pair(Expr::And, &a, &not_or_bc)
        );
    }

    #[test]
    fn parses_parentheses_and_nested_not() {
        let e = parse_expr("NOT (NOT (a > 1))").unwrap();
        assert_eq!(e.leaf_count(), 1);
        assert!(matches!(e, Expr::Not(_)));
    }

    #[test]
    fn parses_flipped_literal_first_form() {
        let e = parse_expr("5 < rainrate").unwrap();
        assert_eq!(e, Expr::simple("rainrate", CmpOp::Gt, 5.0));
        let e = parse_expr("10 >= a").unwrap();
        assert_eq!(e, Expr::simple("a", CmpOp::Le, 10.0));
        let e = parse_expr("'S11' = station").unwrap();
        assert_eq!(e, Expr::simple("station", CmpOp::Eq, "S11"));
    }

    #[test]
    fn parses_true_false_constants() {
        assert_eq!(parse_expr("TRUE").unwrap(), Expr::True);
        assert_eq!(parse_expr("false").unwrap(), Expr::False);
        assert_eq!(parse_expr("TRUE AND a > 1").unwrap().leaf_count(), 1);
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(matches!(parse_expr("a > 1 b < 2"), Err(ExprError::UnexpectedToken { .. })));
    }

    #[test]
    fn rejects_missing_operand() {
        assert!(matches!(parse_expr("a >"), Err(ExprError::UnexpectedEof { .. })));
        assert!(matches!(parse_expr("a > 1 AND"), Err(ExprError::UnexpectedEof { .. })));
    }

    #[test]
    fn rejects_empty_input() {
        assert!(matches!(parse_expr(""), Err(ExprError::EmptyExpression)));
        assert!(matches!(parse_expr("   "), Err(ExprError::EmptyExpression)));
    }

    #[test]
    fn rejects_ordering_on_strings() {
        assert!(matches!(
            parse_expr("station < 'S11'"),
            Err(ExprError::InvalidStringComparison { .. })
        ));
        // Equality on strings is fine.
        assert!(parse_expr("station = 'S11'").is_ok());
    }

    #[test]
    fn rejects_unbalanced_parentheses() {
        assert!(parse_expr("(a > 1").is_err());
        assert!(parse_expr("a > 1)").is_err());
    }

    #[test]
    fn display_parse_round_trip() {
        let source = "(a > 20) AND ((b < 30) OR (c = 40))";
        let e = parse_expr(source).unwrap();
        let printed = e.to_string();
        let reparsed = parse_expr(&printed).unwrap();
        assert_eq!(e, reparsed);
    }
}
