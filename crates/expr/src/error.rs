//! Error types for the predicate engine.

use std::fmt;

/// Errors produced while lexing, parsing or manipulating expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprError {
    /// The lexer hit a character it does not understand.
    UnexpectedChar { ch: char, position: usize },
    /// A string literal was opened but never closed.
    UnterminatedString { position: usize },
    /// A numeric literal could not be parsed.
    BadNumber { text: String, position: usize },
    /// The parser expected one kind of token and saw another.
    UnexpectedToken { expected: String, found: String, position: usize },
    /// Input ended while the parser still expected more tokens.
    UnexpectedEof { expected: String },
    /// A comparison between incompatible scalar kinds (e.g. `x < 'abc'` vs `x < 3`).
    TypeMismatch { attribute: String, detail: String },
    /// Ordering operators applied to string literals (the paper only allows
    /// `=` and `≠` for strings).
    InvalidStringComparison { attribute: String, op: String },
    /// The expression is empty where one was required.
    EmptyExpression,
    /// `NOT`s and parentheses nest deeper than `max` levels.
    TooDeep { max: usize, position: usize },
}

impl fmt::Display for ExprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExprError::UnexpectedChar { ch, position } => {
                write!(f, "unexpected character '{ch}' at offset {position}")
            }
            ExprError::UnterminatedString { position } => {
                write!(f, "unterminated string literal starting at offset {position}")
            }
            ExprError::BadNumber { text, position } => {
                write!(f, "invalid numeric literal '{text}' at offset {position}")
            }
            ExprError::UnexpectedToken { expected, found, position } => {
                write!(f, "expected {expected} but found {found} at offset {position}")
            }
            ExprError::UnexpectedEof { expected } => {
                write!(f, "unexpected end of input, expected {expected}")
            }
            ExprError::TypeMismatch { attribute, detail } => {
                write!(f, "type mismatch on attribute '{attribute}': {detail}")
            }
            ExprError::InvalidStringComparison { attribute, op } => {
                write!(
                    f,
                    "operator '{op}' cannot be applied to a string literal (attribute '{attribute}'); only = and != are allowed"
                )
            }
            ExprError::EmptyExpression => write!(f, "empty expression"),
            ExprError::TooDeep { max, position } => {
                write!(f, "nesting deeper than {max} levels at offset {position}")
            }
        }
    }
}

impl std::error::Error for ExprError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = ExprError::UnexpectedChar { ch: '#', position: 3 };
        assert!(e.to_string().contains('#'));
        let e = ExprError::UnexpectedEof { expected: "expression".into() };
        assert!(e.to_string().contains("end of input"));
        let e = ExprError::InvalidStringComparison { attribute: "a".into(), op: "<".into() };
        assert!(e.to_string().contains("only = and !="));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(ExprError::EmptyExpression, ExprError::EmptyExpression);
        assert_ne!(ExprError::EmptyExpression, ExprError::UnterminatedString { position: 0 });
    }
}
