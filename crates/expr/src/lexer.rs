//! Tokenizer for the textual filter-condition syntax.
//!
//! The surface syntax is what appears inside the
//! `exacml:obligation:stream-filter-condition-id` attribute assignment of a
//! policy (Figure 2 of the paper) and inside `<FilterCondition>` of a user
//! query (Figure 4a), e.g. `rainrate > 5 AND NOT (station = 'S11')`.

use crate::error::ExprError;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Token {
    /// An attribute name, e.g. `rainrate`.
    Ident(String),
    /// A numeric literal.
    Number(f64),
    /// A quoted string literal (single or double quotes).
    Text(String),
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `=` (also accepts `==`)
    Eq,
    /// `!=` (also accepts `<>`)
    Ne,
    /// `AND` keyword (case-insensitive), also `&&`.
    And,
    /// `OR` keyword (case-insensitive), also `||`.
    Or,
    /// `NOT` keyword (case-insensitive), also `!`.
    Not,
    /// `TRUE` keyword.
    True,
    /// `FALSE` keyword.
    False,
    /// `(`
    LParen,
    /// `)`
    RParen,
}

/// A token together with the byte offset where it started, for error messages.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Spanned {
    /// The token itself.
    pub token: Token,
    /// Byte offset in the source string.
    pub position: usize,
}

/// Tokenize a condition string.
///
/// # Errors
/// Returns an error on unknown characters, unterminated strings or malformed
/// numbers.
pub(crate) fn tokenize(input: &str) -> Result<Vec<Spanned>, ExprError> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;

    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' => {
                tokens.push(Spanned { token: Token::LParen, position: i });
                i += 1;
            }
            ')' => {
                tokens.push(Spanned { token: Token::RParen, position: i });
                i += 1;
            }
            '<' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    tokens.push(Spanned { token: Token::Le, position: i });
                    i += 2;
                } else if i + 1 < bytes.len() && bytes[i + 1] == b'>' {
                    tokens.push(Spanned { token: Token::Ne, position: i });
                    i += 2;
                } else {
                    tokens.push(Spanned { token: Token::Lt, position: i });
                    i += 1;
                }
            }
            '>' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    tokens.push(Spanned { token: Token::Ge, position: i });
                    i += 2;
                } else {
                    tokens.push(Spanned { token: Token::Gt, position: i });
                    i += 1;
                }
            }
            '=' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    tokens.push(Spanned { token: Token::Eq, position: i });
                    i += 2;
                } else {
                    tokens.push(Spanned { token: Token::Eq, position: i });
                    i += 1;
                }
            }
            '!' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    tokens.push(Spanned { token: Token::Ne, position: i });
                    i += 2;
                } else {
                    tokens.push(Spanned { token: Token::Not, position: i });
                    i += 1;
                }
            }
            '&' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'&' {
                    tokens.push(Spanned { token: Token::And, position: i });
                    i += 2;
                } else {
                    return Err(ExprError::UnexpectedChar { ch: '&', position: i });
                }
            }
            '|' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'|' {
                    tokens.push(Spanned { token: Token::Or, position: i });
                    i += 2;
                } else {
                    return Err(ExprError::UnexpectedChar { ch: '|', position: i });
                }
            }
            '\'' | '"' => {
                let quote = bytes[i];
                let start = i;
                i += 1;
                let mut buf = String::new();
                loop {
                    if i >= bytes.len() {
                        return Err(ExprError::UnterminatedString { position: start });
                    }
                    if bytes[i] == quote {
                        i += 1;
                        break;
                    }
                    buf.push(bytes[i] as char);
                    i += 1;
                }
                tokens.push(Spanned { token: Token::Text(buf), position: start });
            }
            c if c.is_ascii_digit()
                || (c == '-' && i + 1 < bytes.len() && (bytes[i + 1] as char).is_ascii_digit()) =>
            {
                let start = i;
                i += 1; // consume digit or leading minus
                while i < bytes.len() {
                    let c = bytes[i] as char;
                    let exponent_sign =
                        (c == '-' || c == '+') && (bytes[i - 1] == b'e' || bytes[i - 1] == b'E');
                    if c.is_ascii_digit() || c == '.' || c == 'e' || c == 'E' || exponent_sign {
                        i += 1;
                    } else {
                        break;
                    }
                }
                let text = &input[start..i];
                let value: f64 = text.parse().map_err(|_| ExprError::BadNumber {
                    text: text.to_string(),
                    position: start,
                })?;
                tokens.push(Spanned { token: Token::Number(value), position: start });
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() {
                    let c = bytes[i] as char;
                    if c.is_ascii_alphanumeric() || c == '_' || c == '.' {
                        i += 1;
                    } else {
                        break;
                    }
                }
                let word = &input[start..i];
                let token = match word.to_ascii_uppercase().as_str() {
                    "AND" => Token::And,
                    "OR" => Token::Or,
                    "NOT" => Token::Not,
                    "TRUE" => Token::True,
                    "FALSE" => Token::False,
                    _ => Token::Ident(word.to_string()),
                };
                tokens.push(Spanned { token, position: start });
            }
            other => return Err(ExprError::UnexpectedChar { ch: other, position: i }),
        }
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(input: &str) -> Vec<Token> {
        tokenize(input).unwrap().into_iter().map(|s| s.token).collect()
    }

    #[test]
    fn tokenizes_simple_condition() {
        assert_eq!(
            toks("rainrate > 5"),
            vec![Token::Ident("rainrate".into()), Token::Gt, Token::Number(5.0)]
        );
    }

    #[test]
    fn tokenizes_all_operators() {
        assert_eq!(
            toks("a < 1 b > 2 c <= 3 d >= 4 e = 5 f != 6 g <> 7 h == 8"),
            vec![
                Token::Ident("a".into()),
                Token::Lt,
                Token::Number(1.0),
                Token::Ident("b".into()),
                Token::Gt,
                Token::Number(2.0),
                Token::Ident("c".into()),
                Token::Le,
                Token::Number(3.0),
                Token::Ident("d".into()),
                Token::Ge,
                Token::Number(4.0),
                Token::Ident("e".into()),
                Token::Eq,
                Token::Number(5.0),
                Token::Ident("f".into()),
                Token::Ne,
                Token::Number(6.0),
                Token::Ident("g".into()),
                Token::Ne,
                Token::Number(7.0),
                Token::Ident("h".into()),
                Token::Eq,
                Token::Number(8.0),
            ]
        );
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert_eq!(
            toks("and AND And or OR not NOT"),
            vec![Token::And, Token::And, Token::And, Token::Or, Token::Or, Token::Not, Token::Not]
        );
    }

    #[test]
    fn symbolic_connectives() {
        assert_eq!(
            toks("a > 1 && b < 2 || ! c = 3"),
            vec![
                Token::Ident("a".into()),
                Token::Gt,
                Token::Number(1.0),
                Token::And,
                Token::Ident("b".into()),
                Token::Lt,
                Token::Number(2.0),
                Token::Or,
                Token::Not,
                Token::Ident("c".into()),
                Token::Eq,
                Token::Number(3.0),
            ]
        );
    }

    #[test]
    fn string_literals_single_and_double() {
        assert_eq!(
            toks("station = 'S11' OR station = \"S12\""),
            vec![
                Token::Ident("station".into()),
                Token::Eq,
                Token::Text("S11".into()),
                Token::Or,
                Token::Ident("station".into()),
                Token::Eq,
                Token::Text("S12".into()),
            ]
        );
    }

    #[test]
    fn negative_and_scientific_numbers() {
        assert_eq!(
            toks("a > -3.5 AND b < 1.2e3"),
            vec![
                Token::Ident("a".into()),
                Token::Gt,
                Token::Number(-3.5),
                Token::And,
                Token::Ident("b".into()),
                Token::Lt,
                Token::Number(1200.0),
            ]
        );
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(matches!(tokenize("a = 'oops"), Err(ExprError::UnterminatedString { .. })));
    }

    #[test]
    fn unexpected_char_errors() {
        assert!(matches!(tokenize("a # 3"), Err(ExprError::UnexpectedChar { ch: '#', .. })));
        assert!(matches!(tokenize("a & b"), Err(ExprError::UnexpectedChar { ch: '&', .. })));
    }

    #[test]
    fn positions_are_recorded() {
        let spanned = tokenize("ab >= 10").unwrap();
        assert_eq!(spanned[0].position, 0);
        assert_eq!(spanned[1].position, 3);
        assert_eq!(spanned[2].position, 6);
    }

    #[test]
    fn identifiers_may_contain_dots_and_underscores() {
        assert_eq!(
            toks("weather.rain_rate > 0"),
            vec![Token::Ident("weather.rain_rate".into()), Token::Gt, Token::Number(0.0)]
        );
    }
}
