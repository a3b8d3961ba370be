//! Tokenizer for the behavioral language.

use std::fmt;

use crate::error::HdlError;

/// Kind of a lexical token.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TokenKind {
    /// Identifier (design names, variables).
    Ident(String),
    /// Unsigned integer literal.
    Int(i64),
    /// `design` keyword.
    Design,
    /// `input` keyword.
    Input,
    /// `output` keyword.
    Output,
    /// `var` keyword.
    Var,
    /// `if` keyword.
    If,
    /// `else` keyword.
    Else,
    /// `while` keyword.
    While,
    /// `for` keyword.
    For,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `;`
    Semicolon,
    /// `:`
    Colon,
    /// `,`
    Comma,
    /// `=`
    Assign,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `&`
    Amp,
    /// `|`
    Pipe,
    /// `^`
    Caret,
    /// `!`
    Bang,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "identifier `{s}`"),
            TokenKind::Int(v) => write!(f, "integer `{v}`"),
            TokenKind::Eof => write!(f, "end of input"),
            other => {
                let text = match other {
                    TokenKind::Design => "design",
                    TokenKind::Input => "input",
                    TokenKind::Output => "output",
                    TokenKind::Var => "var",
                    TokenKind::If => "if",
                    TokenKind::Else => "else",
                    TokenKind::While => "while",
                    TokenKind::For => "for",
                    TokenKind::LBrace => "{",
                    TokenKind::RBrace => "}",
                    TokenKind::LParen => "(",
                    TokenKind::RParen => ")",
                    TokenKind::Semicolon => ";",
                    TokenKind::Colon => ":",
                    TokenKind::Comma => ",",
                    TokenKind::Assign => "=",
                    TokenKind::Plus => "+",
                    TokenKind::Minus => "-",
                    TokenKind::Star => "*",
                    TokenKind::Slash => "/",
                    TokenKind::Percent => "%",
                    TokenKind::EqEq => "==",
                    TokenKind::NotEq => "!=",
                    TokenKind::Lt => "<",
                    TokenKind::Le => "<=",
                    TokenKind::Gt => ">",
                    TokenKind::Ge => ">=",
                    TokenKind::AndAnd => "&&",
                    TokenKind::OrOr => "||",
                    TokenKind::Amp => "&",
                    TokenKind::Pipe => "|",
                    TokenKind::Caret => "^",
                    TokenKind::Bang => "!",
                    TokenKind::Shl => "<<",
                    TokenKind::Shr => ">>",
                    _ => unreachable!(),
                };
                write!(f, "`{text}`")
            }
        }
    }
}

/// A token with its source position.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Token {
    /// What the token is.
    pub kind: TokenKind,
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub column: u32,
}

/// Streaming tokenizer over behavioral source text.
#[derive(Debug)]
pub struct Lexer<'src> {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    column: u32,
    _source: std::marker::PhantomData<&'src str>,
}

impl<'src> Lexer<'src> {
    /// Creates a lexer over `source`.
    pub fn new(source: &'src str) -> Self {
        Self {
            chars: source.chars().collect(),
            pos: 0,
            line: 1,
            column: 1,
            _source: std::marker::PhantomData,
        }
    }

    /// Tokenizes the whole input.
    ///
    /// # Errors
    ///
    /// Returns [`HdlError::Lex`] on the first unexpected character.
    pub fn tokenize(mut self) -> Result<Vec<Token>, HdlError> {
        let mut tokens = Vec::new();
        loop {
            let token = self.next_token()?;
            let done = token.kind == TokenKind::Eof;
            tokens.push(token);
            if done {
                return Ok(tokens);
            }
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<char> {
        self.chars.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.column = 1;
        } else {
            self.column += 1;
        }
        Some(c)
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_whitespace() => {
                    self.bump();
                }
                Some('/') if self.peek2() == Some('/') => {
                    while let Some(c) = self.peek() {
                        if c == '\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => return,
            }
        }
    }

    fn next_token(&mut self) -> Result<Token, HdlError> {
        self.skip_trivia();
        let line = self.line;
        let column = self.column;
        let make = |kind| Token { kind, line, column };

        let Some(c) = self.peek() else {
            return Ok(make(TokenKind::Eof));
        };

        if c.is_ascii_digit() {
            let start = self.pos;
            let mut value = Some(0i64);
            while let Some(d) = self.peek().filter(char::is_ascii_digit) {
                let digit = i64::from(d as u8 - b'0');
                value = value.and_then(|v| v.checked_mul(10)?.checked_add(digit));
                self.bump();
            }
            return match value {
                Some(value) => Ok(make(TokenKind::Int(value))),
                None => Err(HdlError::Parse {
                    line,
                    column,
                    expected: format!("an integer literal of at most {}", i64::MAX),
                    found: format!(
                        "`{}`",
                        self.chars[start..self.pos].iter().collect::<String>()
                    ),
                }),
            };
        }

        if c.is_ascii_alphabetic() || c == '_' {
            let mut ident = String::new();
            while let Some(d) = self.peek() {
                if !(d.is_ascii_alphanumeric() || d == '_') {
                    break;
                }
                ident.push(d);
                self.bump();
            }
            let kind = match ident.as_str() {
                "design" => TokenKind::Design,
                "input" => TokenKind::Input,
                "output" => TokenKind::Output,
                "var" => TokenKind::Var,
                "if" => TokenKind::If,
                "else" => TokenKind::Else,
                "while" => TokenKind::While,
                "for" => TokenKind::For,
                _ => TokenKind::Ident(ident),
            };
            return Ok(make(kind));
        }

        self.bump();
        let two = |lexer: &mut Self, next: char, yes: TokenKind, no: TokenKind| {
            if lexer.peek() == Some(next) {
                lexer.bump();
                yes
            } else {
                no
            }
        };
        let kind = match c {
            '{' => TokenKind::LBrace,
            '}' => TokenKind::RBrace,
            '(' => TokenKind::LParen,
            ')' => TokenKind::RParen,
            ';' => TokenKind::Semicolon,
            ':' => TokenKind::Colon,
            ',' => TokenKind::Comma,
            '+' => TokenKind::Plus,
            '-' => TokenKind::Minus,
            '*' => TokenKind::Star,
            '/' => TokenKind::Slash,
            '%' => TokenKind::Percent,
            '^' => TokenKind::Caret,
            '=' => two(self, '=', TokenKind::EqEq, TokenKind::Assign),
            '!' => two(self, '=', TokenKind::NotEq, TokenKind::Bang),
            '<' => {
                if self.peek() == Some('<') {
                    self.bump();
                    TokenKind::Shl
                } else {
                    two(self, '=', TokenKind::Le, TokenKind::Lt)
                }
            }
            '>' => {
                if self.peek() == Some('>') {
                    self.bump();
                    TokenKind::Shr
                } else {
                    two(self, '=', TokenKind::Ge, TokenKind::Gt)
                }
            }
            '&' => two(self, '&', TokenKind::AndAnd, TokenKind::Amp),
            '|' => two(self, '|', TokenKind::OrOr, TokenKind::Pipe),
            other => {
                return Err(HdlError::Lex {
                    line,
                    column,
                    found: other,
                })
            }
        };
        Ok(make(kind))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        Lexer::new(src)
            .tokenize()
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn keywords_and_identifiers() {
        assert_eq!(
            kinds("design foo var iff"),
            vec![
                TokenKind::Design,
                TokenKind::Ident("foo".to_string()),
                TokenKind::Var,
                TokenKind::Ident("iff".to_string()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn integers_and_operators() {
        assert_eq!(
            kinds("x = 42 + 7;"),
            vec![
                TokenKind::Ident("x".to_string()),
                TokenKind::Assign,
                TokenKind::Int(42),
                TokenKind::Plus,
                TokenKind::Int(7),
                TokenKind::Semicolon,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn two_character_operators() {
        assert_eq!(
            kinds("== != <= >= && || << >> < >"),
            vec![
                TokenKind::EqEq,
                TokenKind::NotEq,
                TokenKind::Le,
                TokenKind::Ge,
                TokenKind::AndAnd,
                TokenKind::OrOr,
                TokenKind::Shl,
                TokenKind::Shr,
                TokenKind::Lt,
                TokenKind::Gt,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("a // whole line ignored\n b"),
            vec![
                TokenKind::Ident("a".to_string()),
                TokenKind::Ident("b".to_string()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn positions_are_tracked() {
        let tokens = Lexer::new("a\n  b").tokenize().unwrap();
        assert_eq!((tokens[0].line, tokens[0].column), (1, 1));
        assert_eq!((tokens[1].line, tokens[1].column), (2, 3));
    }

    #[test]
    fn unexpected_character_is_reported_with_position() {
        let err = Lexer::new("a @ b").tokenize().unwrap_err();
        match err {
            HdlError::Lex {
                line,
                column,
                found,
            } => {
                assert_eq!((line, column, found), (1, 3, '@'));
            }
            other => panic!("expected lex error, found {other:?}"),
        }
    }

    #[test]
    fn integer_literals_above_i64_max_are_an_error() {
        assert_eq!(
            kinds("9223372036854775807"),
            vec![TokenKind::Int(i64::MAX), TokenKind::Eof]
        );
        let err = Lexer::new("y = a + 99999999999999999999;")
            .tokenize()
            .unwrap_err();
        match err {
            HdlError::Parse {
                line,
                column,
                found,
                ..
            } => assert_eq!(
                (line, column, found.as_str()),
                (1, 9, "`99999999999999999999`")
            ),
            other => panic!("expected a literal error, found {other:?}"),
        }
        assert!(Lexer::new("9223372036854775808").tokenize().is_err());
    }

    #[test]
    fn token_kind_display_is_human_readable() {
        assert_eq!(TokenKind::Assign.to_string(), "`=`");
        assert_eq!(
            TokenKind::Ident("x".to_string()).to_string(),
            "identifier `x`"
        );
        assert_eq!(TokenKind::Int(3).to_string(), "integer `3`");
    }
}
