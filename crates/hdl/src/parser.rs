//! Recursive-descent parser for the behavioral language.
//!
//! Grammar (EBNF, whitespace and `//` comments ignored):
//!
//! ```text
//! design      := "design" IDENT "{" decl* stmt* "}"
//! decl        := ("input" | "output") port ("," port)* ";"
//!              | "var" IDENT ":" INT ("=" INT)? ";"
//! port        := IDENT ":" INT
//! stmt        := IDENT "=" expr ";"
//!              | "if" "(" expr ")" block ("else" (block | if-stmt))?
//!              | "while" "(" expr ")" block
//!              | "for" "(" assign ";" expr ";" assign ")" block
//! block       := "{" stmt* "}"
//! expr        := or-expr (binary operators with C-like precedence)
//! ```
//!
//! Nesting is bounded by [`MAX_NESTING`] so that hostile input is an error,
//! not a stack overflow, in the parser and in every recursive walk of the
//! tree after it (lowering, drop).

use crate::ast::{BinaryOp, Design, Expr, PortDecl, Stmt, UnaryOp, VarDecl};
use crate::error::HdlError;
use crate::lexer::{Lexer, Token, TokenKind};

/// Deepest nesting the parser accepts along any path of the syntax tree:
/// every compound statement, parenthesis, unary operator and binary
/// operator adds one level. The shipped benchmark designs stay far below it.
/// The deepest shape at the bound, nested `if` blocks, compiles within
/// 512 KiB of stack in a debug build.
const MAX_NESTING: usize = 64;

/// Parses behavioral source text into an AST.
///
/// # Errors
///
/// Returns [`HdlError::Lex`] or [`HdlError::Parse`] on malformed input,
/// including tokens after the design's closing brace and nesting deeper
/// than 64 levels.
pub fn parse(source: &str) -> Result<Design, HdlError> {
    let tokens = Lexer::new(source).tokenize()?;
    Parser {
        tokens,
        pos: 0,
        depth: 0,
    }
    .design()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Nesting levels open at the current position.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn bump(&mut self) -> Token {
        let t = self.peek().clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn error<T>(&self, expected: &str) -> Result<T, HdlError> {
        let t = self.peek();
        Err(HdlError::Parse {
            line: t.line,
            column: t.column,
            expected: expected.to_string(),
            found: t.kind.to_string(),
        })
    }

    fn expect(&mut self, kind: TokenKind, what: &str) -> Result<Token, HdlError> {
        if self.peek().kind == kind {
            Ok(self.bump())
        } else {
            self.error(what)
        }
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if &self.peek().kind == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    /// Opens one nesting level, failing beyond [`MAX_NESTING`]. Every
    /// recursive descent goes through here, which bounds the recursion.
    fn enter(&mut self) -> Result<(), HdlError> {
        self.depth += 1;
        self.within_bound(0).map(drop)
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    /// `height` if an expression node of that height fits below the open
    /// levels, so the finished tree is at most [`MAX_NESTING`] deep.
    fn within_bound(&self, height: usize) -> Result<usize, HdlError> {
        if self.depth + height <= MAX_NESTING {
            Ok(height)
        } else {
            self.error(&format!("at most {MAX_NESTING} levels of nesting"))
        }
    }

    fn ident(&mut self, what: &str) -> Result<String, HdlError> {
        match self.peek().kind.clone() {
            TokenKind::Ident(name) => {
                self.bump();
                Ok(name)
            }
            _ => self.error(what),
        }
    }

    fn integer(&mut self, what: &str) -> Result<i64, HdlError> {
        // Allow a leading minus for negative constants in initializers.
        let negative = self.eat(&TokenKind::Minus);
        match self.peek().kind {
            TokenKind::Int(v) => {
                self.bump();
                Ok(if negative { -v } else { v })
            }
            _ => self.error(what),
        }
    }

    fn design(&mut self) -> Result<Design, HdlError> {
        self.expect(TokenKind::Design, "`design`")?;
        let name = self.ident("design name")?;
        self.expect(TokenKind::LBrace, "`{`")?;

        let mut design = Design {
            name,
            inputs: Vec::new(),
            outputs: Vec::new(),
            variables: Vec::new(),
            body: Vec::new(),
        };

        loop {
            match self.peek().kind {
                TokenKind::Input => {
                    self.bump();
                    design.inputs.extend(self.port_list()?);
                }
                TokenKind::Output => {
                    self.bump();
                    design.outputs.extend(self.port_list()?);
                }
                TokenKind::Var => {
                    self.bump();
                    design.variables.push(self.var_decl()?);
                }
                _ => break,
            }
        }

        while self.peek().kind != TokenKind::RBrace {
            if self.peek().kind == TokenKind::Eof {
                return self.error("`}` closing the design");
            }
            design.body.push(self.statement()?);
        }
        self.expect(TokenKind::RBrace, "`}`")?;
        if self.peek().kind != TokenKind::Eof {
            return self.error("end of input after the design");
        }
        Ok(design)
    }

    fn port_list(&mut self) -> Result<Vec<PortDecl>, HdlError> {
        let mut ports = Vec::new();
        loop {
            let name = self.ident("port name")?;
            self.expect(TokenKind::Colon, "`:` before the port width")?;
            let width = self.integer("port width")?;
            ports.push(PortDecl {
                name,
                width: clamp_width(width),
            });
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(TokenKind::Semicolon, "`;` after the port list")?;
        Ok(ports)
    }

    fn var_decl(&mut self) -> Result<VarDecl, HdlError> {
        let name = self.ident("variable name")?;
        self.expect(TokenKind::Colon, "`:` before the variable width")?;
        let width = self.integer("variable width")?;
        let initial = if self.eat(&TokenKind::Assign) {
            Some(self.integer("initial value")?)
        } else {
            None
        };
        self.expect(TokenKind::Semicolon, "`;` after the variable declaration")?;
        Ok(VarDecl {
            name,
            width: clamp_width(width),
            initial,
        })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, HdlError> {
        self.expect(TokenKind::LBrace, "`{`")?;
        let mut body = Vec::new();
        while self.peek().kind != TokenKind::RBrace {
            if self.peek().kind == TokenKind::Eof {
                return self.error("`}` closing the block");
            }
            body.push(self.statement()?);
        }
        self.expect(TokenKind::RBrace, "`}`")?;
        Ok(body)
    }

    fn statement(&mut self) -> Result<Stmt, HdlError> {
        // Each compound statement is its own function, so a nesting level
        // costs only that statement's stack frame.
        let parse: fn(&mut Self) -> Result<Stmt, HdlError> = match self.peek().kind {
            TokenKind::Ident(_) => {
                let stmt = self.assignment()?;
                self.expect(TokenKind::Semicolon, "`;` after the assignment")?;
                return Ok(stmt);
            }
            TokenKind::If => Self::if_statement,
            TokenKind::While => Self::while_statement,
            TokenKind::For => Self::for_statement,
            _ => return self.error("a statement"),
        };
        self.bump();
        self.enter()?;
        let stmt = parse(self)?;
        self.leave();
        Ok(stmt)
    }

    fn if_statement(&mut self) -> Result<Stmt, HdlError> {
        self.expect(TokenKind::LParen, "`(`")?;
        let condition = self.expression()?;
        self.expect(TokenKind::RParen, "`)`")?;
        let then_body = self.block()?;
        let else_body = if !self.eat(&TokenKind::Else) {
            Vec::new()
        } else if self.peek().kind == TokenKind::If {
            vec![self.statement()?]
        } else {
            self.block()?
        };
        Ok(Stmt::If {
            condition,
            then_body,
            else_body,
        })
    }

    fn while_statement(&mut self) -> Result<Stmt, HdlError> {
        self.expect(TokenKind::LParen, "`(`")?;
        let condition = self.expression()?;
        self.expect(TokenKind::RParen, "`)`")?;
        let body = self.block()?;
        Ok(Stmt::While { condition, body })
    }

    fn for_statement(&mut self) -> Result<Stmt, HdlError> {
        self.expect(TokenKind::LParen, "`(`")?;
        let init = self.assignment()?;
        self.expect(TokenKind::Semicolon, "`;` after the for-initializer")?;
        let condition = self.expression()?;
        self.expect(TokenKind::Semicolon, "`;` after the for-condition")?;
        let update = self.assignment()?;
        self.expect(TokenKind::RParen, "`)`")?;
        let body = self.block()?;
        Ok(Stmt::For {
            init: Box::new(init),
            condition,
            update: Box::new(update),
            body,
        })
    }

    fn assignment(&mut self) -> Result<Stmt, HdlError> {
        let target = self.ident("assignment target")?;
        self.expect(TokenKind::Assign, "`=`")?;
        let value = self.expression()?;
        Ok(Stmt::Assign { target, value })
    }

    fn expression(&mut self) -> Result<Expr, HdlError> {
        Ok(self.binary(0)?.0)
    }

    /// Precedence climbing: a binary expression whose operators all bind at
    /// least as tightly as `min_prec`, with its height in operators.
    fn binary(&mut self, min_prec: u8) -> Result<(Expr, usize), HdlError> {
        let (mut lhs, mut height) = self.unary()?;
        while let Some((op, prec)) = binary_op(&self.peek().kind).filter(|&(_, p)| p >= min_prec) {
            self.bump();
            self.enter()?;
            let (rhs, rhs_height) = self.binary(prec + 1)?;
            self.leave();
            height = self.within_bound(1 + height.max(rhs_height))?;
            lhs = Expr::binary(op, lhs, rhs);
        }
        Ok((lhs, height))
    }

    fn unary(&mut self) -> Result<(Expr, usize), HdlError> {
        let op = match self.peek().kind {
            TokenKind::Minus => UnaryOp::Neg,
            TokenKind::Bang => UnaryOp::Not,
            _ => return self.primary(),
        };
        self.bump();
        self.enter()?;
        let (operand, height) = self.unary()?;
        self.leave();
        let operand = Box::new(operand);
        Ok((Expr::Unary { op, operand }, height + 1))
    }

    fn primary(&mut self) -> Result<(Expr, usize), HdlError> {
        match self.peek().kind.clone() {
            TokenKind::Int(v) => {
                self.bump();
                Ok((Expr::Literal(v), 0))
            }
            TokenKind::Ident(name) => {
                self.bump();
                Ok((Expr::Variable(name), 0))
            }
            TokenKind::LParen => {
                self.bump();
                self.enter()?;
                let inner = self.binary(0)?;
                self.expect(TokenKind::RParen, "`)`")?;
                self.leave();
                Ok(inner)
            }
            _ => self.error("an expression"),
        }
    }
}

/// The binary operator a token spells, with its precedence: higher binds
/// tighter, and every operator associates to the left (C-like).
fn binary_op(kind: &TokenKind) -> Option<(BinaryOp, u8)> {
    Some(match kind {
        TokenKind::OrOr => (BinaryOp::Or, 1),
        TokenKind::AndAnd => (BinaryOp::And, 2),
        TokenKind::Pipe => (BinaryOp::BitOr, 3),
        TokenKind::Caret => (BinaryOp::BitXor, 4),
        TokenKind::Amp => (BinaryOp::BitAnd, 5),
        TokenKind::EqEq => (BinaryOp::Eq, 6),
        TokenKind::NotEq => (BinaryOp::Ne, 6),
        TokenKind::Lt => (BinaryOp::Lt, 7),
        TokenKind::Le => (BinaryOp::Le, 7),
        TokenKind::Gt => (BinaryOp::Gt, 7),
        TokenKind::Ge => (BinaryOp::Ge, 7),
        TokenKind::Shl => (BinaryOp::Shl, 8),
        TokenKind::Shr => (BinaryOp::Shr, 8),
        TokenKind::Plus => (BinaryOp::Add, 9),
        TokenKind::Minus => (BinaryOp::Sub, 9),
        TokenKind::Star => (BinaryOp::Mul, 10),
        TokenKind::Slash => (BinaryOp::Div, 10),
        TokenKind::Percent => (BinaryOp::Rem, 10),
        _ => return None,
    })
}

fn clamp_width(width: i64) -> u8 {
    width.clamp(1, 64) as u8
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn parses_declarations_and_body() {
        let d = parse(
            "design demo {
                input a: 8, b: 4;
                output y: 8;
                var t: 8 = 3;
                y = a + b * t;
            }",
        )
        .unwrap();
        assert_eq!(d.name, "demo");
        assert_eq!(d.inputs.len(), 2);
        assert_eq!(d.inputs[1].width, 4);
        assert_eq!(d.outputs.len(), 1);
        assert_eq!(d.variables[0].initial, Some(3));
        assert_eq!(d.body.len(), 1);
    }

    #[test]
    fn precedence_mul_binds_tighter_than_add() {
        let d = parse("design p { input a: 8; var x: 8; x = a + 2 * 3; }").unwrap();
        match &d.body[0] {
            Stmt::Assign { value, .. } => match value {
                Expr::Binary {
                    op: BinaryOp::Add,
                    rhs,
                    ..
                } => {
                    assert!(matches!(
                        **rhs,
                        Expr::Binary {
                            op: BinaryOp::Mul,
                            ..
                        }
                    ));
                }
                other => panic!("expected addition at the top, found {other:?}"),
            },
            other => panic!("expected assignment, found {other:?}"),
        }
    }

    #[test]
    fn parses_if_else_chain() {
        let d = parse(
            "design p { input x: 8; var z: 8;
               if (x > 5) { z = 1; } else if (x > 2) { z = 2; } else { z = 3; }
             }",
        )
        .unwrap();
        match &d.body[0] {
            Stmt::If { else_body, .. } => {
                assert_eq!(else_body.len(), 1);
                assert!(matches!(else_body[0], Stmt::If { .. }));
            }
            other => panic!("expected if, found {other:?}"),
        }
    }

    #[test]
    fn parses_for_loops() {
        let d = parse(
            "design p { var i: 8; var s: 8 = 0;
               for (i = 0; i < 10; i = i + 1) { s = s + i; }
             }",
        )
        .unwrap();
        assert!(matches!(d.body[0], Stmt::For { .. }));
    }

    #[test]
    fn parses_while_loops_and_parentheses() {
        let d = parse(
            "design p { input a: 8, b: 8; var x: 8;
               while ((a + b) > x) { x = x + 1; }
             }",
        )
        .unwrap();
        assert!(matches!(d.body[0], Stmt::While { .. }));
    }

    #[test]
    fn negative_initializers_are_allowed() {
        let d = parse("design p { var x: 8 = -5; x = 0; }").unwrap();
        assert_eq!(d.variables[0].initial, Some(-5));
    }

    #[test]
    fn missing_semicolon_is_a_parse_error() {
        let err = parse("design p { var x: 8; x = 1 }").unwrap_err();
        match err {
            HdlError::Parse { expected, .. } => assert!(expected.contains(';')),
            other => panic!("expected parse error, found {other:?}"),
        }
    }

    #[test]
    fn unexpected_eof_is_reported() {
        assert!(parse("design p { input a: 8;").is_err());
    }

    #[test]
    fn width_is_clamped_to_valid_range() {
        let d = parse("design p { input a: 200; var x: 0; x = a; }").unwrap();
        assert_eq!(d.inputs[0].width, 64);
        assert_eq!(d.variables[0].width, 1);
    }

    #[test]
    fn tokens_after_the_design_are_rejected() {
        let err = parse("design d { output y: 8; y = 1; } }}} garbage").unwrap_err();
        match err {
            HdlError::Parse {
                line,
                column,
                expected,
                ..
            } => {
                assert_eq!((line, column), (1, 34));
                assert!(expected.contains("end of input"), "{expected}");
            }
            other => panic!("expected parse error, found {other:?}"),
        }
    }

    /// The four deep shapes: nested parentheses, nested `if` blocks, unary
    /// minuses and a left-deep `a + a + …` chain, `n` levels deep.
    fn deep_designs(n: usize) -> [String; 4] {
        let design = |body: String| format!("design d {{ input a: 8; output y: 8; {body} }}");
        [
            design(format!("y = {}a{};", "(".repeat(n), ")".repeat(n))),
            design(format!("{}y = 1;{}", "if (a) { ".repeat(n), " }".repeat(n))),
            design(format!("y = {}a;", "-".repeat(n))),
            design(format!("y = a{};", " + a".repeat(n))),
        ]
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        for source in deep_designs(10_000) {
            match crate::compile(&source).unwrap_err() {
                HdlError::Parse { expected, .. } => {
                    assert!(expected.contains("levels of nesting"), "{expected}")
                }
                other => panic!("expected a nesting error, found {other:?}"),
            }
        }
        for source in deep_designs(MAX_NESTING + 1) {
            assert!(crate::compile(&source).is_err());
        }
        // The bound itself compiles and lowers on a test thread's stack.
        for source in deep_designs(MAX_NESTING) {
            crate::compile(&source).unwrap();
        }
    }

    #[test]
    fn unary_operators_parse() {
        let d = parse("design p { input a: 8; var x: 8; x = -a + !a; }").unwrap();
        match &d.body[0] {
            Stmt::Assign { value, .. } => assert_eq!(value.op_count(), 3),
            other => panic!("expected assignment, found {other:?}"),
        }
    }
}
