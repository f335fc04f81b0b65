use crate::ast::*;
use crate::lexer::{lex, Tok, Token};
use crate::LangError;

/// Parses a SIL program.
///
/// # Errors
///
/// Returns [`LangError::Syntax`] with source position on any lexical or
/// grammatical problem.
pub fn parse(source: &str) -> Result<Program, LangError> {
    parse_tokens(lex(source)?)
}

/// Parses an already-lexed token stream (lets the compiler time lexing
/// and parsing as separate pipeline stages).
pub(crate) fn parse_tokens(tokens: Vec<Token>) -> Result<Program, LangError> {
    let mut p = Parser {
        tokens,
        pos: 0,
        open: 0,
        height: 0,
    };
    let mut items = Vec::new();
    while *p.peek() != Tok::Eof {
        items.push(p.item()?);
    }
    Ok(Program { items })
}

/// Deepest nesting accepted. The parser, the evaluator and `Drop` recurse
/// once per level of the tree, and a `silc serve` worker runs them on a
/// 2 MiB stack.
const MAX_DEPTH: usize = 64;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Statements and operands open around the current token.
    open: usize,
    /// Height of the expression tree parsed last. Operator chains grow a
    /// tree without recursing, so depth is counted on the tree.
    height: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].kind
    }

    fn peek2(&self) -> &Tok {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    fn line(&self) -> usize {
        self.tokens[self.pos].line
    }

    fn advance(&mut self) -> Tok {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, message: impl Into<String>) -> LangError {
        let t = &self.tokens[self.pos];
        LangError::Syntax {
            line: t.line,
            col: t.col,
            message: message.into(),
        }
    }

    /// Records that the tree parsed last now stands `height` high, and
    /// refuses it once it reaches deeper than the bound.
    fn grown(&mut self, height: usize) -> Result<(), LangError> {
        self.height = height;
        if self.open + height > MAX_DEPTH {
            return Err(self.err(format!("nested more than {MAX_DEPTH} levels deep")));
        }
        Ok(())
    }

    fn expect(&mut self, kind: Tok) -> Result<(), LangError> {
        if *self.peek() == kind {
            self.advance();
            Ok(())
        } else {
            Err(self.err(format!(
                "expected {}, found {}",
                kind.describe(),
                self.peek().describe()
            )))
        }
    }

    fn ident(&mut self) -> Result<String, LangError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.advance();
                Ok(s)
            }
            other => Err(self.err(format!("expected identifier, found {}", other.describe()))),
        }
    }

    // ---------------------------------------------------------------

    fn item(&mut self) -> Result<Item, LangError> {
        match self.peek() {
            Tok::Cell => {
                let line = self.line();
                self.advance();
                let name = self.ident()?;
                let params = self.params()?;
                let body = self.block()?;
                Ok(Item::Cell(CellDef {
                    name,
                    params,
                    body,
                    line,
                }))
            }
            Tok::Fn => {
                let line = self.line();
                self.advance();
                let name = self.ident()?;
                let params = self.params()?;
                // Optional result annotation, ignored (documentation).
                if *self.peek() == Tok::Arrow {
                    self.advance();
                    self.ident()?;
                }
                let body = self.block()?;
                Ok(Item::Fn(FnDef {
                    name,
                    params,
                    body,
                    line,
                }))
            }
            Tok::Type => {
                let line = self.line();
                self.advance();
                let name = self.ident()?;
                self.expect(Tok::LBrace)?;
                let mut fields = Vec::new();
                while *self.peek() != Tok::RBrace {
                    fields.push(self.ident()?);
                    // Optional type annotation, ignored.
                    if *self.peek() == Tok::Colon {
                        self.advance();
                        self.ident()?;
                    }
                    if *self.peek() == Tok::Comma {
                        self.advance();
                    } else {
                        break;
                    }
                }
                self.expect(Tok::RBrace)?;
                Ok(Item::Type(TypeDef { name, fields, line }))
            }
            _ => Ok(Item::Stmt(self.stmt()?)),
        }
    }

    fn params(&mut self) -> Result<Vec<Param>, LangError> {
        self.expect(Tok::LParen)?;
        let mut params = Vec::new();
        while *self.peek() != Tok::RParen {
            let name = self.ident()?;
            if *self.peek() == Tok::Colon {
                self.advance();
                self.ident()?; // annotation, documentation only
            }
            let default = if *self.peek() == Tok::Assign {
                self.advance();
                Some(self.expr()?)
            } else {
                None
            };
            params.push(Param { name, default });
            if *self.peek() == Tok::Comma {
                self.advance();
            } else {
                break;
            }
        }
        self.expect(Tok::RParen)?;
        Ok(params)
    }

    fn block(&mut self) -> Result<Vec<Stmt>, LangError> {
        self.expect(Tok::LBrace)?;
        let mut body = Vec::new();
        while *self.peek() != Tok::RBrace {
            body.push(self.stmt()?);
        }
        self.advance();
        Ok(body)
    }

    fn orient_mods(&mut self) -> Result<Vec<OrientMod>, LangError> {
        let mut mods = Vec::new();
        loop {
            match self.peek() {
                Tok::Rot => {
                    self.advance();
                    let angle = match self.advance() {
                        Tok::Int(90) => OrientMod::Rot90,
                        Tok::Int(180) => OrientMod::Rot180,
                        Tok::Int(270) => OrientMod::Rot270,
                        _ => return Err(self.err("rot must be 90, 180 or 270")),
                    };
                    mods.push(angle);
                }
                Tok::MirrorX => {
                    self.advance();
                    mods.push(OrientMod::MirrorX);
                }
                Tok::MirrorY => {
                    self.advance();
                    mods.push(OrientMod::MirrorY);
                }
                _ => break,
            }
        }
        Ok(mods)
    }

    fn stmt(&mut self) -> Result<Stmt, LangError> {
        // Every cycle in the statement grammar comes through here.
        self.open += 1;
        self.grown(0)?;
        let line = self.line();
        let stmt = match self.peek() {
            Tok::For => {
                self.advance();
                let var = self.ident()?;
                self.expect(Tok::In)?;
                let from = self.expr_no_record()?;
                self.expect(Tok::DotDot)?;
                let to = self.expr_no_record()?;
                let body = self.block()?;
                Ok(Stmt::For {
                    var,
                    from,
                    to,
                    body,
                    line,
                })
            }
            Tok::If => {
                self.advance();
                let cond = self.expr_no_record()?;
                let then_body = self.block()?;
                let else_body = if *self.peek() == Tok::Else {
                    self.advance();
                    if *self.peek() == Tok::If {
                        vec![self.stmt()?]
                    } else {
                        self.block()?
                    }
                } else {
                    Vec::new()
                };
                Ok(Stmt::If {
                    cond,
                    then_body,
                    else_body,
                    line,
                })
            }
            // Nested blocks stack this frame up once per level, so the
            // statements that cannot nest keep their locals out of it.
            _ => self.simple_stmt(line),
        }?;
        self.open -= 1;
        Ok(stmt)
    }

    fn simple_stmt(&mut self, line: usize) -> Result<Stmt, LangError> {
        match self.peek().clone() {
            Tok::Box_ => {
                self.advance();
                let layer = self.layer_expr()?;
                let a = self.expr()?;
                let b = self.expr()?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::Box { layer, a, b, line })
            }
            Tok::Wire => {
                self.advance();
                let layer = self.layer_expr()?;
                let width = self.expr_no_point()?;
                let mut points = vec![self.expr()?];
                while *self.peek() == Tok::LParen {
                    points.push(self.expr()?);
                }
                self.expect(Tok::Semi)?;
                Ok(Stmt::Wire {
                    layer,
                    width,
                    points,
                    line,
                })
            }
            Tok::Poly => {
                self.advance();
                let layer = self.layer_expr()?;
                let mut points = Vec::new();
                while *self.peek() == Tok::LParen {
                    points.push(self.expr()?);
                }
                self.expect(Tok::Semi)?;
                Ok(Stmt::Polygon {
                    layer,
                    points,
                    line,
                })
            }
            Tok::Port => {
                self.advance();
                let name = match self.peek().clone() {
                    Tok::Ident(n) => {
                        self.advance();
                        Expr::Str(n)
                    }
                    Tok::LParen => self.expr()?,
                    other => {
                        return Err(
                            self.err(format!("expected a port name, found {}", other.describe()))
                        )
                    }
                };
                let layer = self.layer_expr()?;
                let at = self.expr()?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::Port {
                    name,
                    layer,
                    at,
                    line,
                })
            }
            Tok::Place => {
                self.advance();
                let cell = self.ident()?;
                let args = self.call_args()?;
                self.expect(Tok::At)?;
                let at = self.expr()?;
                let orient = self.orient_mods()?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::Place {
                    cell,
                    args,
                    at,
                    orient,
                    line,
                })
            }
            Tok::Array => {
                self.advance();
                let cell = self.ident()?;
                let args = self.call_args()?;
                self.expect(Tok::At)?;
                let at = self.expr()?;
                self.expect(Tok::Step)?;
                let step = self.expr()?;
                let step2 = if *self.peek() == Tok::LParen {
                    Some(self.expr()?)
                } else {
                    None
                };
                self.expect(Tok::Count)?;
                let count = self.expr_no_point()?;
                let count2 = match self.peek() {
                    Tok::Int(_) | Tok::Ident(_) | Tok::LParen
                        if step2.is_some() && !matches!(self.peek(), Tok::LParen) =>
                    {
                        Some(self.expr_no_point()?)
                    }
                    _ => None,
                };
                let orient = self.orient_mods()?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::ArrayPlace {
                    cell,
                    args,
                    at,
                    step,
                    step2,
                    count,
                    count2,
                    orient,
                    line,
                })
            }
            Tok::Let => {
                self.advance();
                let name = self.ident()?;
                self.expect(Tok::Assign)?;
                let value = self.expr()?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::Let { name, value, line })
            }
            Tok::Return => {
                self.advance();
                let value = if *self.peek() == Tok::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(Tok::Semi)?;
                Ok(Stmt::Return { value, line })
            }
            Tok::Ident(name) if *self.peek2() == Tok::Assign => {
                self.advance();
                self.advance();
                let value = self.expr()?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::Assign { name, value, line })
            }
            _ => {
                let value = self.expr()?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::Expr { value, line })
            }
        }
    }

    /// A layer position: an identifier (the usual case) or a
    /// parenthesized expression computing a layer name string.
    fn layer_expr(&mut self) -> Result<Expr, LangError> {
        match self.peek().clone() {
            Tok::Ident(name) => {
                self.advance();
                Ok(Expr::Str(name))
            }
            Tok::LParen => self.expr(),
            other => Err(self.err(format!("expected a layer name, found {}", other.describe()))),
        }
    }

    /// The arguments of a call or a placement, counted as one node over them.
    fn call_args(&mut self) -> Result<Vec<Expr>, LangError> {
        self.expect(Tok::LParen)?;
        let mut args = Vec::new();
        let mut below = 0;
        while *self.peek() != Tok::RParen {
            args.push(self.expr()?);
            below = below.max(self.height);
            if *self.peek() == Tok::Comma {
                self.advance();
            } else {
                break;
            }
        }
        self.expect(Tok::RParen)?;
        self.grown(below + 1)?;
        Ok(args)
    }

    // Expression parsing (precedence climbing). `allow_record` guards the
    // `ident { ... }` record literal, which would swallow statement
    // blocks after `if`/`for`; `allow_point` guards treating `(a, b)` as
    // a point (always on — the flag exists for widths/counts that are
    // followed by a point literal).

    fn expr(&mut self) -> Result<Expr, LangError> {
        self.binary_expr(0, true)
    }

    fn expr_no_record(&mut self) -> Result<Expr, LangError> {
        self.binary_expr(0, false)
    }

    /// An expression that must not be a bare point literal — used where a
    /// scalar is followed by a point (`wire metal 2 (0,0)...`). A
    /// parenthesized scalar is still fine.
    fn expr_no_point(&mut self) -> Result<Expr, LangError> {
        // Same grammar; points only arise from the `(a, b)` primary and
        // widths are scalars, so the normal parser does the right thing:
        // `2 (0,0)` parses 2 then stops at `(`.
        self.binary_expr(0, true)
    }

    fn binary_expr(&mut self, min_prec: u8, allow_record: bool) -> Result<Expr, LangError> {
        let mut lhs = self.unary_expr(allow_record)?;
        loop {
            let (op, prec) = match self.peek() {
                Tok::OrOr => (BinOp::Or, 1),
                Tok::AndAnd => (BinOp::And, 2),
                Tok::EqEq => (BinOp::Eq, 3),
                Tok::NotEq => (BinOp::Ne, 3),
                Tok::Lt => (BinOp::Lt, 4),
                Tok::Le => (BinOp::Le, 4),
                Tok::Gt => (BinOp::Gt, 4),
                Tok::Ge => (BinOp::Ge, 4),
                Tok::Plus => (BinOp::Add, 5),
                Tok::Minus => (BinOp::Sub, 5),
                Tok::Star => (BinOp::Mul, 6),
                Tok::Slash => (BinOp::Div, 6),
                Tok::Percent => (BinOp::Rem, 6),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            self.advance();
            let left = self.height;
            let rhs = self.binary_expr(prec + 1, allow_record)?;
            self.grown(left.max(self.height) + 1)?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self, allow_record: bool) -> Result<Expr, LangError> {
        // Every cycle in the expression grammar comes through here, and
        // a new tree starts.
        self.open += 1;
        self.grown(0)?;
        let op = match self.peek() {
            Tok::Minus => Some(UnOp::Neg),
            Tok::Bang => Some(UnOp::Not),
            _ => None,
        };
        let e = if let Some(op) = op {
            self.advance();
            let expr = Box::new(self.unary_expr(allow_record)?);
            self.grown(self.height + 1)?;
            Expr::Unary { op, expr }
        } else {
            self.postfix_expr(allow_record)?
        };
        self.open -= 1;
        Ok(e)
    }

    fn postfix_expr(&mut self, allow_record: bool) -> Result<Expr, LangError> {
        let mut e = self.primary_expr(allow_record)?;
        loop {
            match self.peek() {
                Tok::Dot => {
                    self.advance();
                    let field = self.ident()?;
                    self.grown(self.height + 1)?;
                    e = Expr::Field {
                        base: Box::new(e),
                        field,
                    };
                }
                Tok::LBracket => {
                    self.advance();
                    let base = self.height;
                    let index = self.expr()?;
                    self.expect(Tok::RBracket)?;
                    self.grown(base.max(self.height) + 1)?;
                    e = Expr::Index {
                        base: Box::new(e),
                        index: Box::new(index),
                    };
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn primary_expr(&mut self, allow_record: bool) -> Result<Expr, LangError> {
        match self.peek().clone() {
            Tok::Int(v) => {
                self.advance();
                Ok(Expr::Int(v))
            }
            Tok::True => {
                self.advance();
                Ok(Expr::Bool(true))
            }
            Tok::False => {
                self.advance();
                Ok(Expr::Bool(false))
            }
            Tok::Str(s) => {
                self.advance();
                Ok(Expr::Str(s))
            }
            Tok::LBracket => {
                self.advance();
                let mut items = Vec::new();
                let mut below = 0;
                while *self.peek() != Tok::RBracket {
                    items.push(self.expr()?);
                    below = below.max(self.height);
                    if *self.peek() == Tok::Comma {
                        self.advance();
                    } else {
                        break;
                    }
                }
                self.expect(Tok::RBracket)?;
                self.grown(below + 1)?;
                Ok(Expr::List(items))
            }
            Tok::LParen => {
                self.advance();
                let first = self.expr()?;
                if *self.peek() == Tok::Comma {
                    self.advance();
                    let below = self.height;
                    let second = self.expr()?;
                    self.expect(Tok::RParen)?;
                    self.grown(below.max(self.height) + 1)?;
                    Ok(Expr::Point(Box::new(first), Box::new(second)))
                } else {
                    self.expect(Tok::RParen)?;
                    Ok(first)
                }
            }
            Tok::Ident(name) => {
                self.advance();
                if *self.peek() == Tok::LParen {
                    let args = self.call_args()?;
                    Ok(Expr::Call { name, args })
                } else if allow_record && *self.peek() == Tok::LBrace {
                    self.advance();
                    let mut fields = Vec::new();
                    let mut below = 0;
                    while *self.peek() != Tok::RBrace {
                        let fname = self.ident()?;
                        self.expect(Tok::Colon)?;
                        let value = self.expr()?;
                        below = below.max(self.height);
                        fields.push((fname, value));
                        if *self.peek() == Tok::Comma {
                            self.advance();
                        } else {
                            break;
                        }
                    }
                    self.expect(Tok::RBrace)?;
                    self.grown(below + 1)?;
                    Ok(Expr::Record {
                        type_name: name,
                        fields,
                    })
                } else {
                    Ok(Expr::Ident(name))
                }
            }
            other => Err(self.err(format!(
                "expected an expression, found {}",
                other.describe()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_cell_with_geometry() {
        let p = parse(
            "cell inv(w = 2) {
                box diff (0, 0) (w, 8);
                wire metal 3 (0, 0) (10, 0);
                polygon poly (0,0) (4,0) (0,4);
                port out metal (1, 8);
            }",
        )
        .unwrap();
        assert_eq!(p.items.len(), 1);
        match &p.items[0] {
            Item::Cell(c) => {
                assert_eq!(c.name, "inv");
                assert_eq!(c.params.len(), 1);
                assert!(c.params[0].default.is_some());
                assert_eq!(c.body.len(), 4);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_place_and_array() {
        let p = parse(
            "place inv(4) at (10, 0) rot 90 mirrorx;
             array bit() at (0,0) step (6, 0) count 8;
             array bit() at (0,0) step (6,0) (0, 10) count 4 2;",
        )
        .unwrap();
        assert_eq!(p.items.len(), 3);
        match &p.items[0] {
            Item::Stmt(Stmt::Place { cell, orient, .. }) => {
                assert_eq!(cell, "inv");
                assert_eq!(orient, &[OrientMod::Rot90, OrientMod::MirrorX]);
            }
            other => panic!("unexpected {other:?}"),
        }
        match &p.items[2] {
            Item::Stmt(Stmt::ArrayPlace { step2, count2, .. }) => {
                assert!(step2.is_some());
                assert!(count2.is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_control_flow() {
        let p = parse(
            "cell c() {
                for i in 0..4 {
                    if i % 2 == 0 { box metal (i, 0) (i + 1, 3); } else { }
                }
            }",
        )
        .unwrap();
        match &p.items[0] {
            Item::Cell(c) => assert!(matches!(c.body[0], Stmt::For { .. })),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_types_and_records() {
        let p = parse(
            "type pitch { x: int, y: int }
             let q = pitch { x: 7, y: 9 };
             let v = q.x + q.y;",
        )
        .unwrap();
        assert_eq!(p.items.len(), 3);
        match &p.items[1] {
            Item::Stmt(Stmt::Let { value, .. }) => {
                assert!(matches!(value, Expr::Record { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn record_literal_not_confused_with_if_block() {
        // `if n { ... }` must treat `{` as the block, not a record.
        let p = parse("cell c(n) { if n > 0 { box metal (0,0) (1,1); } }").unwrap();
        match &p.items[0] {
            Item::Cell(c) => assert!(matches!(c.body[0], Stmt::If { .. })),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_functions() {
        let p = parse("fn double(n) -> int { return n * 2; }").unwrap();
        match &p.items[0] {
            Item::Fn(f) => {
                assert_eq!(f.name, "double");
                assert!(matches!(f.body[0], Stmt::Return { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn point_vs_paren() {
        let p = parse("let a = (1 + 2) * 3; let b = (1, 2);").unwrap();
        match &p.items[0] {
            Item::Stmt(Stmt::Let { value, .. }) => {
                assert!(matches!(value, Expr::Binary { op: BinOp::Mul, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
        match &p.items[1] {
            Item::Stmt(Stmt::Let { value, .. }) => {
                assert!(matches!(value, Expr::Point(..)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn lists_and_indexing() {
        let p = parse("let l = [1, 2, 3]; let x = l[1];").unwrap();
        match &p.items[1] {
            Item::Stmt(Stmt::Let { value, .. }) => {
                assert!(matches!(value, Expr::Index { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn assignment_vs_expression_statement() {
        let p = parse("cell c() { let x = 1; x = x + 1; noop(); }").unwrap();
        match &p.items[0] {
            Item::Cell(c) => {
                assert!(matches!(c.body[1], Stmt::Assign { .. }));
                assert!(matches!(c.body[2], Stmt::Expr { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn syntax_errors_located() {
        let err = parse("cell c() {\n box metal (0,0) (1,1)\n}").unwrap_err();
        match err {
            LangError::Syntax { line, .. } => assert_eq!(line, 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bad_rotation_rejected() {
        assert!(parse("place c() at (0,0) rot 45;").is_err());
    }

    #[test]
    fn nesting_bombs_are_line_numbered_errors() {
        // Brackets recurse in the parser; an operator or postfix chain
        // grows a left-deep tree without recursing; blocks nest statements.
        let bombs = [
            format!("let x =\n{}1{};", "(".repeat(20_000), ")".repeat(20_000)),
            format!("let x =\n{}{};", "[".repeat(20_000), "]".repeat(20_000)),
            format!("let x =\n{}1{};", "f(".repeat(20_000), ")".repeat(20_000)),
            format!("let x =\n{}1;", "1+".repeat(300_000)),
            format!("let x =\n{}1;", "-".repeat(100_000)),
            format!("let x =\na{};", "[0]".repeat(300_000)),
            format!("let x =\na{};", ".x".repeat(300_000)),
            format!("\n{}{}", "if c { ".repeat(50_000), "}".repeat(50_000)),
            format!("\nif c {{ }}{}", " else if c { }".repeat(50_000)),
        ];
        for bomb in bombs {
            match parse(&bomb) {
                Err(LangError::Syntax { line, message, .. }) => {
                    assert_eq!(line, 2);
                    assert!(message.contains("levels deep"), "{message}");
                }
                other => panic!("{:.40}: {other:?}", bomb),
            }
        }
        // The bound is on depth, not size: wide and long programs pass.
        let wide = format!("let x = [{}1];", "-(1 + 2), ".repeat(10_000));
        assert!(parse(&wide).is_ok());
    }
}
