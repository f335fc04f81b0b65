use crate::ast::*;
use crate::lexer::{lex, Tok, Token};
use crate::LangError;
use silc_geom::Orientation;

/// Parses a SIL program.
///
/// # Errors
///
/// Returns [`LangError::Syntax`] with source position on any lexical or
/// grammatical problem.
pub fn parse(source: &str) -> Result<Program<'_>, LangError> {
    parse_tokens(lex(source)?)
}

/// Parses an already-lexed token stream (lets the compiler time lexing
/// and parsing as separate pipeline stages).
pub(crate) fn parse_tokens(tokens: Vec<Token<'_>>) -> Result<Program<'_>, LangError> {
    // Sized from the token count, so the tree takes a handful of
    // allocations: an expression is two tokens or more on average, a
    // statement a dozen.
    let tree = Program::with_capacity(tokens.len());
    let mut p = Parser {
        tokens,
        pos: 0,
        open: 0,
        height: 0,
        tree,
        exprs: Vec::new(),
        stmts: Vec::new(),
        bindings: Vec::new(),
    };
    while p.peek() != Tok::Eof {
        let item = p.item()?;
        p.tree.items.push(item);
    }
    Ok(p.tree)
}

/// Deepest nesting accepted. The parser and the evaluator recurse once
/// per level of the tree, and a `silc serve` worker runs them on a 2 MiB
/// stack.
pub(crate) const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
    /// Statements and operands open around the current token.
    open: usize,
    /// Height of the expression tree parsed last. Operator chains grow a
    /// tree without recursing, so depth is counted on the tree.
    height: usize,
    tree: Program<'a>,
    /// Members of the lists still open — arguments, bodies, fields — each
    /// waiting for its list to close and move into `tree` as one run.
    exprs: Vec<Expr<'a>>,
    stmts: Vec<Stmt<'a>>,
    bindings: Vec<Binding<'a>>,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Tok<'a> {
        self.tokens[self.pos].kind
    }

    fn peek2(&self) -> Tok<'a> {
        self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    fn advance(&mut self) -> Tok<'a> {
        let t = self.tokens[self.pos].kind;
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    /// Consumes the current token if it is `kind`.
    fn eat(&mut self, kind: Tok<'a>) -> bool {
        let found = self.peek() == kind;
        if found {
            self.advance();
        }
        found
    }

    fn err(&self, message: impl Into<String>) -> LangError {
        let t = self.tokens[self.pos];
        LangError::Syntax {
            line: t.line as usize,
            col: t.col as usize,
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

    fn expect(&mut self, kind: Tok<'a>) -> Result<(), LangError> {
        if self.eat(kind) {
            return Ok(());
        }
        Err(self.err(format!(
            "expected {}, found {}",
            kind.describe(),
            self.peek().describe()
        )))
    }

    fn ident(&mut self) -> Result<&'a str, LangError> {
        match self.peek() {
            Tok::Ident(s) => {
                self.advance();
                Ok(s)
            }
            other => Err(self.err(format!("expected identifier, found {}", other.describe()))),
        }
    }

    // ---------------------------------------------------------------

    fn item(&mut self) -> Result<Item<'a>, LangError> {
        let line = self.tokens[self.pos].line;
        let kind = self.peek();
        if !matches!(kind, Tok::Cell | Tok::Fn | Tok::Type) {
            return Ok(Item::Stmt(self.stmt()?));
        }
        self.advance();
        let name = self.ident()?;
        let params = self.params(kind)?;
        // Optional result annotation, ignored (documentation).
        if kind == Tok::Fn && self.eat(Tok::Arrow) {
            self.ident()?;
        }
        let body = match kind {
            Tok::Type => Run::default(),
            _ => self.block()?,
        };
        let def = Def {
            name,
            params,
            body,
            line,
        };
        Ok(match kind {
            Tok::Cell => Item::Cell(def),
            Tok::Fn => Item::Fn(def),
            _ => Item::Type(def),
        })
    }

    /// The parameters of a `cell` or `fn` in parentheses, or the fields of
    /// a `type` in braces, which take no defaults.
    fn params(&mut self, kind: Tok<'a>) -> Result<Run, LangError> {
        let (open, close) = match kind {
            Tok::Type => (Tok::LBrace, Tok::RBrace),
            _ => (Tok::LParen, Tok::RParen),
        };
        self.expect(open)?;
        let mark = self.bindings.len();
        while self.peek() != close {
            let name = self.ident()?;
            if self.eat(Tok::Colon) {
                self.ident()?; // annotation, documentation only
            }
            let value = if kind != Tok::Type && self.eat(Tok::Assign) {
                Some(self.expr_id()?)
            } else {
                None
            };
            self.bindings.push(Binding { name, value });
            if !self.eat(Tok::Comma) {
                break;
            }
        }
        self.expect(close)?;
        Ok(self.tree.seal_bindings(&mut self.bindings, mark))
    }

    fn block(&mut self) -> Result<Run, LangError> {
        self.expect(Tok::LBrace)?;
        let mark = self.stmts.len();
        while self.peek() != Tok::RBrace {
            let stmt = self.stmt()?;
            self.stmts.push(stmt);
        }
        self.advance();
        Ok(self.tree.seal_stmts(&mut self.stmts, mark))
    }

    /// Orientation modifiers, composed in source order.
    fn orient_mods(&mut self) -> Result<Orientation, LangError> {
        let mut total = Orientation::R0;
        loop {
            let step = match self.peek() {
                Tok::Rot => {
                    self.advance();
                    match self.advance() {
                        Tok::Int(90) => Orientation::R90,
                        Tok::Int(180) => Orientation::R180,
                        Tok::Int(270) => Orientation::R270,
                        _ => return Err(self.err("rot must be 90, 180 or 270")),
                    }
                }
                Tok::MirrorX => {
                    self.advance();
                    Orientation::MX
                }
                Tok::MirrorY => {
                    self.advance();
                    Orientation::MX180
                }
                _ => return Ok(total),
            };
            total = step.compose(total);
        }
    }

    fn stmt(&mut self) -> Result<Stmt<'a>, LangError> {
        // Every cycle in the statement grammar comes through here.
        self.open += 1;
        self.grown(0)?;
        let line = self.tokens[self.pos].line;
        let kind = match self.peek() {
            Tok::For => {
                self.advance();
                let var = self.ident()?;
                self.expect(Tok::In)?;
                let from = self.expr_no_record()?;
                self.expect(Tok::DotDot)?;
                let to = self.expr_no_record()?;
                let body = self.block()?;
                StmtKind::For {
                    var,
                    from,
                    to,
                    body,
                }
            }
            Tok::If => {
                self.advance();
                let cond = self.expr_no_record()?;
                let then_body = self.block()?;
                let else_body = if !self.eat(Tok::Else) {
                    Run::default()
                } else if self.peek() == Tok::If {
                    let mark = self.stmts.len();
                    let nested = self.stmt()?;
                    self.stmts.push(nested);
                    self.tree.seal_stmts(&mut self.stmts, mark)
                } else {
                    self.block()?
                };
                StmtKind::If {
                    cond,
                    then_body,
                    else_body,
                }
            }
            // Nested blocks stack this frame up once per level, so the
            // statements that cannot nest keep their locals out of it.
            _ => self.simple_stmt()?,
        };
        self.open -= 1;
        Ok(Stmt { kind, line })
    }

    fn simple_stmt(&mut self) -> Result<StmtKind<'a>, LangError> {
        let kind = match self.peek() {
            Tok::Box_ => {
                self.advance();
                StmtKind::Box {
                    layer: self.layer_expr()?,
                    a: self.expr_id()?,
                    b: self.expr_id()?,
                }
            }
            Tok::Wire => {
                self.advance();
                StmtKind::Wire {
                    layer: self.layer_expr()?,
                    // A scalar followed by a point: `2 (0,0)` parses 2
                    // and stops at `(`.
                    width: self.expr_id()?,
                    points: self.points(1)?,
                }
            }
            Tok::Poly => {
                self.advance();
                StmtKind::Polygon {
                    layer: self.layer_expr()?,
                    points: self.points(0)?,
                }
            }
            Tok::Port => {
                self.advance();
                let name = match self.peek() {
                    Tok::Ident(n) => {
                        self.advance();
                        self.tree.alloc(Expr::Str(n))
                    }
                    Tok::LParen => self.expr_id()?,
                    other => {
                        return Err(
                            self.err(format!("expected a port name, found {}", other.describe()))
                        )
                    }
                };
                StmtKind::Port {
                    name,
                    layer: self.layer_expr()?,
                    at: self.expr_id()?,
                }
            }
            Tok::Place => {
                self.advance();
                let cell = self.ident()?;
                let args = self.call_args()?;
                self.expect(Tok::At)?;
                StmtKind::Place {
                    cell,
                    args,
                    at: self.expr_id()?,
                    orient: self.orient_mods()?,
                }
            }
            Tok::Array => {
                self.advance();
                let cell = self.ident()?;
                let args = self.call_args()?;
                self.expect(Tok::At)?;
                let at = self.expr_id()?;
                self.expect(Tok::Step)?;
                let step = self.expr_id()?;
                let step2 = match self.peek() {
                    Tok::LParen => Some(self.expr_id()?),
                    _ => None,
                };
                self.expect(Tok::Count)?;
                let count = self.expr_id()?;
                let count2 = match self.peek() {
                    Tok::Int(_) | Tok::Ident(_) if step2.is_some() => Some(self.expr_id()?),
                    _ => None,
                };
                StmtKind::ArrayPlace {
                    cell,
                    args,
                    at,
                    step,
                    step2,
                    count,
                    count2,
                    orient: self.orient_mods()?,
                }
            }
            Tok::Let => {
                self.advance();
                let name = self.ident()?;
                self.expect(Tok::Assign)?;
                StmtKind::Let {
                    name,
                    value: self.expr_id()?,
                }
            }
            Tok::Return => {
                self.advance();
                let value = match self.peek() {
                    Tok::Semi => None,
                    _ => Some(self.expr_id()?),
                };
                StmtKind::Return { value }
            }
            Tok::Ident(name) if self.peek2() == Tok::Assign => {
                self.advance();
                self.advance();
                StmtKind::Assign {
                    name,
                    value: self.expr_id()?,
                }
            }
            _ => StmtKind::Expr {
                value: self.expr_id()?,
            },
        };
        self.expect(Tok::Semi)?;
        Ok(kind)
    }

    /// A layer position: an identifier (the usual case) or a
    /// parenthesized expression computing a layer name string.
    fn layer_expr(&mut self) -> Result<ExprId, LangError> {
        match self.peek() {
            Tok::Ident(name) => {
                self.advance();
                Ok(self.tree.alloc(Expr::Str(name)))
            }
            Tok::LParen => self.expr_id(),
            other => Err(self.err(format!("expected a layer name, found {}", other.describe()))),
        }
    }

    /// The points of a wire or polygon: `first` of them whatever comes,
    /// then one for every `(` that follows.
    fn points(&mut self, first: usize) -> Result<Run, LangError> {
        let mark = self.exprs.len();
        while self.exprs.len() < mark + first || self.peek() == Tok::LParen {
            let point = self.expr()?;
            self.exprs.push(point);
        }
        Ok(self.tree.seal_exprs(&mut self.exprs, mark))
    }

    /// Expressions separated by commas up to `close`, counted as one node
    /// over them: the arguments of a call or a placement, a list literal.
    fn expr_list(&mut self, close: Tok<'a>) -> Result<Run, LangError> {
        let mark = self.exprs.len();
        let mut below = 0;
        while self.peek() != close {
            let item = self.expr()?;
            self.exprs.push(item);
            below = below.max(self.height);
            if !self.eat(Tok::Comma) {
                break;
            }
        }
        self.expect(close)?;
        self.grown(below + 1)?;
        Ok(self.tree.seal_exprs(&mut self.exprs, mark))
    }

    fn call_args(&mut self) -> Result<Run, LangError> {
        self.expect(Tok::LParen)?;
        self.expr_list(Tok::RParen)
    }

    // Expression parsing (precedence climbing). `allow_record` guards the
    // `ident { ... }` record literal, which would swallow statement
    // blocks after `if`/`for`.

    fn expr(&mut self) -> Result<Expr<'a>, LangError> {
        self.binary_expr(0, true)
    }

    /// An expression, stored.
    fn expr_id(&mut self) -> Result<ExprId, LangError> {
        let e = self.expr()?;
        Ok(self.tree.alloc(e))
    }

    fn expr_no_record(&mut self) -> Result<ExprId, LangError> {
        let e = self.binary_expr(0, false)?;
        Ok(self.tree.alloc(e))
    }

    fn binary_expr(&mut self, min_prec: u8, allow_record: bool) -> Result<Expr<'a>, LangError> {
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
                lhs: self.tree.alloc(lhs),
                rhs: self.tree.alloc(rhs),
            };
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self, allow_record: bool) -> Result<Expr<'a>, LangError> {
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
            let operand = self.unary_expr(allow_record)?;
            self.grown(self.height + 1)?;
            Expr::Unary {
                op,
                expr: self.tree.alloc(operand),
            }
        } else {
            self.postfix_expr(allow_record)?
        };
        self.open -= 1;
        Ok(e)
    }

    fn postfix_expr(&mut self, allow_record: bool) -> Result<Expr<'a>, LangError> {
        let mut e = self.primary_expr(allow_record)?;
        loop {
            match self.peek() {
                Tok::Dot => {
                    self.advance();
                    let field = self.ident()?;
                    self.grown(self.height + 1)?;
                    e = Expr::Field {
                        base: self.tree.alloc(e),
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
                        base: self.tree.alloc(e),
                        index: self.tree.alloc(index),
                    };
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn primary_expr(&mut self, allow_record: bool) -> Result<Expr<'a>, LangError> {
        let at = self.pos;
        match self.advance() {
            Tok::Int(v) => Ok(Expr::Int(v)),
            Tok::True => Ok(Expr::Bool(true)),
            Tok::False => Ok(Expr::Bool(false)),
            Tok::Str(s) => Ok(Expr::Str(s)),
            Tok::LBracket => Ok(Expr::List(self.expr_list(Tok::RBracket)?)),
            Tok::LParen => {
                let first = self.expr()?;
                if self.eat(Tok::Comma) {
                    let below = self.height;
                    let second = self.expr()?;
                    self.expect(Tok::RParen)?;
                    self.grown(below.max(self.height) + 1)?;
                    Ok(Expr::Point(self.tree.alloc(first), self.tree.alloc(second)))
                } else {
                    self.expect(Tok::RParen)?;
                    Ok(first)
                }
            }
            Tok::Ident(name) => {
                if self.eat(Tok::LParen) {
                    let args = self.expr_list(Tok::RParen)?;
                    Ok(Expr::Call { name, args })
                } else if allow_record && self.eat(Tok::LBrace) {
                    let mark = self.bindings.len();
                    let mut below = 0;
                    while self.peek() != Tok::RBrace {
                        let name = self.ident()?;
                        self.expect(Tok::Colon)?;
                        let value = Some(self.expr_id()?);
                        below = below.max(self.height);
                        self.bindings.push(Binding { name, value });
                        if !self.eat(Tok::Comma) {
                            break;
                        }
                    }
                    self.expect(Tok::RBrace)?;
                    self.grown(below + 1)?;
                    let fields = self.tree.seal_bindings(&mut self.bindings, mark);
                    Ok(Expr::Record {
                        type_name: name,
                        fields,
                    })
                } else {
                    Ok(Expr::Ident(name))
                }
            }
            other => {
                self.pos = at;
                Err(self.err(format!(
                    "expected an expression, found {}",
                    other.describe()
                )))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one definition of `source` and the statements of its body.
    fn body_of<'p>(p: &'p Program<'p>) -> (&'p Def<'p>, Vec<StmtKind<'p>>) {
        match &p.items[0] {
            Item::Cell(def) | Item::Fn(def) => {
                (def, p.stmts(def.body).iter().map(|s| s.kind).collect())
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// The top-level statements of `source`.
    fn top_of<'p>(p: &'p Program<'p>) -> Vec<StmtKind<'p>> {
        let kind = |item: &Item<'p>| match item {
            Item::Stmt(s) => s.kind,
            other => panic!("unexpected {other:?}"),
        };
        p.items.iter().map(kind).collect()
    }

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
        let (def, body) = body_of(&p);
        assert_eq!(def.name, "inv");
        let params = p.bindings(def.params);
        assert_eq!(params.len(), 1);
        assert!(params[0].value.is_some());
        assert_eq!(body.len(), 4);
        match body[1] {
            StmtKind::Wire { points, .. } => assert_eq!(points.ids().count(), 2),
            other => panic!("unexpected {other:?}"),
        }
        match body[2] {
            StmtKind::Polygon { points, .. } => assert_eq!(points.ids().count(), 3),
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
        let top = top_of(&p);
        assert_eq!(top.len(), 3);
        match top[0] {
            StmtKind::Place { cell, orient, .. } => {
                assert_eq!(cell, "inv");
                assert_eq!(orient, Orientation::MX.compose(Orientation::R90));
            }
            other => panic!("unexpected {other:?}"),
        }
        match top[2] {
            StmtKind::ArrayPlace { step2, count2, .. } => {
                assert!(step2.is_some());
                assert!(count2.is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn lists_sit_side_by_side_whatever_nests_inside_them() {
        let p = parse("let l = [f(1, [2, 3]), [4], g(5)[6]];").unwrap();
        let StmtKind::Let { value, .. } = top_of(&p)[0] else {
            panic!("a let");
        };
        let Expr::List(items) = *p.expr(value) else {
            panic!("a list");
        };
        let items: Vec<&Expr> = items.ids().map(|id| p.expr(id)).collect();
        assert!(matches!(items[0], Expr::Call { name: "f", .. }));
        assert!(matches!(items[1], Expr::List(inner) if inner.ids().count() == 1));
        assert!(matches!(items[2], Expr::Index { .. }));
        assert_eq!(items.len(), 3);
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
        let StmtKind::For { body, .. } = body_of(&p).1[0] else {
            panic!("a for");
        };
        match p.stmts(body)[0].kind {
            StmtKind::If {
                then_body,
                else_body,
                ..
            } => {
                assert_eq!(p.stmts(then_body).len(), 1);
                assert!(p.stmts(else_body).is_empty());
            }
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
        match &p.items[0] {
            Item::Type(def) => {
                let fields: Vec<&str> = p.bindings(def.params).iter().map(|b| b.name).collect();
                assert_eq!(fields, ["x", "y"]);
            }
            other => panic!("unexpected {other:?}"),
        }
        match &p.items[1] {
            Item::Stmt(Stmt {
                kind: StmtKind::Let { value, .. },
                ..
            }) => match p.expr(*value) {
                Expr::Record { fields, .. } => assert_eq!(p.bindings(*fields).len(), 2),
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn record_literal_not_confused_with_if_block() {
        // `if n { ... }` must treat `{` as the block, not a record.
        let p = parse("cell c(n) { if n > 0 { box metal (0,0) (1,1); } }").unwrap();
        assert!(matches!(body_of(&p).1[0], StmtKind::If { .. }));
    }

    #[test]
    fn parses_functions() {
        let p = parse("fn double(n) -> int { return n * 2; }").unwrap();
        let (def, body) = body_of(&p);
        assert_eq!(def.name, "double");
        assert!(matches!(body[0], StmtKind::Return { .. }));
    }

    #[test]
    fn point_vs_paren() {
        let p = parse("let a = (1 + 2) * 3; let b = (1, 2);").unwrap();
        let values: Vec<&Expr> = top_of(&p)
            .iter()
            .map(|kind| match kind {
                StmtKind::Let { value, .. } => p.expr(*value),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert!(matches!(values[0], Expr::Binary { op: BinOp::Mul, .. }));
        assert!(matches!(values[1], Expr::Point(..)));
    }

    #[test]
    fn lists_and_indexing() {
        let p = parse("let l = [1, 2, 3]; let x = l[1];").unwrap();
        match top_of(&p)[1] {
            StmtKind::Let { value, .. } => {
                assert!(matches!(p.expr(value), Expr::Index { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn assignment_vs_expression_statement() {
        let p = parse("cell c() { let x = 1; x = x + 1; noop(); }").unwrap();
        let body = body_of(&p).1;
        assert!(matches!(body[1], StmtKind::Assign { .. }));
        assert!(matches!(body[2], StmtKind::Expr { .. }));
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
