//! The syntax tree. Every name and string is an offset into the source
//! and every node lives in one of three vectors owned by the [`Program`],
//! addressed by index: parsing allocates per program, not per node, and
//! nothing in the tree needs copying or a recursive `Drop`.

use crate::lexer::text_at;
use silc_geom::Orientation;

/// Where a name or a string literal starts in the source of its
/// [`Program`], which reads it back ([`Program::text`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sym(pub u32);

/// Index of an expression in its [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExprId(u32);

/// Consecutive nodes in one of the vectors of a [`Program`]: a body, an
/// argument list, the fields of a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Run {
    start: u32,
    end: u32,
}

impl Run {
    /// The expressions of an argument list, one by one.
    pub fn ids(self) -> impl Iterator<Item = ExprId> {
        (self.start..self.end).map(ExprId)
    }
}

/// A SIL program: its source, and a list of top-level items over the
/// nodes they index. [`lex`](crate::lexer::lex) refuses a source past
/// 4 GiB and a node takes at least a byte of it, so an index always fits
/// `u32`.
#[derive(Debug)]
pub struct Program<'a> {
    source: &'a str,
    pub items: Vec<Item>,
    exprs: Vec<Expr>,
    stmts: Vec<Stmt>,
    bindings: Vec<Binding>,
}

/// Moves the nodes parsed since `mark` from the parser's `pending` stack
/// to the end of `nodes`, where they sit side by side whatever was
/// parsed between them.
fn seal<T>(nodes: &mut Vec<T>, pending: &mut Vec<T>, mark: usize) -> Run {
    let start = nodes.len() as u32;
    nodes.extend(pending.drain(mark..));
    Run {
        start,
        end: nodes.len() as u32,
    }
}

impl<'a> Program<'a> {
    /// An empty tree of `source` with room for what `tokens` tokens
    /// usually parse to.
    pub fn with_capacity(source: &'a str, tokens: usize) -> Program<'a> {
        Program {
            source,
            items: Vec::new(),
            exprs: Vec::with_capacity(tokens / 2),
            stmts: Vec::with_capacity(tokens / 16),
            bindings: Vec::with_capacity(tokens / 16),
        }
    }

    /// The text of a name, or what a string literal holds.
    pub fn text(&self, sym: Sym) -> &'a str {
        text_at(self.source, sym.0)
    }

    pub fn alloc(&mut self, expr: Expr) -> ExprId {
        self.exprs.push(expr);
        ExprId(self.exprs.len() as u32 - 1)
    }

    pub fn seal_exprs(&mut self, pending: &mut Vec<Expr>, mark: usize) -> Run {
        seal(&mut self.exprs, pending, mark)
    }

    pub fn seal_stmts(&mut self, pending: &mut Vec<Stmt>, mark: usize) -> Run {
        seal(&mut self.stmts, pending, mark)
    }

    pub fn seal_bindings(&mut self, pending: &mut Vec<Binding>, mark: usize) -> Run {
        seal(&mut self.bindings, pending, mark)
    }

    pub fn expr(&self, id: ExprId) -> &Expr {
        &self.exprs[id.0 as usize]
    }

    pub fn stmts(&self, run: Run) -> &[Stmt] {
        &self.stmts[run.start as usize..run.end as usize]
    }

    pub fn bindings(&self, run: Run) -> &[Binding] {
        &self.bindings[run.start as usize..run.end as usize]
    }
}

/// A top-level item.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Item {
    /// `cell name(params) { body }` — a parameterised layout generator.
    Cell(Def),
    /// `fn name(params) { body }` — a value-returning procedure.
    Fn(Def),
    /// `type name { field, ... }` — a record type (data-type extension);
    /// the fields are its `params`, the body is empty.
    Type(Def),
    /// A statement executed in the implicit top cell.
    Stmt(Stmt),
}

/// A name and the expression that goes with it, if any: a parameter and
/// its default, a field of a record literal and its value, a field of a
/// `type` (no expression).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Binding {
    pub name: Sym,
    pub value: Option<ExprId>,
}

/// A `cell`, `fn` or `type` definition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Def {
    pub name: Sym,
    pub params: Run,
    pub body: Run,
    pub line: u32,
}

/// A statement with its source line for diagnostics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stmt {
    pub kind: StmtKind,
    pub line: u32,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StmtKind {
    /// `box layer (x0,y0) (x1,y1);`
    Box { layer: ExprId, a: ExprId, b: ExprId },
    /// `wire layer width (x,y) (x,y) ...;`
    Wire {
        layer: ExprId,
        width: ExprId,
        points: Run,
    },
    /// `polygon layer (x,y) (x,y) (x,y) ...;`
    Polygon { layer: ExprId, points: Run },
    /// `port name layer (x,y);` — `name` may be a parenthesized string
    /// expression for computed names: `port ("b" + str(i)) metal (x,y);`
    Port {
        name: ExprId,
        layer: ExprId,
        at: ExprId,
    },
    /// `place cell(args) at (x,y) [orientation...];` — the orientation
    /// modifiers are composed in source order as they are read.
    Place {
        cell: Sym,
        args: Run,
        at: ExprId,
        orient: Orientation,
    },
    /// `array cell(args) at (x,y) step (dx,dy) [(dx2,dy2)] count n [m]
    /// [orientation...];`
    ArrayPlace {
        cell: Sym,
        args: Run,
        at: ExprId,
        step: ExprId,
        step2: Option<ExprId>,
        count: ExprId,
        count2: Option<ExprId>,
        orient: Orientation,
    },
    /// `let name = expr;`
    Let { name: Sym, value: ExprId },
    /// `name = expr;`
    Assign { name: Sym, value: ExprId },
    /// `for i in a .. b { body }`
    For {
        var: Sym,
        from: ExprId,
        to: ExprId,
        body: Run,
    },
    /// `if cond { ... } else { ... }`
    If {
        cond: ExprId,
        then_body: Run,
        else_body: Run,
    },
    /// `return expr;` (functions only).
    Return { value: Option<ExprId> },
    /// A bare expression (evaluated for effect, e.g. a function call).
    Expr { value: ExprId },
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

/// An expression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Expr {
    Int(i64),
    Bool(bool),
    /// A string literal, or a layer or port name written bare.
    Str(Sym),
    /// `(x, y)` — a point literal.
    Point(ExprId, ExprId),
    /// `[a, b, c]` — a list literal.
    List(Run),
    Ident(Sym),
    /// `name { field: value, ... }` — record construction.
    Record {
        type_name: Sym,
        fields: Run,
    },
    /// `f(args)` — function call.
    Call {
        name: Sym,
        args: Run,
    },
    /// `expr.field` — record field access (also `.x`/`.y` on points).
    Field {
        base: ExprId,
        field: Sym,
    },
    /// `expr[index]` — list indexing.
    Index {
        base: ExprId,
        index: ExprId,
    },
    Unary {
        op: UnOp,
        expr: ExprId,
    },
    Binary {
        op: BinOp,
        lhs: ExprId,
        rhs: ExprId,
    },
}

const _: () = assert!(size_of::<Expr>() == 16);

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    Neg,
    Not,
}
