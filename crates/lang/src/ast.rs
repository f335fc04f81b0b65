//! The syntax tree. Every name is a slice of the source and every node
//! lives in one of three vectors owned by the [`Program`], addressed by
//! index: parsing allocates per program, not per node, and nothing in
//! the tree needs copying or a recursive `Drop`.

use silc_geom::Orientation;

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

/// A SIL program: a list of top-level items over the nodes they index.
/// [`lex`](crate::lexer::lex) refuses a source past 4 GiB and a node takes
/// at least a byte of it, so an index always fits `u32`.
#[derive(Debug)]
pub struct Program<'a> {
    pub items: Vec<Item<'a>>,
    exprs: Vec<Expr<'a>>,
    stmts: Vec<Stmt<'a>>,
    bindings: Vec<Binding<'a>>,
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
    /// An empty tree with room for what `tokens` tokens usually parse to.
    pub fn with_capacity(tokens: usize) -> Program<'a> {
        Program {
            items: Vec::new(),
            exprs: Vec::with_capacity(tokens / 2),
            stmts: Vec::with_capacity(tokens / 16),
            bindings: Vec::with_capacity(tokens / 16),
        }
    }

    pub fn alloc(&mut self, expr: Expr<'a>) -> ExprId {
        self.exprs.push(expr);
        ExprId(self.exprs.len() as u32 - 1)
    }

    pub fn seal_exprs(&mut self, pending: &mut Vec<Expr<'a>>, mark: usize) -> Run {
        seal(&mut self.exprs, pending, mark)
    }

    pub fn seal_stmts(&mut self, pending: &mut Vec<Stmt<'a>>, mark: usize) -> Run {
        seal(&mut self.stmts, pending, mark)
    }

    pub fn seal_bindings(&mut self, pending: &mut Vec<Binding<'a>>, mark: usize) -> Run {
        seal(&mut self.bindings, pending, mark)
    }

    pub fn expr(&self, id: ExprId) -> &Expr<'a> {
        &self.exprs[id.0 as usize]
    }

    pub fn stmts(&self, run: Run) -> &[Stmt<'a>] {
        &self.stmts[run.start as usize..run.end as usize]
    }

    pub fn bindings(&self, run: Run) -> &[Binding<'a>] {
        &self.bindings[run.start as usize..run.end as usize]
    }
}

/// A top-level item.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Item<'a> {
    /// `cell name(params) { body }` — a parameterised layout generator.
    Cell(Def<'a>),
    /// `fn name(params) { body }` — a value-returning procedure.
    Fn(Def<'a>),
    /// `type name { field, ... }` — a record type (data-type extension);
    /// the fields are its `params`, the body is empty.
    Type(Def<'a>),
    /// A statement executed in the implicit top cell.
    Stmt(Stmt<'a>),
}

/// A name and the expression that goes with it, if any: a parameter and
/// its default, a field of a record literal and its value, a field of a
/// `type` (no expression).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Binding<'a> {
    pub name: &'a str,
    pub value: Option<ExprId>,
}

/// A `cell`, `fn` or `type` definition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Def<'a> {
    pub name: &'a str,
    pub params: Run,
    pub body: Run,
    pub line: u32,
}

/// A statement with its source line for diagnostics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stmt<'a> {
    pub kind: StmtKind<'a>,
    pub line: u32,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StmtKind<'a> {
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
        cell: &'a str,
        args: Run,
        at: ExprId,
        orient: Orientation,
    },
    /// `array cell(args) at (x,y) step (dx,dy) [(dx2,dy2)] count n [m]
    /// [orientation...];`
    ArrayPlace {
        cell: &'a str,
        args: Run,
        at: ExprId,
        step: ExprId,
        step2: Option<ExprId>,
        count: ExprId,
        count2: Option<ExprId>,
        orient: Orientation,
    },
    /// `let name = expr;`
    Let { name: &'a str, value: ExprId },
    /// `name = expr;`
    Assign { name: &'a str, value: ExprId },
    /// `for i in a .. b { body }`
    For {
        var: &'a str,
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
pub enum Expr<'a> {
    Int(i64),
    Bool(bool),
    Str(&'a str),
    /// `(x, y)` — a point literal.
    Point(ExprId, ExprId),
    /// `[a, b, c]` — a list literal.
    List(Run),
    Ident(&'a str),
    /// `name { field: value, ... }` — record construction.
    Record {
        type_name: &'a str,
        fields: Run,
    },
    /// `f(args)` — function call.
    Call {
        name: &'a str,
        args: Run,
    },
    /// `expr.field` — record field access (also `.x`/`.y` on points).
    Field {
        base: ExprId,
        field: &'a str,
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

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    Neg,
    Not,
}
