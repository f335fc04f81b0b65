use crate::ast::*;
use crate::error::Fallible;
use crate::parser::{parse, MAX_DEPTH};
use crate::value::Value;
use crate::LangError;
use silc_geom::{
    Coord, Dec, DecodeError, Fingerprint, FpHasher, Path, Persist, Point, Polygon, Rect, Transform,
    MAX_COORD,
};
use silc_layout::{Cell, CellId, Element, Instance, Layer, Library, Port, MAX_FLAT_ELEMENTS};
use silc_trace::{span, Tracer};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::OnceLock;

/// The result of compiling a SIL program: a layout library plus the id of
/// the implicit top cell (named `main`) holding the program's top-level
/// geometry and placements.
#[derive(Debug)]
pub struct Design {
    /// The elaborated hierarchy.
    pub library: Library,
    /// The implicit top cell.
    pub top: CellId,
}

impl Fingerprint for Design {
    fn fp_hash(&self, h: &mut FpHasher) {
        self.library.fp_hash(h);
        self.top.fp_hash(h);
    }
}

impl Persist for Design {
    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        let library = Library::decode(d)?;
        let top = CellId::decode(d)?;
        if library.cell(top).is_none() {
            return Err(format!("top cell id {} not in library", top.raw()));
        }
        Ok(Design { library, top })
    }
}

/// The SIL compiler: parses a program and elaborates it into a layout
/// hierarchy.
///
/// Parameterised cells are elaborated lazily and **memoized per argument
/// tuple**: placing `shifter(8)` twice emits one library cell instanced
/// twice, preserving the sharing a graphics language's symbol facility
/// provides. A variant is its argument values, compared exactly; its
/// library name (`shifter$i8`) is made unique by
/// [`Library::add_cell_renamed`], and so is the top cell's, `main`.
///
/// # Example
///
/// ```
/// use silc_lang::Compiler;
/// # fn main() -> Result<(), silc_lang::LangError> {
/// let design = Compiler::new().compile(
///     "cell pad() { box metal (0,0) (8,8); }
///      place pad() at (0, 0);
///      place pad() at (20, 0);")?;
/// assert!(design.library.cell_by_name("pad").is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Compiler {
    tracer: Tracer,
}

/// The standard-cell prelude: Mead–Conway leaf cells available to every
/// SIL program (placed like any user cell, elaborated only when used).
/// All are DRC-clean under `RuleSet::mead_conway_nmos`.
///
/// | cell | purpose | ports |
/// |---|---|---|
/// | `std_contact_md()` | metal–diffusion contact | `c` |
/// | `std_contact_mp()` | metal–poly contact | `c` |
/// | `std_butting()` | butting contact (poly+diff under one cut) | `c` |
/// | `std_pullup()` | depletion pullup load | `out` |
/// | `std_pass()` | pass transistor | `g`, `a`, `b` |
/// | `std_inv()` | depletion-load inverter | `inp`, `out`, `vdd`, `gnd` |
pub const PRELUDE: &str = r#"
cell std_contact_md() {
    box diff (-2, -2) (2, 2);
    box metal (-2, -2) (2, 2);
    box contact (-1, -1) (1, 1);
    port c metal (0, 0);
}
cell std_contact_mp() {
    box poly (-2, -2) (2, 2);
    box metal (-2, -2) (2, 2);
    box contact (-1, -1) (1, 1);
    port c metal (0, 0);
}
cell std_butting() {
    box poly (-2, -3) (2, 0);
    box diff (-2, 0) (2, 3);
    box metal (-2, -3) (2, 3);
    box contact (-1, -2) (1, 2);
    port c metal (0, 0);
}
cell std_pullup() {
    box implant (-4, -4) (8, 4);
    box diff (-3, -2) (6, 2);
    box poly (-1, -4) (1, 4);
    box contact (3, -1) (5, 1);
    box metal (2, -2) (6, 2);
    port out metal (4, 0);
}
cell std_pass() {
    box diff (-4, -1) (4, 1);
    box poly (-1, -4) (1, 4);
    port g poly (0, 4);
    port a diff (-4, 0);
    port b diff (4, 0);
}
cell std_inv() {
    box diff (0, 0) (4, 30);
    box poly (-4, 8) (8, 10);
    box poly (-4, 20) (8, 22);
    box implant (-2, 18) (6, 24);
    box contact (1, 14) (3, 16);
    box metal (0, 13) (12, 17);
    box buried (-4, 14) (0, 21);
    port inp poly (-4, 9);
    port out metal (12, 15);
    port gnd diff (2, 0);
    port vdd diff (2, 30);
}
"#;

impl Compiler {
    /// Creates a compiler.
    pub fn new() -> Compiler {
        Compiler::default()
    }

    /// Attaches a [`Tracer`]: parsing (the lexer runs inside it) and
    /// elaboration record `lang.*` spans and counters on it. The default
    /// (disabled) tracer costs nothing.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Compiler {
        self.tracer = tracer;
        self
    }

    /// Compiles SIL source into a layout design.
    ///
    /// # Errors
    ///
    /// Returns [`LangError`] for syntax errors (with position) and for
    /// elaboration errors (with the offending statement's line).
    pub fn compile(&self, source: &str) -> Result<Design, LangError> {
        let program = {
            let mut s = span!(self.tracer, "lang.parse");
            let program = parse(source)?;
            s.attr("tokens", program.tokens);
            s.attr("items", program.items.len() as u64);
            program
        };
        let elab_span = span!(self.tracer, "lang.elaborate");
        let mut interp = Interp::new(&program);
        let top = interp.run().map_err(|e| *e)?;
        drop(elab_span);
        self.tracer.add("lang.cells", interp.lib.len() as u64);
        self.tracer
            .add("lang.cells_elaborated", interp.cells_elaborated);
        self.tracer.add("lang.memo_hits", interp.memo_hits);
        Ok(Design {
            library: interp.lib,
            top,
        })
    }
}

/// The parsed [`PRELUDE`]: it borrows a `'static` source, so one parse
/// serves every compile of the process.
fn prelude() -> &'static Program<'static> {
    static TREE: OnceLock<Program<'static>> = OnceLock::new();
    TREE.get_or_init(|| parse(PRELUDE).expect("the prelude is valid SIL"))
}

// -------------------------------------------------------------------
// Names
// -------------------------------------------------------------------

/// The three kinds of definition, each named in a map of its own.
#[derive(Clone, Copy)]
enum Kind {
    Cell,
    Fn,
    Type,
}

/// A definition under its name: its item, counting the prelude's items
/// before the program's, and once it is used, its index in
/// [`Defs::used`] ([`NONE`] until then).
#[derive(Clone, Copy)]
struct Registered {
    item: u32,
    used: u32,
}

/// A definition in use: the tree it indexes, and once its body has run,
/// where the names of the body resolve.
#[derive(Clone, Copy)]
struct Defined<'p> {
    tree: &'p Program<'p>,
    def: &'p Def,
    names: Option<Names>,
}

/// The definitions of a compile, each kind by name. A definition is copied
/// out into `used` the first time a body that runs names it (a placement
/// that runs, a call or a record literal in a body resolved), and resolved
/// names refer to it there: one never named so keeps only its entry in a
/// map, eight bytes beside its name.
struct Defs<'p> {
    program: &'p Program<'p>,
    by_name: [HashMap<&'p str, Registered>; 3],
    used: Vec<Defined<'p>>,
}

impl<'p> Defs<'p> {
    /// The index in `used` of the definition of `kind` called `name`.
    fn find(&mut self, kind: Kind, name: &str) -> Option<u32> {
        let entry = self.by_name[kind as usize].get_mut(name)?;
        if entry.used == NONE {
            let prelude = prelude();
            let item = entry.item as usize;
            let (tree, item) = match item.checked_sub(prelude.items.len()) {
                Some(item) => (self.program, item),
                None => (prelude, item),
            };
            let (Item::Cell(def) | Item::Fn(def) | Item::Type(def)) = &tree.items[item] else {
                unreachable!("only definitions are registered");
            };
            entry.used = self.used.len() as u32;
            let names = None;
            self.used.push(Defined { tree, def, names });
        }
        Some(entry.used)
    }
}

/// What a name in a body resolves to, by the expression that holds it, in
/// a window of [`Interp::slots`]: entry `at + (e - lo)` for expression
/// `e` in `lo..lo + len`. For an [`Expr::Ident`] (a read, or the target of
/// an assignment) the entry is its slot in the running frame, for an
/// [`Expr::Call`] the `fn` it calls, for an [`Expr::Record`] its `type`,
/// both as indices into [`Defs::used`]. A name that resolves to nothing
/// (an undefined variable, a builtin, an unknown type) has no entry, so
/// the error it raises, if it runs, is raised where it always was.
#[derive(Clone, Copy, Default)]
struct Names {
    lo: u32,
    at: u32,
    len: u32,
}

/// No entry: a name that resolves to nothing, or a definition not used
/// yet.
const NONE: u32 = u32::MAX;

impl Names {
    fn get(self, slots: &[u32], e: ExprId) -> Option<u32> {
        let i = e.raw().wrapping_sub(self.lo);
        if i >= self.len {
            return None;
        }
        let entry = slots[(self.at + i) as usize];
        (entry != NONE).then_some(entry)
    }
}

/// Resolves the names of a body to slots of its frame, once, before the
/// body first runs.
///
/// A frame's slots are its parameters, then its `let`s and `for`
/// variables in the order they run, and a block's are given back when it
/// ends. So the slot of a binding is the number of bindings in scope
/// where it is made, the same at every run, and the evaluator makes a
/// binding by pushing it onto the value stack. Within a block statements
/// run in order and nothing jumps back, so a name read at a point means
/// the binding textually last made before it in the innermost block that
/// has one: what a search of the scopes live at that point finds.
#[derive(Default)]
struct Resolver<'p> {
    /// The slot of every name in scope, its innermost binding.
    scope: HashMap<&'p str, u32>,
    /// Every binding in scope in slot order, with the slot its name had
    /// before it: closing a block pops back to the block's mark.
    bound: Vec<(&'p str, Option<u32>)>,
    /// `(expression, entry)` for every name resolved since the last seal.
    found: Vec<(u32, u32)>,
}

impl<'p> Resolver<'p> {
    /// The names of a `cell` or `fn`. Defaults run with nothing in scope,
    /// so theirs are resolved before any parameter is bound. A `fn` body
    /// runs as a block under its parameters and a cell body beside them,
    /// which binds alike.
    fn def(&mut self, defs: &mut Defs<'p>, tree: &'p Program<'p>, def: &Def) {
        self.scope.clear();
        self.bound.clear();
        let params = tree.bindings(def.params);
        for default in params.iter().filter_map(|p| p.value) {
            self.expr(defs, tree, default);
        }
        for param in params {
            self.bind(tree.text(param.name));
        }
        for stmt in tree.stmts(def.body) {
            self.stmt(defs, tree, stmt);
        }
    }

    fn bind(&mut self, name: &'p str) {
        let slot = self.bound.len() as u32;
        self.bound.push((name, self.scope.insert(name, slot)));
    }

    fn block(&mut self, defs: &mut Defs<'p>, tree: &'p Program<'p>, body: Run) {
        let mark = self.bound.len();
        for stmt in tree.stmts(body) {
            self.stmt(defs, tree, stmt);
        }
        self.close(mark);
    }

    /// Gives back the bindings past `mark`, innermost first.
    fn close(&mut self, mark: usize) {
        for (name, shadowed) in self.bound.drain(mark..).rev() {
            match shadowed {
                Some(slot) => self.scope.insert(name, slot),
                None => self.scope.remove(name),
            };
        }
    }

    fn stmt(&mut self, defs: &mut Defs<'p>, tree: &'p Program<'p>, stmt: &Stmt) {
        match stmt.kind {
            StmtKind::Box { layer, a, b } => self.exprs(defs, tree, [layer, a, b]),
            StmtKind::Wire {
                layer,
                width,
                points,
            } => self.exprs(defs, tree, [layer, width].into_iter().chain(points.ids())),
            StmtKind::Polygon { layer, points } => {
                self.exprs(defs, tree, [layer].into_iter().chain(points.ids()));
            }
            StmtKind::Port { name, layer, at } => self.exprs(defs, tree, [name, layer, at]),
            StmtKind::Place { args, at, .. } => self.exprs(defs, tree, args.ids().chain([at])),
            StmtKind::ArrayPlace {
                args,
                at,
                step,
                step2,
                count,
                count2,
                ..
            } => {
                let rest = [at, step, count].into_iter().chain(step2).chain(count2);
                self.exprs(defs, tree, args.ids().chain(rest));
            }
            StmtKind::Let { name, value } => {
                self.expr(defs, tree, value);
                self.bind(tree.text(name));
            }
            StmtKind::Assign { target, value } => self.exprs(defs, tree, [target, value]),
            StmtKind::For {
                var,
                from,
                to,
                body,
            } => {
                self.exprs(defs, tree, [from, to]);
                let mark = self.bound.len();
                self.bind(tree.text(var));
                self.block(defs, tree, body);
                self.close(mark);
            }
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                self.expr(defs, tree, cond);
                self.block(defs, tree, then_body);
                self.block(defs, tree, else_body);
            }
            StmtKind::Return { value } => self.exprs(defs, tree, value),
            StmtKind::Expr { value } => self.expr(defs, tree, value),
        }
    }

    fn exprs(
        &mut self,
        defs: &mut Defs<'p>,
        tree: &'p Program<'p>,
        exprs: impl IntoIterator<Item = ExprId>,
    ) {
        for e in exprs {
            self.expr(defs, tree, e);
        }
    }

    /// Resolves the names under `e`; the parser bounds how deep that
    /// recurses.
    fn expr(&mut self, defs: &mut Defs<'p>, tree: &'p Program<'p>, e: ExprId) {
        let mut found = |entry: Option<u32>| {
            if let Some(entry) = entry {
                self.found.push((e.raw(), entry));
            }
        };
        match *tree.expr(e) {
            Expr::Int(_) | Expr::Bool(_) | Expr::Str(_) => {}
            Expr::Ident(name) => found(self.scope.get(tree.text(name)).copied()),
            Expr::Record { type_name, fields } => {
                found(defs.find(Kind::Type, tree.text(type_name)));
                let values = tree.bindings(fields).iter().filter_map(|f| f.value);
                self.exprs(defs, tree, values);
            }
            Expr::Call { name, args } => {
                found(defs.find(Kind::Fn, tree.text(name)));
                self.exprs(defs, tree, args.ids());
            }
            Expr::List(items) => self.exprs(defs, tree, items.ids()),
            Expr::Field { base, .. } => self.expr(defs, tree, base),
            Expr::Unary { expr, .. } => self.expr(defs, tree, expr),
            Expr::Point(l, r)
            | Expr::Index { base: l, index: r }
            | Expr::Binary { lhs: l, rhs: r, .. } => self.exprs(defs, tree, [l, r]),
        }
    }

    /// Writes what was found since the last seal into `slots` as one
    /// window, sized by the expressions that hold a name and no more.
    fn seal(&mut self, slots: &mut Vec<u32>) -> Names {
        let Some(lo) = self.found.iter().map(|f| f.0).min() else {
            return Names::default();
        };
        let hi = self.found.iter().map(|f| f.0).max().unwrap_or(lo);
        let at = slots.len();
        slots.resize(at + (hi - lo) as usize + 1, NONE);
        for &(e, entry) in &self.found {
            slots[at + (e - lo) as usize] = entry;
        }
        self.found.clear();
        Names {
            lo,
            at: at as u32,
            len: hi - lo + 1,
        }
    }
}

/// The code running: the tree it indexes, where its names resolve, and
/// where its window on the value stack starts.
struct Frame<'p> {
    tree: &'p Program<'p>,
    names: Names,
    base: usize,
}

enum Flow {
    Normal,
    Return(Value),
}

/// A value read: a variable's, in place on the stack, or one evaluated.
enum Operand {
    Local(usize),
    Owned(Value),
}

impl Operand {
    fn get<'a>(&'a self, stack: &'a [Value]) -> &'a Value {
        match self {
            Operand::Local(at) => &stack[*at],
            Operand::Owned(value) => value,
        }
    }
}

// -------------------------------------------------------------------
// Interpreter
// -------------------------------------------------------------------

/// A cell variant: the cell, by its index in [`Defs::used`], and its bound
/// arguments, compared exactly.
type Variant = (u32, Vec<Value>);

/// The evaluator. `'p` is the parsed program and the prelude: definitions
/// are registered and run by reference, never copied.
struct Interp<'p> {
    defs: Defs<'p>,
    resolver: Resolver<'p>,
    /// The windows of every body resolved so far, end to end.
    slots: Vec<u32>,
    /// The variables of every frame running, innermost last.
    stack: Vec<Value>,
    lib: Library,
    /// Every variant met so far, and its index in `variants`.
    memo: HashMap<Variant, usize>,
    /// Per variant, its cell: `None` while it elaborates.
    variants: Vec<Option<CellId>>,
    /// Per elaborated cell by raw id, the largest coordinate magnitude
    /// anything under it reaches in the cell's own frame (at most
    /// [`MAX_COORD`]).
    reach: Vec<i128>,
    /// Evaluator frames live right now; see [`MAX_FRAMES`].
    frames: usize,
    /// Steps taken so far; see [`MAX_STEPS`].
    steps: u64,
    /// Copies placed so far by diagonal arrays, which expand to single
    /// placements: at most [`MAX_FLAT_ELEMENTS`] in one compile.
    diagonal_copies: u64,
    cells_elaborated: u64,
    memo_hits: u64,
}

type CellSlot<'a, 'b> = Option<&'a mut Cell>;

/// How many `eval` and `exec_block` frames may be live at once. Every
/// call of a `fn` enters an `exec_block`, so this bounds recursion by
/// the stack it takes (a call costs as many frames as its body nests)
/// rather than by the number of calls. The parser lets one tree reach
/// 64 levels, so only a recursive `fn` or a chain of cells each placing
/// the next gets here. Sized for the 2 MiB stack of a `silc serve`
/// worker: a frame and the `exec_stmt` under it measure up to 1.1 KiB
/// optimised and 7.5 KiB in a debug build (a body of nested `if`s; the
/// least stack a thread needs for a recursion, over its depth).
const MAX_FRAMES: usize = if cfg!(debug_assertions) { 96 } else { 1024 };

/// How many steps one compile may take in all: a step is an expression
/// evaluated or a block run, so every loop iteration and every `fn` call
/// takes one at least, and a value read out of a variable, a list or a
/// record takes one more for every value in it past the first.
/// [`MAX_FRAMES`] bounds how deep a program goes, this how long it runs:
/// `for i in 0..1 << 62 { }`, a `fn` that calls itself twice, or `l = [l]`
/// in a loop would otherwise hold a `silc serve` worker long after its
/// reply. The programs of the tests, the examples and the benchmark
/// (seeds 5, 11 and 23) take 27 854 steps at most, the tests of this
/// budget, of the value bound, of random soups and of what a read or a
/// call costs aside.
const MAX_STEPS: u64 = 1 << 24;

/// The largest value a program may build, by [`Value::size`]: a string
/// made by `+` or `str()` of at most this many bytes, a list or a record
/// literal of at most this many values counted deeply. Without it a
/// value that doubles each trip of a loop asks for 2⁶⁴ bytes long before
/// [`MAX_STEPS`] runs out. The programs of the tests, the examples and the
/// benchmark build a list of 257 values and a string of 3 bytes at most.
const MAX_VALUE_SIZE: usize = 1 << 20;

/// An evaluation error on `line`.
fn fail(line: usize, message: impl Into<String>) -> Box<LangError> {
    Box::new(LangError::eval(line, message))
}

impl<'p> Interp<'p> {
    fn new(program: &'p Program<'p>) -> Interp<'p> {
        Interp {
            defs: Defs {
                program,
                by_name: Default::default(),
                used: Vec::new(),
            },
            resolver: Resolver::default(),
            slots: Vec::new(),
            stack: Vec::new(),
            lib: Library::default(),
            memo: HashMap::new(),
            variants: Vec::new(),
            reach: Vec::new(),
            frames: 0,
            steps: 0,
            diagonal_copies: 0,
            cells_elaborated: 0,
            memo_hits: 0,
        }
    }

    /// Registers the definitions of the prelude and of the program, then
    /// runs the program's top-level statements into the top cell, `main`.
    fn run(&mut self) -> Fallible<CellId> {
        let program = self.defs.program;
        // Register definitions first so order of items is free. The
        // standard-cell prelude is always in scope.
        let mut top = Vec::new();
        let items = [prelude(), program]
            .into_iter()
            .flat_map(|tree| tree.items.iter().map(move |item| (tree, item)));
        for (at, (tree, item)) in items.enumerate() {
            let (kind, what, def) = match item {
                Item::Cell(def) => (Kind::Cell, "cell", def),
                Item::Fn(def) => (Kind::Fn, "fn", def),
                Item::Type(def) => (Kind::Type, "type", def),
                Item::Stmt(stmt) => {
                    top.push((tree, stmt));
                    continue;
                }
            };
            let name = tree.text(def.name);
            // An item takes two bytes of a source under 4 GiB at least.
            let item = u32::try_from(at).expect("fewer than 2^32 items");
            let entry = Registered { item, used: NONE };
            let named = &mut self.defs.by_name[kind as usize];
            if named.insert(name, entry).is_some() {
                return Err(fail(
                    def.line as usize,
                    format!("{what} `{name}` is defined twice"),
                ));
            }
        }
        // The top level is one body, resolved before any of it runs; each
        // statement keeps a window of its own, so none spans the
        // definitions between them.
        let top: Vec<_> = top
            .into_iter()
            .map(|(tree, stmt)| {
                self.resolver.stmt(&mut self.defs, tree, stmt);
                let names = self.resolver.seal(&mut self.slots);
                (
                    Frame {
                        tree,
                        names,
                        base: 0,
                    },
                    stmt,
                )
            })
            .collect();
        let mut main = Cell::new("main");
        for (frame, stmt) in &top {
            if let Flow::Return(_) = self.exec_stmt(stmt, frame, &mut Some(&mut main))? {
                return Err(fail(stmt.line as usize, "return outside a function"));
            }
        }
        self.lib
            .add_cell_renamed(main)
            .map_err(|e| fail(0, e.to_string()))
    }

    /// The `cell` or `fn` used as `index`, and a frame for it with its
    /// window at `base`, its names resolved on its first run.
    fn frame(&mut self, index: u32, base: usize) -> (Frame<'p>, &'p Def) {
        let Defined { tree, def, names } = self.defs.used[index as usize];
        let names = names.unwrap_or_else(|| {
            self.resolver.def(&mut self.defs, tree, def);
            let names = self.resolver.seal(&mut self.slots);
            self.defs.used[index as usize].names = Some(names);
            names
        });
        (Frame { tree, names, base }, def)
    }

    // ---------------------------------------------------------------
    // Cell elaboration
    // ---------------------------------------------------------------

    /// Checks the arguments on the stack above `f.base` against the
    /// parameters of `def`, a `cell` or `fn`, and pushes the defaults of
    /// the missing trailing ones: afterwards the window holds the value
    /// of each parameter, in order. Defaults see no variable.
    fn bind(
        &mut self,
        what: &str,
        counted: &str,
        f: &Frame<'p>,
        def: &Def,
        line: usize,
    ) -> Fallible<()> {
        let given = self.stack.len() - f.base;
        let name = f.tree.text(def.name);
        let params = f.tree.bindings(def.params);
        if given > params.len() {
            return Err(fail(
                line,
                format!(
                    "{what} `{name}` takes {} {counted}(s), got {given}",
                    params.len()
                ),
            ));
        }
        for param in &params[given..] {
            let Some(default) = param.value else {
                let pname = f.tree.text(param.name);
                return Err(fail(
                    line,
                    format!("{what} `{name}` missing argument `{pname}`"),
                ));
            };
            let value = self.eval(default, f, line)?;
            self.stack.push(value);
        }
        Ok(())
    }

    /// The cell `name` of the arguments on the stack above `base`, which
    /// become the window of its body if this variant is new.
    fn elaborate_cell(&mut self, name: &str, base: usize, line: usize) -> Fallible<CellId> {
        let index = self
            .defs
            .find(Kind::Cell, name)
            .ok_or_else(|| fail(line, format!("cell `{name}` is not defined")))?;
        let (f, def) = self.frame(index, base);
        self.bind("cell", "parameter", &f, def, line)?;
        let variant = self.variants.len();
        let cell_name = match self.memo.entry((index, self.stack[base..].to_vec())) {
            Entry::Occupied(hit) => {
                let id = self.variants[*hit.get()].ok_or_else(|| {
                    Box::new(LangError::RecursiveCell {
                        name: name.to_string(),
                    })
                })?;
                self.memo_hits += 1;
                self.stack.truncate(base);
                return Ok(id);
            }
            Entry::Vacant(miss) => {
                let cell_name = variant_name(name, &miss.key().1);
                miss.insert(variant);
                cell_name
            }
        };
        // Cells nest on the machine stack as calls do: this frame and the
        // `exec_stmt` under it take 1.4 KiB optimised and 8.6 KiB in a
        // debug build, two frames' worth. The body is owed what its deepest
        // statement can need, so a `fn` is never blamed for running out.
        if self.frames + 2 + MAX_DEPTH > MAX_FRAMES {
            return Err(fail(line, "cell nesting too deep"));
        }
        self.variants.push(None);
        self.frames += 2;
        let mut cell = Cell::new(cell_name);
        for stmt in f.tree.stmts(def.body) {
            let flow = self.exec_stmt(stmt, &f, &mut Some(&mut cell))?;
            if let Flow::Return(_) = flow {
                return Err(fail(
                    stmt.line as usize,
                    "return is not allowed in a cell body",
                ));
            }
        }
        self.frames -= 2;
        self.stack.truncate(base);

        let reach = self.cell_reach(&cell);
        let id = self
            .lib
            .add_cell_renamed(cell)
            .map_err(|e| fail(def.line as usize, e.to_string()))?;
        self.reach.push(reach);
        self.variants[variant] = Some(id);
        self.cells_elaborated += 1;
        Ok(id)
    }

    // ---------------------------------------------------------------
    // Statements
    // ---------------------------------------------------------------

    fn exec_block(
        &mut self,
        body: Run,
        f: &Frame<'p>,
        cell: &mut CellSlot<'_, '_>,
        line: usize,
    ) -> Fallible<Flow> {
        self.enter(line)?;
        let mark = self.stack.len();
        let mut flow = Flow::Normal;
        for stmt in f.tree.stmts(body) {
            flow = self.exec_stmt(stmt, f, cell)?;
            if let Flow::Return(_) = flow {
                break;
            }
        }
        self.stack.truncate(mark);
        self.frames -= 1;
        Ok(flow)
    }

    /// Takes one frame and one step of the budgets. An error abandons the
    /// compile, so only the paths that return a value give their frame
    /// back, and their slots.
    fn enter(&mut self, line: usize) -> Fallible<()> {
        if self.frames >= MAX_FRAMES {
            return Err(fail(line, "function recursion too deep"));
        }
        charge(&mut self.steps, 1, line)?;
        self.frames += 1;
        Ok(())
    }

    /// What an [`eval`](Self::eval) of a leaf takes of the budgets, for a
    /// leaf read in place.
    fn leaf(&mut self, line: usize) -> Fallible<()> {
        self.enter(line)?;
        self.frames -= 1;
        Ok(())
    }

    /// Where on the stack the variable `e` (an [`Expr::Ident`] of `name`)
    /// lives.
    fn local(&self, f: &Frame<'p>, e: ExprId, name: Sym, line: usize) -> Fallible<usize> {
        match f.names.get(&self.slots, e) {
            Some(slot) => Ok(f.base + slot as usize),
            None => Err(fail(
                line,
                format!("`{}` is not defined", f.tree.text(name)),
            )),
        }
    }

    /// The value of `e`: read in place if `e` names a variable (the base
    /// of `name.field` or `name[i]`), else evaluated.
    fn operand(&mut self, e: ExprId, f: &Frame<'p>, line: usize) -> Fallible<Operand> {
        match *f.tree.expr(e) {
            Expr::Ident(name) => {
                self.leaf(line)?;
                Ok(Operand::Local(self.local(f, e, name, line)?))
            }
            _ => Ok(Operand::Owned(self.eval(e, f, line)?)),
        }
    }

    /// Evaluates the expressions of `run` onto the stack, in order.
    fn push_all(&mut self, run: Run, f: &Frame<'p>, line: usize) -> Fallible<()> {
        for e in run.ids() {
            let value = self.eval(e, f, line)?;
            self.stack.push(value);
        }
        Ok(())
    }

    fn exec_stmt(
        &mut self,
        stmt: &Stmt,
        f: &Frame<'p>,
        cell: &mut CellSlot<'_, '_>,
    ) -> Fallible<Flow> {
        let line = stmt.line as usize;
        match stmt.kind {
            StmtKind::Box { layer, a, b } => {
                let layer = self.eval_layer(layer, f, line)?;
                let pa = self.eval_point(a, f, line)?;
                let pb = self.eval_point(b, f, line)?;
                let rect = Rect::new(pa, pb).map_err(|e| fail(line, e.to_string()))?;
                self.target(cell, line)?
                    .push_element(Element::rect(layer, rect));
            }
            StmtKind::Wire {
                layer,
                width,
                points,
            } => {
                let layer = self.eval_layer(layer, f, line)?;
                let w = self.eval_int(width, f, line)?;
                let pts = self.eval_points(points, f, line)?;
                let path = Path::new(w, pts).map_err(|e| fail(line, e.to_string()))?;
                let wire = Element::new(layer, path);
                in_range(far_corner(wire.bbox()), line)?;
                self.target(cell, line)?.push_element(wire);
            }
            StmtKind::Polygon { layer, points } => {
                let layer = self.eval_layer(layer, f, line)?;
                let pts = self.eval_points(points, f, line)?;
                let poly = Polygon::new(pts).map_err(|e| fail(line, e.to_string()))?;
                self.target(cell, line)?
                    .push_element(Element::new(layer, poly));
            }
            StmtKind::Port { name, layer, at } => {
                let name_value = self.eval(name, f, line)?;
                let Value::Str(port_name) = name_value else {
                    return Err(fail(
                        line,
                        format!("port name must be a string, got {}", name_value.type_name()),
                    ));
                };
                let layer = self.eval_layer(layer, f, line)?;
                let p = self.eval_point(at, f, line)?;
                self.target(cell, line)?
                    .push_port(Port::new(port_name, layer, p));
            }
            StmtKind::Place {
                cell: child,
                args,
                at,
                orient,
            } => {
                let base = self.stack.len();
                self.push_all(args, f, line)?;
                let at = self.eval_point(at, f, line)?;
                let child_id = self.elaborate_cell(f.tree.text(child), base, line)?;
                let inst = Instance::place(child_id, Transform::new(orient, at));
                in_range(self.instance_reach(&inst), line)?;
                self.target(cell, line)?.push_instance(inst);
            }
            StmtKind::ArrayPlace {
                cell: child,
                args,
                at,
                step,
                step2,
                count,
                count2,
                orient,
            } => {
                let base = self.stack.len();
                self.push_all(args, f, line)?;
                let at = self.eval_point(at, f, line)?;
                let step = self.eval_point(step, f, line)?;
                let step2 = step2.map(|s| self.eval_point(s, f, line)).transpose()?;
                let count = self.eval_int(count, f, line)?;
                let count2 = count2
                    .map(|c| self.eval_int(c, f, line))
                    .transpose()?
                    .unwrap_or(1);
                if count < 1 || count2 < 1 {
                    return Err(fail(line, "array count must be at least 1"));
                }
                let count_u32 = |n: i64| {
                    u32::try_from(n)
                        .map_err(|_| fail(line, format!("array count {n} is above {}", u32::MAX)))
                };
                let (cols, rows) = (count_u32(count)?, count_u32(count2)?);
                let child_id = self.elaborate_cell(f.tree.text(child), base, line)?;
                // The copies farthest out sit at the corners of the array.
                let along = |axis: fn(Point) -> Coord, i: i64, j: i64| {
                    let step2 = step2.map_or(0, axis);
                    i128::from(axis(at))
                        + i128::from(axis(step)) * i128::from(i)
                        + i128::from(step2) * i128::from(j)
                };
                let span = [
                    (0, 0),
                    (count - 1, 0),
                    (0, count2 - 1),
                    (count - 1, count2 - 1),
                ]
                .into_iter()
                .map(|(i, j)| along(|p| p.x, i, j).abs().max(along(|p| p.y, i, j).abs()))
                .max()
                .expect("four corners");
                in_range(span + self.reach[child_id.raw() as usize], line)?;
                let target = self.target(cell, line)?;
                // Axis-aligned steps map onto native array instances
                // (compact in CIF); diagonal steps expand to placements.
                let axis_ok = step.y == 0 && step2.is_none_or(|s| s.x == 0);
                if axis_ok {
                    let dy = step2.map_or(0, |s| s.y);
                    let inst = Instance::array(
                        child_id,
                        Transform::new(orient, at),
                        cols,
                        rows,
                        step.x,
                        dy,
                    )
                    .map_err(|e| fail(line, e.to_string()))?;
                    target.push_instance(inst);
                } else {
                    // Past this many copies flattening refuses the design;
                    // counted over the compile, so a loop cannot repeat
                    // its way past it. Two `u32`s multiply exactly in a
                    // `u64`.
                    self.diagonal_copies += u64::from(cols) * u64::from(rows);
                    if self.diagonal_copies > MAX_FLAT_ELEMENTS as u64 {
                        return Err(fail(
                            line,
                            format!(
                                "a diagonal array of {count} x {count2} copies; \
                                 at most {MAX_FLAT_ELEMENTS} can be placed"
                            ),
                        ));
                    }
                    for j in 0..count2 {
                        for i in 0..count {
                            let offset = Point::new(
                                at.x + step.x * i + step2.map_or(0, |s| s.x) * j,
                                at.y + step.y * i + step2.map_or(0, |s| s.y) * j,
                            );
                            target.push_instance(Instance::place(
                                child_id,
                                Transform::new(orient, offset),
                            ));
                        }
                    }
                }
            }
            StmtKind::Let { value, .. } => {
                let v = self.eval(value, f, line)?;
                self.stack.push(v);
            }
            StmtKind::Assign { target, value } => {
                let v = self.eval(value, f, line)?;
                let Some(slot) = f.names.get(&self.slots, target) else {
                    let Expr::Ident(name) = *f.tree.expr(target) else {
                        unreachable!("the parser stores an assignment's target as a name");
                    };
                    return Err(fail(
                        line,
                        format!("assignment to undefined variable `{}`", f.tree.text(name)),
                    ));
                };
                self.stack[f.base + slot as usize] = v;
            }
            StmtKind::For { from, to, body, .. } => {
                let from = self.eval_int(from, f, line)?;
                let to = self.eval_int(to, f, line)?;
                for i in from..to {
                    self.stack.push(Value::Int(i));
                    let flow = self.exec_block(body, f, cell, line)?;
                    self.stack.pop();
                    if let Flow::Return(_) = flow {
                        return Ok(flow);
                    }
                }
            }
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = self.eval(cond, f, line)?;
                let c = c.as_bool().ok_or_else(|| {
                    fail(
                        line,
                        format!("if condition must be bool, got {}", c.type_name()),
                    )
                })?;
                let body = if c { then_body } else { else_body };
                return self.exec_block(body, f, cell, line);
            }
            StmtKind::Return { value } => {
                let v = match value {
                    Some(e) => self.eval(e, f, line)?,
                    None => Value::Int(0),
                };
                return Ok(Flow::Return(v));
            }
            StmtKind::Expr { value } => {
                self.eval(value, f, line)?;
            }
        }
        Ok(Flow::Normal)
    }

    fn target<'a>(&self, cell: &'a mut CellSlot<'_, '_>, line: usize) -> Fallible<&'a mut Cell> {
        cell.as_deref_mut()
            .ok_or_else(|| fail(line, "geometry statements are not allowed inside fn bodies"))
    }

    // ---------------------------------------------------------------
    // Expressions
    // ---------------------------------------------------------------

    fn eval(&mut self, e: ExprId, f: &Frame<'p>, line: usize) -> Fallible<Value> {
        self.enter(line)?;
        let value = self.eval_expr(e, f, line)?;
        self.frames -= 1;
        Ok(value)
    }

    fn eval_expr(&mut self, e: ExprId, f: &Frame<'p>, line: usize) -> Fallible<Value> {
        match *f.tree.expr(e) {
            Expr::Int(v) => Ok(Value::Int(v)),
            Expr::Bool(b) => Ok(Value::Bool(b)),
            Expr::Str(s) => Ok(Value::Str(f.tree.text(s).to_string())),
            Expr::Point(x, y) => {
                let px = self.eval_int(x, f, line)?;
                let py = self.eval_int(y, f, line)?;
                Ok(Value::Point(Point::new(px, py)))
            }
            Expr::List(items) => {
                let items = items
                    .ids()
                    .map(|e| self.eval(e, f, line))
                    .collect::<Fallible<_>>()?;
                bounded(Value::List(items), line)
            }
            Expr::Ident(name) => {
                let value = &self.stack[self.local(f, e, name, line)?];
                charge(&mut self.steps, value.size() - 1, line)?;
                Ok(value.clone())
            }
            Expr::Record { type_name, fields } => {
                let type_name = f.tree.text(type_name);
                let index = f
                    .names
                    .get(&self.slots, e)
                    .ok_or_else(|| fail(line, format!("type `{type_name}` is not defined")))?;
                let Defined {
                    tree: type_tree,
                    def,
                    ..
                } = self.defs.used[index as usize];
                let declared = type_tree.bindings(def.params);
                let given = f.tree.bindings(fields);
                let mut out: Vec<(String, Value)> = Vec::with_capacity(declared.len());
                for Binding { name, .. } in declared {
                    let name = type_tree.text(*name);
                    let value = given
                        .iter()
                        .find(|g| f.tree.text(g.name) == name)
                        .and_then(|g| g.value)
                        .ok_or_else(|| {
                            fail(
                                line,
                                format!("missing field `{name}` of type `{type_name}`"),
                            )
                        })?;
                    out.push((name.to_string(), self.eval(value, f, line)?));
                }
                for Binding { name, .. } in given {
                    let name = f.tree.text(*name);
                    if !declared.iter().any(|d| type_tree.text(d.name) == name) {
                        return Err(fail(
                            line,
                            format!("type `{type_name}` has no field `{name}`"),
                        ));
                    }
                }
                let record = Value::Record {
                    type_name: type_name.to_string(),
                    fields: out,
                };
                bounded(record, line)
            }
            Expr::Call { name, args } => {
                let base = self.stack.len();
                self.push_all(args, f, line)?;
                let value = match f.names.get(&self.slots, e) {
                    Some(index) => self.call(index, base, line)?,
                    None => builtin(f.tree.text(name), &self.stack[base..], line)?,
                };
                self.stack.truncate(base);
                Ok(value)
            }
            Expr::Field { base, field } => {
                let base = self.operand(base, f, line)?;
                let base = base.get(&self.stack);
                let field = f.tree.text(field);
                let value = match (base, field) {
                    (Value::Point(p), "x") => return Ok(Value::Int(p.x)),
                    (Value::Point(p), "y") => return Ok(Value::Int(p.y)),
                    (Value::Record { fields, .. }, _) => {
                        fields.iter().find(|(n, _)| n == field).map(|(_, v)| v)
                    }
                    _ => None,
                };
                let value = value.ok_or_else(|| {
                    fail(line, format!("{} has no field `{field}`", base.type_name()))
                })?;
                charge(&mut self.steps, value.size() - 1, line)?;
                Ok(value.clone())
            }
            Expr::Index { base, index } => {
                let base = self.operand(base, f, line)?;
                let i = self.eval_int(index, f, line)?;
                let Value::List(items) = base.get(&self.stack) else {
                    return Err(fail(
                        line,
                        format!("cannot index a {}", base.get(&self.stack).type_name()),
                    ));
                };
                let item = items
                    .get(usize::try_from(i).unwrap_or(usize::MAX))
                    .ok_or_else(|| {
                        fail(
                            line,
                            format!("index {i} out of range (len {})", items.len()),
                        )
                    })?;
                charge(&mut self.steps, item.size() - 1, line)?;
                Ok(item.clone())
            }
            Expr::Unary { op, expr } => {
                let v = self.eval(expr, f, line)?;
                let neg = |i: i64| {
                    i.checked_neg()
                        .ok_or_else(|| fail(line, "integer overflow in negation"))
                };
                match (op, v) {
                    (UnOp::Neg, Value::Int(i)) => Ok(Value::Int(neg(i)?)),
                    (UnOp::Neg, Value::Point(p)) => {
                        Ok(Value::Point(Point::new(neg(p.x)?, neg(p.y)?)))
                    }
                    (UnOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
                    (op, v) => Err(fail(
                        line,
                        format!("cannot apply {op:?} to {}", v.type_name()),
                    )),
                }
            }
            Expr::Binary { op, lhs, rhs } => {
                // Short-circuit logicals.
                if matches!(op, BinOp::And | BinOp::Or) {
                    let l = self.eval(lhs, f, line)?;
                    let l = l.as_bool().ok_or_else(|| {
                        fail(
                            line,
                            format!("logical op needs bool, got {}", l.type_name()),
                        )
                    })?;
                    return match (op, l) {
                        (BinOp::And, false) => Ok(Value::Bool(false)),
                        (BinOp::Or, true) => Ok(Value::Bool(true)),
                        _ => {
                            let r = self.eval(rhs, f, line)?;
                            r.as_bool().map(Value::Bool).ok_or_else(|| {
                                fail(
                                    line,
                                    format!("logical op needs bool, got {}", r.type_name()),
                                )
                            })
                        }
                    };
                }
                let l = self.eval(lhs, f, line)?;
                let r = self.eval(rhs, f, line)?;
                binary(&op, l, r, line)
            }
        }
    }

    /// Calls the `fn` `index` on the arguments on the stack above `base`,
    /// which become the window of its body.
    fn call(&mut self, index: u32, base: usize, line: usize) -> Fallible<Value> {
        let (f, def) = self.frame(index, base);
        self.bind("fn", "argument", &f, def, line)?;
        match self.exec_block(def.body, &f, &mut None, line)? {
            Flow::Return(v) => Ok(v),
            Flow::Normal => Ok(Value::Int(0)),
        }
    }

    // Typed evaluation helpers.

    fn eval_int(&mut self, e: ExprId, f: &Frame<'p>, line: usize) -> Fallible<i64> {
        let v = self.eval(e, f, line)?;
        v.as_int()
            .ok_or_else(|| fail(line, format!("expected an int, got {}", v.type_name())))
    }

    fn eval_point(&mut self, e: ExprId, f: &Frame<'p>, line: usize) -> Fallible<Point> {
        let v = self.eval(e, f, line)?;
        let p = v
            .as_point()
            .ok_or_else(|| fail(line, format!("expected a point, got {}", v.type_name())))?;
        in_range(far(p), line)?;
        Ok(p)
    }

    /// The vertices of a wire or a polygon.
    fn eval_points(&mut self, run: Run, f: &Frame<'p>, line: usize) -> Fallible<Vec<Point>> {
        run.ids().map(|e| self.eval_point(e, f, line)).collect()
    }

    /// How far from its parent's origin `inst` puts anything. The child's
    /// reach is a max-norm, so its orientation does not matter.
    fn instance_reach(&self, inst: &Instance) -> i128 {
        let last = |at: Coord, pitch: Coord, n: u32| {
            (i128::from(at) + i128::from(pitch) * i128::from(n - 1)).abs()
        };
        let at = inst.transform.offset;
        far(at)
            .max(last(at.x, inst.dx, inst.cols))
            .max(last(at.y, inst.dy, inst.rows))
            + self.reach[inst.cell.raw() as usize]
    }

    fn cell_reach(&self, cell: &Cell) -> i128 {
        let own = cell.elements().iter().map(|e| far_corner(e.bbox()));
        let placed = cell.instances().iter().map(|i| self.instance_reach(i));
        own.chain(placed).max().unwrap_or(0)
    }

    fn eval_layer(&mut self, e: ExprId, f: &Frame<'p>, line: usize) -> Fallible<Layer> {
        // A name written bare is parsed from the source.
        let owned;
        let name = match *f.tree.expr(e) {
            Expr::Str(name) => {
                self.leaf(line)?;
                f.tree.text(name)
            }
            _ => {
                owned = self.eval(e, f, line)?;
                let Value::Str(name) = &owned else {
                    return Err(fail(
                        line,
                        format!("expected a layer name, got {}", owned.type_name()),
                    ));
                };
                name
            }
        };
        name.parse()
            .map_err(|_| fail(line, format!("unknown layer `{name}`")))
    }
}

/// Takes `n` steps of the budget. Copying a value out of a variable, a
/// list or a record takes `size() - 1`: a list or a record costs what it
/// weighs, a scalar nothing.
fn charge(steps: &mut u64, n: usize, line: usize) -> Fallible<()> {
    *steps += n as u64;
    if *steps > MAX_STEPS {
        return Err(fail(
            line,
            format!("the program takes more than {MAX_STEPS} steps"),
        ));
    }
    Ok(())
}

/// The name a variant of the cell `name` asks the library for: the name
/// and, after a `$`, its arguments' [`Value::write_memo_key`] texts joined
/// by commas, with everything but letters and digits an underscore.
fn variant_name(name: &str, args: &[Value]) -> String {
    let mut text = String::new();
    for (i, value) in args.iter().enumerate() {
        text.push_str(if i > 0 { "," } else { "" });
        value.write_memo_key(&mut text);
    }
    let mut out = name.to_string();
    if !args.is_empty() {
        out.push('$');
        out.extend(
            text.chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }),
        );
    }
    out
}

/// The larger coordinate magnitude of `p`.
fn far(p: Point) -> i128 {
    i128::from(p.x.unsigned_abs().max(p.y.unsigned_abs()))
}

/// The largest coordinate magnitude of `r`.
fn far_corner(r: Rect) -> i128 {
    far(r.min()).max(far(r.max()))
}

/// Geometry may reach [`MAX_COORD`] from the origin of its cell and no
/// further: inside that bound no later stage can overflow a coordinate.
fn in_range(reach: i128, line: usize) -> Fallible<()> {
    if reach <= i128::from(MAX_COORD) {
        return Ok(());
    }
    Err(fail(
        line,
        format!("geometry reaches {reach} lambda from the origin; the limit is 2^40"),
    ))
}

/// `value`, if it nests no deeper than a literal can ([`MAX_DEPTH`]) and
/// is within [`MAX_VALUE_SIZE`]. Every list and record is built here, so
/// no walk over a value (a copy, a drop, `size`, `Display`, a hash or a
/// variant's name) recurses more than [`MAX_DEPTH`] levels.
fn bounded(value: Value, line: usize) -> Fallible<Value> {
    let depth = value.depth();
    if depth > MAX_DEPTH {
        return Err(fail(
            line,
            format!(
                "{} nested {depth} deep is over the nesting bound of {MAX_DEPTH}",
                value.type_name()
            ),
        ));
    }
    let size = value.size();
    if size <= MAX_VALUE_SIZE {
        return Ok(value);
    }
    let unit = if matches!(value, Value::Str(_)) {
        "bytes"
    } else {
        "values"
    };
    Err(fail(
        line,
        format!(
            "{} of {size} {unit} is over the value bound of {MAX_VALUE_SIZE}",
            value.type_name()
        ),
    ))
}

fn binary(op: &BinOp, l: Value, r: Value, line: usize) -> Fallible<Value> {
    use BinOp::*;
    let type_err = |l: &Value, r: &Value| {
        fail(
            line,
            format!(
                "cannot apply {op:?} to {} and {}",
                l.type_name(),
                r.type_name()
            ),
        )
    };
    // Arithmetic must fail loudly: unchecked ops panic on overflow in
    // debug builds and silently wrap in release, producing corrupt
    // geometry. `checked_*` turns both into an `Eval` diagnostic.
    let overflow = |what: &str| fail(line, format!("integer overflow in {what}"));
    let add = |a: i64, b: i64| a.checked_add(b).ok_or_else(|| overflow("addition"));
    let sub = |a: i64, b: i64| a.checked_sub(b).ok_or_else(|| overflow("subtraction"));
    let mul = |a: i64, b: i64| a.checked_mul(b).ok_or_else(|| overflow("multiplication"));
    // `i64::MIN / -1` and `i64::MIN % -1` overflow in every build.
    let div = |a: i64, b: i64, op: fn(i64, i64) -> Option<i64>, what| match b {
        0 => Err(fail(line, "division by zero")),
        _ => op(a, b).ok_or_else(|| overflow(what)),
    };
    match (op, &l, &r) {
        (Add, Value::Int(a), Value::Int(b)) => Ok(Value::Int(add(*a, *b)?)),
        (Sub, Value::Int(a), Value::Int(b)) => Ok(Value::Int(sub(*a, *b)?)),
        (Mul, Value::Int(a), Value::Int(b)) => Ok(Value::Int(mul(*a, *b)?)),
        (Div, Value::Int(a), Value::Int(b)) => {
            Ok(Value::Int(div(*a, *b, i64::checked_div, "division")?))
        }
        (Rem, Value::Int(a), Value::Int(b)) => {
            Ok(Value::Int(div(*a, *b, i64::checked_rem, "remainder")?))
        }
        (Add, Value::Point(a), Value::Point(b)) => {
            Ok(Value::Point(Point::new(add(a.x, b.x)?, add(a.y, b.y)?)))
        }
        (Sub, Value::Point(a), Value::Point(b)) => {
            Ok(Value::Point(Point::new(sub(a.x, b.x)?, sub(a.y, b.y)?)))
        }
        (Mul, Value::Point(a), Value::Int(k)) | (Mul, Value::Int(k), Value::Point(a)) => {
            Ok(Value::Point(Point::new(mul(a.x, *k)?, mul(a.y, *k)?)))
        }
        (Add, Value::Str(a), Value::Str(b)) => bounded(Value::Str(format!("{a}{b}")), line),
        (Eq, a, b) => Ok(Value::Bool(a == b)),
        (Ne, a, b) => Ok(Value::Bool(a != b)),
        (Lt, Value::Int(a), Value::Int(b)) => Ok(Value::Bool(a < b)),
        (Le, Value::Int(a), Value::Int(b)) => Ok(Value::Bool(a <= b)),
        (Gt, Value::Int(a), Value::Int(b)) => Ok(Value::Bool(a > b)),
        (Ge, Value::Int(a), Value::Int(b)) => Ok(Value::Bool(a >= b)),
        _ => Err(type_err(&l, &r)),
    }
}

fn builtin(name: &str, args: &[Value], line: usize) -> Fallible<Value> {
    let int_arg = |i: usize| -> Fallible<i64> {
        args.get(i)
            .and_then(Value::as_int)
            .ok_or_else(|| fail(line, format!("`{name}` expects int argument {i}")))
    };
    match (name, args.len()) {
        ("abs", 1) => int_arg(0)?
            .checked_abs()
            .map(Value::Int)
            .ok_or_else(|| fail(line, "integer overflow in `abs`")),
        ("min", 2) => Ok(Value::Int(int_arg(0)?.min(int_arg(1)?))),
        ("max", 2) => Ok(Value::Int(int_arg(0)?.max(int_arg(1)?))),
        ("len", 1) => match &args[0] {
            Value::List(items) => Ok(Value::Int(items.len() as i64)),
            Value::Str(s) => Ok(Value::Int(s.len() as i64)),
            other => Err(fail(
                line,
                format!("`len` expects a list or string, got {}", other.type_name()),
            )),
        },
        ("pt", 2) => Ok(Value::Point(Point::new(int_arg(0)?, int_arg(1)?))),
        ("str", 1) => bounded(Value::Str(args[0].to_string()), line),
        _ => Err(fail(
            line,
            format!("`{name}` is not a function (or wrong argument count)"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silc_layout::flatten;

    fn compile(src: &str) -> Design {
        Compiler::new().compile(src).unwrap()
    }

    fn compile_err(src: &str) -> LangError {
        Compiler::new().compile(src).unwrap_err()
    }

    fn encode(design: &Design) -> Vec<u8> {
        let mut e = silc_geom::Enc::new();
        design.encode(&mut e);
        e.into_bytes()
    }

    #[test]
    fn design_round_trips_by_fingerprint() {
        let design = compile(
            "cell pair() {
                 box metal (0,0) (8,4);
                 wire poly 2 (0,0) (10,0) (10,6);
                 port a metal (1,1);
             }
             cell top2() { place pair() at (0,0); place pair() at (30,0) rot 90; }
             array top2() at (0,0) step (80, 0) count 2;",
        );
        let bytes = encode(&design);
        let mut d = Dec::new(&bytes);
        let back = Design::decode(&mut d).unwrap();
        assert!(d.is_done());
        assert_eq!(back.fingerprint(), design.fingerprint());
        assert_eq!(back.library.len(), design.library.len());
    }

    #[test]
    fn dangling_instance_target_is_an_error_not_a_panic() {
        // Bump every byte in turn, cell id references included: decode
        // must either succeed or error cleanly, never panic.
        let mut bytes = encode(&compile(
            "cell a() { box metal (0,0) (4,4); } place a() at (0,0);",
        ));
        for i in 0..bytes.len() {
            let saved = bytes[i];
            bytes[i] = bytes[i].wrapping_add(1);
            let _ = Design::decode(&mut Dec::new(&bytes));
            bytes[i] = saved;
        }
    }

    #[test]
    fn int_overflow_is_an_eval_error_not_a_wrap() {
        // i64::MAX + 1, i64::MIN - 1, and a huge product: each must fail
        // with a diagnostic naming the line, not panic or wrap.
        for (src, what) in [
            ("let a = 9223372036854775807;\nlet b = a + 1;", "addition"),
            (
                "let a = 0 - 9223372036854775807;\nlet b = a - 2;",
                "subtraction",
            ),
            (
                "let a = 4611686018427387904;\nlet b = a * 4;",
                "multiplication",
            ),
        ] {
            match compile_err(src) {
                LangError::Eval { line, message } => {
                    assert_eq!(line, 2, "{src}");
                    assert!(message.contains(what), "{message}");
                }
                other => panic!("expected Eval error, got {other:?}"),
            }
        }
    }

    #[test]
    fn point_arithmetic_overflow_is_checked() {
        let e = compile_err("let p = pt(9223372036854775807, 0);\nlet q = p + pt(1, 0);");
        assert!(e.to_string().contains("overflow"), "{e}");
        let e = compile_err("let p = pt(9223372036854775807, 1);\nlet q = p * 2;");
        assert!(e.to_string().contains("overflow"), "{e}");
        let e = compile_err("let p = pt(9223372036854775807, 1);\nlet q = 2 * p;");
        assert!(e.to_string().contains("overflow"), "{e}");
        let e = compile_err("let p = pt(0 - 9223372036854775807, 0);\nlet q = p - pt(2, 0);");
        assert!(e.to_string().contains("overflow"), "{e}");
    }

    #[test]
    fn in_range_arithmetic_still_works() {
        let d =
            compile("let big = 4611686018427387903;\nlet ok = big + big;\nbox metal (0,0) (4,4);");
        assert_eq!(d.library.cell(d.top).unwrap().elements().len(), 1);
    }

    #[test]
    fn a_program_that_runs_too_long_is_a_line_numbered_error() {
        // Each iteration evaluates 257 expressions, so the budget runs out
        // some 65 000 iterations into a loop of 2^63.
        let endless = format!(
            "let a = 1;\nfor i in 0..9223372036854775807 {{\n  let x = [{}];\n}}",
            vec!["0"; 256].join(", ")
        );
        match compile_err(&endless) {
            LangError::Eval { line, message } => {
                assert_eq!(line, 3);
                assert_eq!(
                    message,
                    format!("the program takes more than {MAX_STEPS} steps")
                );
            }
            other => panic!("expected Eval error, got {other:?}"),
        }
    }

    #[test]
    fn min_int_overflow_is_an_eval_error_not_a_panic() {
        // `i64::MIN / -1` and `i64::MIN % -1` overflow in every build;
        // negating `i64::MIN` and taking its `abs` did in a debug build, and
        // wrapped in an optimised one.
        let min = "let m = -9223372036854775807 - 1;";
        for (form, what) in [
            ("m / -1", "division"),
            ("m % -1", "remainder"),
            ("-m", "negation"),
            ("-pt(0, m)", "negation"),
            ("abs(m)", "`abs`"),
        ] {
            match compile_err(&format!("{min}\nlet x = {form};")) {
                LangError::Eval { line, message } => {
                    assert_eq!(line, 2, "{form}");
                    assert_eq!(message, format!("integer overflow in {what}"), "{form}");
                }
                other => panic!("{form}: expected Eval error, got {other:?}"),
            }
        }
        let d = compile(&format!(
            "{min}\n// Each term is -1: 2^63 is 1 modulo 7.\nlet w = m / 1 - m - 1 + m % -7 + (-(m + 1) + m) + (abs(m + 1) + m);\nbox metal (0,0) (w + 8, 4);"
        ));
        assert_eq!(
            d.library.cell(d.top).unwrap().elements()[0].bbox().width(),
            4
        );
    }

    #[test]
    fn a_value_nests_no_deeper_than_a_literal_can() {
        // Copying, weighing, hashing and dropping a value recurse once a
        // level, so a list or a record built one level deeper each trip
        // stops at the parser's bound, on a worker's 2 MiB stack in any
        // build.
        let nests = [
            ("let l = [];\nfor i in 0..30000 {\n  l = [l];\n}", 3, "list"),
            (
                "type p { a }\nlet r = 1;\nfor i in 0..30000 {\n  r = p { a: r };\n}",
                4,
                "p",
            ),
        ];
        let run = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                nests
                    .map(|(src, line, what)| (Compiler::new().compile(src).map(|_| ()), line, what))
            })
            .expect("a thread");
        for (result, line, what) in run.join().expect("no overflow, no panic") {
            assert_eq!(
                result.unwrap_err(),
                LangError::eval(
                    line,
                    format!(
                        "{what} nested {} deep is over the nesting bound of 64",
                        MAX_DEPTH + 1
                    )
                )
            );
        }
        // The deepest value is a cell argument like any other.
        let d = compile(
            "cell c(v) { box metal (0,0) (4,4); }\nlet l = [];\n\
             for i in 0..63 { l = [l]; }\nplace c(l) at (0,0);\nplace c(l) at (9,0);\nlet s = str(l);",
        );
        assert_eq!(d.library.len(), 2);
    }

    #[test]
    fn copying_a_value_is_charged_by_its_weight() {
        // A variable indexed or a field read in place is not copied: a
        // list of 10 000 indexed 10 000 times, and a field beside it read
        // as often, stay far inside the budget. What a read takes out is
        // copied: a list of 10 000 taken out 2 000 times is not, whether
        // out of a variable, a list or a record.
        let setup = format!(
            "type r {{ a, b }}\nlet l = [{}0];\nlet g = r {{ a: l, b: 1 }};\nlet m = [l];\n",
            "0, ".repeat(9_999)
        );
        compile(&format!(
            "{setup}let s = 0;\nfor i in 0..10000 {{ s = s + l[i] + g.b; }}"
        ));
        for read in ["l", "m[0]", "g.a"] {
            let e = compile_err(&format!("{setup}for i in 0..2000 {{ let x = {read}; }}"));
            assert!(matches!(e, LangError::Eval { line: 5, .. }), "{read}: {e}");
            assert!(e.to_string().contains("16777216 steps"), "{read}: {e}");
        }
    }

    #[test]
    fn tracer_records_compile_stages() {
        use silc_trace::Tracer;
        let tracer = Tracer::enabled();
        Compiler::new()
            .with_tracer(tracer.clone())
            .compile(
                "cell bit() { box diff (0,0) (2,2); }
                 place bit() at (0,0);
                 place bit() at (10,0);",
            )
            .unwrap();
        let report = tracer.finish();
        for stage in ["lang.parse", "lang.elaborate"] {
            assert!(
                report.spans().iter().any(|s| s.name == stage),
                "missing {stage}: {:?}",
                report.spans()
            );
        }
        // The lexer runs inside the parse, which counts its tokens.
        let parse = report.spans().iter().find(|s| s.name == "lang.parse");
        let attrs = &parse.expect("a parse span").attrs;
        assert!(attrs.contains(&("tokens", 42)), "{attrs:?}");
        assert!(attrs.contains(&("items", 3)), "{attrs:?}");
        // bit elaborated once, memo hit on the second placement.
        assert_eq!(report.counter("lang.cells_elaborated"), Some(1));
        assert_eq!(report.counter("lang.memo_hits"), Some(1));
        // Library holds bit + main.
        assert_eq!(report.counter("lang.cells"), Some(2));
    }

    #[test]
    fn simple_box_in_top() {
        let d = compile("box metal (0, 0) (4, 4);");
        let top = d.library.cell(d.top).unwrap();
        assert_eq!(top.elements().len(), 1);
        assert_eq!(top.elements()[0].layer, Layer::Metal);
    }

    #[test]
    fn cell_definition_and_place() {
        let d = compile(
            "cell inv() { box diff (0,0) (2,8); }
             place inv() at (10, 20);",
        );
        assert!(d.library.cell_by_name("inv").is_some());
        let flat = flatten(&d.library, d.top).unwrap();
        assert_eq!(flat.len(), 1);
        assert_eq!(flat[0].bbox().min(), Point::new(10, 20));
    }

    #[test]
    fn parameterised_cells_are_memoized() {
        let d = compile(
            "cell bar(w) { box metal (0,0) (w, 10); }
             place bar(4) at (0,0);
             place bar(4) at (20,0);
             place bar(6) at (40,0);",
        );
        // Two variants: bar$i4 and bar$i6.
        assert_eq!(d.library.len(), 3); // 2 variants + main
        let flat = flatten(&d.library, d.top).unwrap();
        assert_eq!(flat.len(), 3);
    }

    #[test]
    fn default_parameters() {
        let d = compile(
            "cell pad(size = 8) { box metal (0,0) (size, size); }
             place pad() at (0,0);
             place pad(12) at (20,0);",
        );
        let flat = flatten(&d.library, d.top).unwrap();
        let mut widths: Vec<i64> = flat.iter().map(|f| f.bbox().width()).collect();
        widths.sort_unstable();
        assert_eq!(widths, vec![8, 12]);
    }

    #[test]
    fn arrays_expand() {
        let d = compile(
            "cell bit() { box diff (0,0) (3,3); }
             array bit() at (0,0) step (5, 0) count 4;",
        );
        let flat = flatten(&d.library, d.top).unwrap();
        assert_eq!(flat.len(), 4);
        // Native array instance used (one instance, 4 copies).
        assert_eq!(d.library.cell(d.top).unwrap().instances().len(), 1);
    }

    #[test]
    fn two_dimensional_array() {
        let d = compile(
            "cell bit() { box diff (0,0) (3,3); }
             array bit() at (0,0) step (5,0) (0,7) count 4 3;",
        );
        let flat = flatten(&d.library, d.top).unwrap();
        assert_eq!(flat.len(), 12);
    }

    #[test]
    fn diagonal_array_expands_to_places() {
        let d = compile(
            "cell bit() { box diff (0,0) (3,3); }
             array bit() at (0,0) step (5, 5) count 3;",
        );
        let top = d.library.cell(d.top).unwrap();
        assert_eq!(top.instances().len(), 3);
        let flat = flatten(&d.library, d.top).unwrap();
        assert!(flat.iter().any(|f| f.bbox().min() == Point::new(10, 10)));
    }

    #[test]
    fn array_count_past_u32_is_an_error_not_a_wrap() {
        for src in [
            "cell a() { box metal (0,0) (3,3); }
             array a() at (0,0) step (4,0) count 4294967297;",
            "cell a() { box metal (0,0) (3,3); }
             array a() at (0,0) step (4,0) (0,4) count 2 4294967296;",
        ] {
            let e = compile_err(src);
            assert!(matches!(e, LangError::Eval { line: 2, .. }), "{e}");
            assert!(e.to_string().contains("array count 42949672"), "{e}");
        }
    }

    #[test]
    fn diagonal_array_past_the_flattening_cap_is_an_error() {
        let e = compile_err(
            "cell a() { box metal (0,0) (3,3); }
             array a() at (0,0) step (4,4) (4,-4) count 20000 20000;",
        );
        assert!(matches!(e, LangError::Eval { line: 2, .. }), "{e}");
        assert!(e.to_string().contains("20000 x 20000"), "{e}");
    }

    #[test]
    fn diagonal_copies_are_counted_across_a_loop() {
        // One copy, then 2²² more: each statement is within the cap, the
        // compile is not, and the second trip is refused before it places
        // anything.
        let e = compile_err(
            "cell a() { box metal (0,0) (3,3); }
             for k in 0..2 {
               array a() at (0,0) step (4,4) (4,-4) count 1 + k * 2047 1 + k * 2047;
             }",
        );
        assert!(matches!(e, LangError::Eval { line: 3, .. }), "{e}");
        assert!(e.to_string().contains("2048 x 2048"), "{e}");
    }

    #[test]
    fn doubling_values_stop_at_the_value_bound() {
        for (src, what) in [
            (
                "let s = \"ab\";\nfor i in 0..64 { s = s + s; }",
                "string of 2097152 bytes",
            ),
            (
                "let l = [1, 2];\nfor i in 0..64 { l = [l, l]; }",
                "list of 2097151 values",
            ),
            (
                "type p { a, b }\nlet r = 1; for i in 0..64 { r = p { a: r, b: r }; }",
                "p of 2097151 values",
            ),
            // A list within the bound can still print past it.
            (
                "let l = [1000000000000000000];\nfor i in 0..16 { l = [l, l]; } let s = str(l);",
                "string of 1638396 bytes",
            ),
        ] {
            let e = compile_err(src);
            assert!(matches!(e, LangError::Eval { line: 2, .. }), "{e}");
            assert!(e.to_string().contains(what), "{e}");
            assert!(e.to_string().contains("value bound of 1048576"), "{e}");
        }
    }

    #[test]
    fn for_loops_and_conditionals() {
        let d = compile(
            "for i in 0..6 {
                if i % 2 == 0 { box metal (i * 10, 0) (i * 10 + 3, 3); }
             }",
        );
        let top = d.library.cell(d.top).unwrap();
        assert_eq!(top.elements().len(), 3);
    }

    #[test]
    fn functions_compute_values() {
        let d = compile(
            "fn pitch(n) -> int { return n * 7; }
             box metal (0, 0) (pitch(2), 3);",
        );
        let top = d.library.cell(d.top).unwrap();
        assert_eq!(top.elements()[0].bbox().width(), 14);
    }

    #[test]
    fn recursive_function_works() {
        let d = compile(
            "fn fact(n) { if n <= 1 { return 1; } return n * fact(n - 1); }
             box metal (0,0) (fact(4), 2);",
        );
        let top = d.library.cell(d.top).unwrap();
        assert_eq!(top.elements()[0].bbox().width(), 24);
    }

    #[test]
    fn records_compose() {
        let d = compile(
            "type pitch { dx: int, dy: int }
             let p = pitch { dx: 9, dy: 4 };
             box metal (0, 0) (p.dx, p.dy);",
        );
        let top = d.library.cell(d.top).unwrap();
        assert_eq!(top.elements()[0].bbox().width(), 9);
        assert_eq!(top.elements()[0].bbox().height(), 4);
    }

    #[test]
    fn record_field_validation() {
        let err = Compiler::new()
            .compile("type t { a: int } let x = t { b: 1 };")
            .unwrap_err();
        assert!(err.to_string().contains('a') || err.to_string().contains('b'));
    }

    #[test]
    fn points_are_values() {
        let d = compile(
            "let origin = (5, 5);
             let size = (4, 2);
             box metal origin origin + size;",
        );
        let top = d.library.cell(d.top).unwrap();
        assert_eq!(top.elements()[0].bbox().max(), Point::new(9, 7));
    }

    #[test]
    fn nested_hierarchy() {
        let d = compile(
            "cell bit() { box diff (0,0) (2,2); }
             cell word(n) { array bit() at (0,0) step (4,0) count n; }
             cell memory(rows, n) { array word(n) at (0,0) step (0,0) (0, 5) count 1 rows; }
             place memory(4, 8) at (0,0);",
        );
        let flat = flatten(&d.library, d.top).unwrap();
        assert_eq!(flat.len(), 32);
        // Hierarchy preserved: library has bit, word$i8, memory$..., main.
        assert_eq!(d.library.len(), 4);
    }

    #[test]
    fn orientations_compose() {
        let d = compile(
            "cell mark() { box metal (0,0) (4,1); }
             place mark() at (0,0) rot 90;",
        );
        let flat = flatten(&d.library, d.top).unwrap();
        let b = flat[0].bbox();
        assert_eq!((b.width(), b.height()), (1, 4));
    }

    #[test]
    fn ports_recorded() {
        let d = compile("cell c() { port out metal (3, 4); } place c() at (0,0);");
        let id = d.library.cell_by_name("c").unwrap();
        let cell = d.library.cell(id).unwrap();
        assert_eq!(cell.port("out").unwrap().at, Point::new(3, 4));
    }

    #[test]
    fn wires_and_polygons() {
        let d = compile(
            "wire metal 3 (0,0) (20,0) (20,15);
             polygon poly (0,0) (8,0) (8,4) (4,4) (4,8) (0,8);",
        );
        let top = d.library.cell(d.top).unwrap();
        assert_eq!(top.elements().len(), 2);
    }

    #[test]
    fn errors_report_lines() {
        let err = Compiler::new()
            .compile("let a = 1;\nbox metal (0,0) (0, 5);\n")
            .unwrap_err();
        match err {
            LangError::Eval { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn undefined_cell_diagnosed() {
        let err = Compiler::new()
            .compile("place ghost() at (0,0);")
            .unwrap_err();
        assert!(err.to_string().contains("ghost"));
    }

    #[test]
    fn recursive_cell_rejected() {
        let err = Compiler::new()
            .compile("cell a() { place a() at (5,5); } place a() at (0,0);")
            .unwrap_err();
        assert!(matches!(err, LangError::RecursiveCell { .. }));
    }

    #[test]
    fn division_by_zero_diagnosed() {
        let err = Compiler::new().compile("let x = 1 / 0;").unwrap_err();
        assert!(err.to_string().contains("zero"));
    }

    #[test]
    fn geometry_in_fn_rejected() {
        let err = Compiler::new()
            .compile("fn bad() { box metal (0,0) (1,1); } let x = bad();")
            .unwrap_err();
        assert!(err.to_string().contains("fn"));
    }

    #[test]
    fn builtins() {
        let d = compile(
            "let l = [3, 9, 2];
             box metal (0,0) (max(len(l), abs(0 - 2)), min(4, 7));",
        );
        let top = d.library.cell(d.top).unwrap();
        assert_eq!(top.elements()[0].bbox().width(), 3);
        assert_eq!(top.elements()[0].bbox().height(), 4);
    }

    #[test]
    fn string_layers_via_parens() {
        let d = compile(r#"let l = "metal"; box (l) (0,0) (2,2);"#);
        let top = d.library.cell(d.top).unwrap();
        assert_eq!(top.elements()[0].layer, Layer::Metal);
    }

    #[test]
    fn unknown_layer_diagnosed() {
        let err = Compiler::new()
            .compile("box metal9 (0,0) (1,1);")
            .unwrap_err();
        assert!(err.to_string().contains("metal9"));
    }

    #[test]
    fn geometry_beyond_the_coordinate_bound_is_rejected_with_its_line() {
        let limit = MAX_COORD;
        // A literal point, a wire's pen, a placement and an array whose
        // far corner leaves the range; each names the statement.
        for (src, line) in [
            (format!("box metal (0, 0) (4, 4);\nbox metal (0, 0) ({}, 4);", limit + 1), 2),
            (format!("wire metal 4 (0, 0) ({limit}, 0);"), 1),
            (
                format!("cell a() {{ box metal (0, 0) ({limit}, 4); }}\n\nplace a() at (1, 0);"),
                3,
            ),
            (
                format!(
                    "cell a() {{ box metal (0, 0) (4, 4); }}\n\
                     cell b() {{ array a() at (0, 0) step ({}, 0) count 3; }}\nplace b() at (0, 0);",
                    limit / 2
                ),
                2,
            ),
            (
                format!(
                    "cell a() {{ box metal (0, 0) (4, 4); }}\n\
                     array a() at (0, 0) step (3, 3) (0 - {limit}, 0) count 2 3;"
                ),
                2,
            ),
            ("box metal (0, 0) (9223372036854775806, 4);".to_string(), 1),
        ] {
            match compile_err(&src) {
                LangError::Eval { line: at, message } => {
                    assert_eq!(at, line, "{src}: {message}");
                    assert!(message.contains("2^40"), "{message}");
                }
                other => panic!("{src}: {other}"),
            }
        }
        // Reaching the bound exactly is legal, at any depth.
        compile(&format!(
            "cell a() {{ box metal (0, 0) (4, 4); }}\n\
             cell b() {{ place a() at ({0}, 0 - {0}); }}\nplace b() at (0, 0);",
            limit - 4
        ));
    }
}
