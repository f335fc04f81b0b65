use crate::ast::*;
use crate::parser::{parse, MAX_DEPTH};
use crate::value::Value;
use crate::LangError;
use silc_geom::{
    Coord, Dec, DecodeError, Fingerprint, FpHasher, Path, Persist, Point, Polygon, Rect, Transform,
    MAX_COORD,
};
use silc_layout::{Cell, CellId, Element, Instance, Layer, Library, Port, MAX_FLAT_ELEMENTS};
use silc_trace::{span, Tracer};
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
        let mut interp = Interp::default();

        // Register definitions first so order of items is free. The
        // standard-cell prelude is always in scope.
        let mut top_stmts: Vec<&Stmt> = Vec::new();
        for tree in [prelude(), &program] {
            for item in &tree.items {
                let (defs, what, def) = match item {
                    Item::Cell(def) => (&mut interp.cells, "cell", def),
                    Item::Fn(def) => (&mut interp.fns, "fn", def),
                    Item::Type(def) => (&mut interp.types, "type", def),
                    Item::Stmt(s) => {
                        top_stmts.push(s);
                        continue;
                    }
                };
                let name = tree.text(def.name);
                if defs.insert(name, (tree, def)).is_some() {
                    return Err(LangError::eval(
                        def.line as usize,
                        format!("{what} `{name}` is defined twice"),
                    ));
                }
            }
        }

        let mut env = Env::new(&program);
        let mut top = Cell::new("main");
        for stmt in top_stmts {
            let flow = interp.exec_stmt(stmt, &mut env, &mut Some(&mut top))?;
            if let Flow::Return(_) = flow {
                return Err(LangError::eval(
                    stmt.line as usize,
                    "return outside a function",
                ));
            }
        }
        let top_id = interp
            .lib
            .add_cell_renamed(top)
            .map_err(|e| LangError::eval(0, e.to_string()))?;
        drop(elab_span);
        self.tracer.add("lang.cells", interp.lib.len() as u64);
        self.tracer
            .add("lang.cells_elaborated", interp.cells_elaborated);
        self.tracer.add("lang.memo_hits", interp.memo_hits);
        Ok(Design {
            library: interp.lib,
            top: top_id,
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
// Environment
// -------------------------------------------------------------------

/// The variables in scope, and the tree the running code indexes: the
/// program's or the prelude's. Both change together, at a call.
struct Env<'p> {
    tree: &'p Program<'p>,
    scopes: Vec<HashMap<&'p str, Value>>,
}

impl<'p> Env<'p> {
    fn new(tree: &'p Program<'p>) -> Env<'p> {
        Env {
            tree,
            scopes: vec![HashMap::new()],
        }
    }

    fn push(&mut self) {
        self.scopes.push(HashMap::new());
    }

    fn pop(&mut self) {
        self.scopes.pop();
    }

    fn define(&mut self, name: &'p str, value: Value) {
        self.scopes
            .last_mut()
            .expect("at least one scope")
            .insert(name, value);
    }

    fn assign(&mut self, name: &str, value: Value) -> bool {
        for scope in self.scopes.iter_mut().rev() {
            if let Some(slot) = scope.get_mut(name) {
                *slot = value;
                return true;
            }
        }
        false
    }

    fn get(&self, name: &str) -> Option<&Value> {
        self.scopes.iter().rev().find_map(|s| s.get(name))
    }
}

enum Flow {
    Normal,
    Return(Value),
}

// -------------------------------------------------------------------
// Interpreter
// -------------------------------------------------------------------

/// A definition and the tree it indexes.
type Found<'p> = (&'p Program<'p>, &'p Def);

/// A cell variant: the cell's name and its bound arguments, compared
/// exactly.
type Variant<'p> = (&'p str, Vec<Value>);

/// The evaluator. `'p` is the parsed program and the prelude: definitions
/// are registered and run by reference, never copied.
#[derive(Default)]
struct Interp<'p> {
    cells: HashMap<&'p str, Found<'p>>,
    fns: HashMap<&'p str, Found<'p>>,
    types: HashMap<&'p str, Found<'p>>,
    lib: Library,
    /// Every variant met so far, and its cell: `None` while it elaborates.
    memo: HashMap<Variant<'p>, Option<CellId>>,
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
/// worker: a frame and the `exec_stmt` under it measure up to 1.2 KiB
/// optimised and 13.4 KiB in a debug build.
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
/// budget, of the value bound and of random soups aside.
const MAX_STEPS: u64 = 1 << 24;

/// The largest value a program may build, by [`Value::size`]: a string
/// made by `+` or `str()` of at most this many bytes, a list or a record
/// literal of at most this many values counted deeply. Without it a
/// value that doubles each trip of a loop asks for 2⁶⁴ bytes long before
/// [`MAX_STEPS`] runs out. The programs of the tests, the examples and the
/// benchmark build a list of 257 values and a string of 3 bytes at most.
const MAX_VALUE_SIZE: usize = 1 << 20;

impl<'p> Interp<'p> {
    // ---------------------------------------------------------------
    // Cell elaboration
    // ---------------------------------------------------------------

    /// Binds `args` to the parameters of a `cell` or `fn`, defaults
    /// filling in for missing trailing arguments: the value of each
    /// parameter, in order.
    fn bind(
        &mut self,
        what: &str,
        counted: &str,
        (tree, def): Found<'p>,
        mut args: Vec<Value>,
        line: usize,
    ) -> Result<Vec<Value>, LangError> {
        let name = tree.text(def.name);
        let params = tree.bindings(def.params);
        if args.len() > params.len() {
            return Err(LangError::eval(
                line,
                format!(
                    "{what} `{name}` takes {} {counted}(s), got {}",
                    params.len(),
                    args.len()
                ),
            ));
        }
        for param in &params[args.len()..] {
            let Some(default) = param.value else {
                let pname = tree.text(param.name);
                return Err(LangError::eval(
                    line,
                    format!("{what} `{name}` missing argument `{pname}`"),
                ));
            };
            let value = self.eval(default, &Env::new(tree), line)?;
            args.push(value);
        }
        Ok(args)
    }

    fn elaborate_cell(
        &mut self,
        name: &str,
        args: Vec<Value>,
        line: usize,
    ) -> Result<CellId, LangError> {
        let (&name, &found @ (tree, def)) = self
            .cells
            .get_key_value(name)
            .ok_or_else(|| LangError::eval(line, format!("cell `{name}` is not defined")))?;
        let variant = (name, self.bind("cell", "parameter", found, args, line)?);
        if let Some(&done) = self.memo.get(&variant) {
            let id = done.ok_or_else(|| LangError::RecursiveCell {
                name: name.to_string(),
            })?;
            self.memo_hits += 1;
            return Ok(id);
        }
        // Cells nest on the machine stack as calls do: this frame and the
        // `exec_stmt` under it take 1.9 KiB optimised and 15.4 KiB in a
        // debug build, two frames' worth. The body is owed what its deepest
        // statement can need, so a `fn` is never blamed for running out.
        if self.frames + 2 + MAX_DEPTH > MAX_FRAMES {
            return Err(LangError::eval(line, "cell nesting too deep"));
        }
        self.memo.insert(variant.clone(), None);
        self.frames += 2;

        let mut env = Env::new(tree);
        for (param, value) in tree.bindings(def.params).iter().zip(&variant.1) {
            env.define(tree.text(param.name), value.clone());
        }
        let mut cell = Cell::new(variant_name(&variant));
        for stmt in tree.stmts(def.body) {
            let flow = self.exec_stmt(stmt, &mut env, &mut Some(&mut cell))?;
            if let Flow::Return(_) = flow {
                return Err(LangError::eval(
                    stmt.line as usize,
                    "return is not allowed in a cell body",
                ));
            }
        }
        self.frames -= 2;

        let reach = self.cell_reach(&cell);
        let id = self
            .lib
            .add_cell_renamed(cell)
            .map_err(|e| LangError::eval(def.line as usize, e.to_string()))?;
        self.reach.push(reach);
        self.memo.insert(variant, Some(id));
        self.cells_elaborated += 1;
        Ok(id)
    }

    // ---------------------------------------------------------------
    // Statements
    // ---------------------------------------------------------------

    fn exec_block(
        &mut self,
        body: Run,
        env: &mut Env<'p>,
        cell: &mut CellSlot<'_, '_>,
        line: usize,
    ) -> Result<Flow, LangError> {
        self.enter(line)?;
        env.push();
        let mut flow = Flow::Normal;
        for stmt in env.tree.stmts(body) {
            flow = self.exec_stmt(stmt, env, cell)?;
            if let Flow::Return(_) = flow {
                break;
            }
        }
        env.pop();
        self.frames -= 1;
        Ok(flow)
    }

    /// Takes one frame and one step of the budgets. An error abandons the
    /// compile, so only the paths that return a value give their frame
    /// back.
    fn enter(&mut self, line: usize) -> Result<(), LangError> {
        if self.frames >= MAX_FRAMES {
            return Err(LangError::eval(line, "function recursion too deep"));
        }
        self.step(1, line)?;
        self.frames += 1;
        Ok(())
    }

    /// Takes `n` steps of the budget. Copying a value out of a variable,
    /// a list or a record takes `size() - 1`: a list or a record costs
    /// what it weighs, a scalar nothing.
    fn step(&mut self, n: usize, line: usize) -> Result<(), LangError> {
        self.steps += n as u64;
        if self.steps > MAX_STEPS {
            return Err(LangError::eval(
                line,
                format!("the program takes more than {MAX_STEPS} steps"),
            ));
        }
        Ok(())
    }

    /// What an [`eval`](Self::eval) of a leaf takes of the budgets, for a
    /// leaf read in place.
    fn leaf(&mut self, line: usize) -> Result<(), LangError> {
        self.enter(line)?;
        self.frames -= 1;
        Ok(())
    }

    /// The value of `e`, read in place if `e` names a variable (the base of
    /// `name.field` or `name[i]`), else evaluated into `owned`.
    fn operand<'e>(
        &mut self,
        e: ExprId,
        env: &'e Env<'p>,
        owned: &'e mut Option<Value>,
        line: usize,
    ) -> Result<&'e Value, LangError> {
        match *env.tree.expr(e) {
            Expr::Ident(name) => {
                self.leaf(line)?;
                read(name, env, line)
            }
            _ => Ok(owned.insert(self.eval(e, env, line)?)),
        }
    }

    fn exec_stmt(
        &mut self,
        stmt: &Stmt,
        env: &mut Env<'p>,
        cell: &mut CellSlot<'_, '_>,
    ) -> Result<Flow, LangError> {
        let line = stmt.line as usize;
        match stmt.kind {
            StmtKind::Box { layer, a, b } => {
                let layer = self.eval_layer(layer, env, line)?;
                let pa = self.eval_point(a, env, line)?;
                let pb = self.eval_point(b, env, line)?;
                let rect = Rect::new(pa, pb).map_err(|e| LangError::eval(line, e.to_string()))?;
                self.target(cell, line)?
                    .push_element(Element::rect(layer, rect));
            }
            StmtKind::Wire {
                layer,
                width,
                points,
            } => {
                let layer = self.eval_layer(layer, env, line)?;
                let w = self.eval_int(width, env, line)?;
                let pts = self.eval_points(points, env, line)?;
                let path = Path::new(w, pts).map_err(|e| LangError::eval(line, e.to_string()))?;
                let wire = Element::new(layer, path);
                in_range(far_corner(wire.bbox()), line)?;
                self.target(cell, line)?.push_element(wire);
            }
            StmtKind::Polygon { layer, points } => {
                let layer = self.eval_layer(layer, env, line)?;
                let pts = self.eval_points(points, env, line)?;
                let poly = Polygon::new(pts).map_err(|e| LangError::eval(line, e.to_string()))?;
                self.target(cell, line)?
                    .push_element(Element::new(layer, poly));
            }
            StmtKind::Port { name, layer, at } => {
                let name_value = self.eval(name, env, line)?;
                let Value::Str(port_name) = name_value else {
                    return Err(LangError::eval(
                        line,
                        format!("port name must be a string, got {}", name_value.type_name()),
                    ));
                };
                let layer = self.eval_layer(layer, env, line)?;
                let p = self.eval_point(at, env, line)?;
                self.target(cell, line)?
                    .push_port(Port::new(port_name, layer, p));
            }
            StmtKind::Place {
                cell: child,
                args,
                at,
                orient,
            } => {
                let arg_values = self.eval_all(args, env, line)?;
                let at = self.eval_point(at, env, line)?;
                let child_id = self.elaborate_cell(env.tree.text(child), arg_values, line)?;
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
                let arg_values = self.eval_all(args, env, line)?;
                let at = self.eval_point(at, env, line)?;
                let step = self.eval_point(step, env, line)?;
                let step2 = step2.map(|s| self.eval_point(s, env, line)).transpose()?;
                let count = self.eval_int(count, env, line)?;
                let count2 = count2
                    .map(|c| self.eval_int(c, env, line))
                    .transpose()?
                    .unwrap_or(1);
                if count < 1 || count2 < 1 {
                    return Err(LangError::eval(line, "array count must be at least 1"));
                }
                let count_u32 = |n: i64| {
                    u32::try_from(n).map_err(|_| {
                        LangError::eval(line, format!("array count {n} is above {}", u32::MAX))
                    })
                };
                let (cols, rows) = (count_u32(count)?, count_u32(count2)?);
                let child_id = self.elaborate_cell(env.tree.text(child), arg_values, line)?;
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
                    .map_err(|e| LangError::eval(line, e.to_string()))?;
                    target.push_instance(inst);
                } else {
                    // Past this many copies flattening refuses the design;
                    // counted over the compile, so a loop cannot repeat
                    // its way past it. Two `u32`s multiply exactly in a
                    // `u64`.
                    self.diagonal_copies += u64::from(cols) * u64::from(rows);
                    if self.diagonal_copies > MAX_FLAT_ELEMENTS as u64 {
                        return Err(LangError::eval(
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
            StmtKind::Let { name, value } => {
                let v = self.eval(value, env, line)?;
                env.define(env.tree.text(name), v);
            }
            StmtKind::Assign { name, value } => {
                let v = self.eval(value, env, line)?;
                let name = env.tree.text(name);
                if !env.assign(name, v) {
                    return Err(LangError::eval(
                        line,
                        format!("assignment to undefined variable `{name}`"),
                    ));
                }
            }
            StmtKind::For {
                var,
                from,
                to,
                body,
            } => {
                let from = self.eval_int(from, env, line)?;
                let to = self.eval_int(to, env, line)?;
                let var = env.tree.text(var);
                for i in from..to {
                    env.push();
                    env.define(var, Value::Int(i));
                    let flow = self.exec_block(body, env, cell, line)?;
                    env.pop();
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
                let c = self.eval(cond, env, line)?;
                let c = c.as_bool().ok_or_else(|| {
                    LangError::eval(
                        line,
                        format!("if condition must be bool, got {}", c.type_name()),
                    )
                })?;
                let body = if c { then_body } else { else_body };
                return self.exec_block(body, env, cell, line);
            }
            StmtKind::Return { value } => {
                let v = match value {
                    Some(e) => self.eval(e, env, line)?,
                    None => Value::Int(0),
                };
                return Ok(Flow::Return(v));
            }
            StmtKind::Expr { value } => {
                self.eval(value, env, line)?;
            }
        }
        Ok(Flow::Normal)
    }

    fn target<'a>(
        &self,
        cell: &'a mut CellSlot<'_, '_>,
        line: usize,
    ) -> Result<&'a mut Cell, LangError> {
        cell.as_deref_mut().ok_or_else(|| {
            LangError::eval(line, "geometry statements are not allowed inside fn bodies")
        })
    }

    // ---------------------------------------------------------------
    // Expressions
    // ---------------------------------------------------------------

    fn eval(&mut self, e: ExprId, env: &Env<'p>, line: usize) -> Result<Value, LangError> {
        self.enter(line)?;
        let value = self.eval_expr(e, env, line)?;
        self.frames -= 1;
        Ok(value)
    }

    /// The values of an argument list or a list literal, in order.
    fn eval_all(&mut self, run: Run, env: &Env<'p>, line: usize) -> Result<Vec<Value>, LangError> {
        run.ids().map(|e| self.eval(e, env, line)).collect()
    }

    fn eval_expr(&mut self, e: ExprId, env: &Env<'p>, line: usize) -> Result<Value, LangError> {
        match *env.tree.expr(e) {
            Expr::Int(v) => Ok(Value::Int(v)),
            Expr::Bool(b) => Ok(Value::Bool(b)),
            Expr::Str(s) => Ok(Value::Str(env.tree.text(s).to_string())),
            Expr::Point(x, y) => {
                let px = self.eval_int(x, env, line)?;
                let py = self.eval_int(y, env, line)?;
                Ok(Value::Point(Point::new(px, py)))
            }
            Expr::List(items) => bounded(Value::List(self.eval_all(items, env, line)?), line),
            Expr::Ident(name) => {
                let value = read(name, env, line)?;
                self.step(value.size() - 1, line)?;
                Ok(value.clone())
            }
            Expr::Record { type_name, fields } => {
                let type_name = env.tree.text(type_name);
                let &(type_tree, def) = self.types.get(type_name).ok_or_else(|| {
                    LangError::eval(line, format!("type `{type_name}` is not defined"))
                })?;
                let declared = type_tree.bindings(def.params);
                let given = env.tree.bindings(fields);
                let mut out: Vec<(String, Value)> = Vec::with_capacity(declared.len());
                for Binding { name, .. } in declared {
                    let name = type_tree.text(*name);
                    let value = given
                        .iter()
                        .find(|g| env.tree.text(g.name) == name)
                        .and_then(|g| g.value)
                        .ok_or_else(|| {
                            LangError::eval(
                                line,
                                format!("missing field `{name}` of type `{type_name}`"),
                            )
                        })?;
                    out.push((name.to_string(), self.eval(value, env, line)?));
                }
                for Binding { name, .. } in given {
                    let name = env.tree.text(*name);
                    if !declared.iter().any(|d| type_tree.text(d.name) == name) {
                        return Err(LangError::eval(
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
                let arg_values = self.eval_all(args, env, line)?;
                self.call(env.tree.text(name), arg_values, line)
            }
            Expr::Field { base, field } => {
                let mut owned = None;
                let base = self.operand(base, env, &mut owned, line)?;
                let field = env.tree.text(field);
                let value = match (base, field) {
                    (Value::Point(p), "x") => return Ok(Value::Int(p.x)),
                    (Value::Point(p), "y") => return Ok(Value::Int(p.y)),
                    (Value::Record { fields, .. }, _) => {
                        fields.iter().find(|(n, _)| n == field).map(|(_, v)| v)
                    }
                    _ => None,
                };
                let value = value.ok_or_else(|| {
                    LangError::eval(line, format!("{} has no field `{field}`", base.type_name()))
                })?;
                self.step(value.size() - 1, line)?;
                Ok(value.clone())
            }
            Expr::Index { base, index } => {
                let mut owned = None;
                let base = self.operand(base, env, &mut owned, line)?;
                let i = self.eval_int(index, env, line)?;
                let Value::List(items) = base else {
                    return Err(LangError::eval(
                        line,
                        format!("cannot index a {}", base.type_name()),
                    ));
                };
                let item = items
                    .get(usize::try_from(i).unwrap_or(usize::MAX))
                    .ok_or_else(|| {
                        LangError::eval(
                            line,
                            format!("index {i} out of range (len {})", items.len()),
                        )
                    })?;
                self.step(item.size() - 1, line)?;
                Ok(item.clone())
            }
            Expr::Unary { op, expr } => {
                let v = self.eval(expr, env, line)?;
                let neg = |i: i64| {
                    i.checked_neg()
                        .ok_or_else(|| LangError::eval(line, "integer overflow in negation"))
                };
                match (op, v) {
                    (UnOp::Neg, Value::Int(i)) => Ok(Value::Int(neg(i)?)),
                    (UnOp::Neg, Value::Point(p)) => {
                        Ok(Value::Point(Point::new(neg(p.x)?, neg(p.y)?)))
                    }
                    (UnOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
                    (op, v) => Err(LangError::eval(
                        line,
                        format!("cannot apply {op:?} to {}", v.type_name()),
                    )),
                }
            }
            Expr::Binary { op, lhs, rhs } => {
                // Short-circuit logicals.
                if matches!(op, BinOp::And | BinOp::Or) {
                    let l = self.eval(lhs, env, line)?;
                    let l = l.as_bool().ok_or_else(|| {
                        LangError::eval(
                            line,
                            format!("logical op needs bool, got {}", l.type_name()),
                        )
                    })?;
                    return match (op, l) {
                        (BinOp::And, false) => Ok(Value::Bool(false)),
                        (BinOp::Or, true) => Ok(Value::Bool(true)),
                        _ => {
                            let r = self.eval(rhs, env, line)?;
                            r.as_bool().map(Value::Bool).ok_or_else(|| {
                                LangError::eval(
                                    line,
                                    format!("logical op needs bool, got {}", r.type_name()),
                                )
                            })
                        }
                    };
                }
                let l = self.eval(lhs, env, line)?;
                let r = self.eval(rhs, env, line)?;
                binary(&op, l, r, line)
            }
        }
    }

    fn call(&mut self, name: &str, args: Vec<Value>, line: usize) -> Result<Value, LangError> {
        let Some(&found) = self.fns.get(name) else {
            return builtin(name, &args, line);
        };
        let (tree, def) = found;
        let mut env = Env::new(tree);
        let args = self.bind("fn", "argument", found, args, line)?;
        for (param, value) in tree.bindings(def.params).iter().zip(args) {
            env.define(tree.text(param.name), value);
        }
        match self.exec_block(def.body, &mut env, &mut None, line)? {
            Flow::Return(v) => Ok(v),
            Flow::Normal => Ok(Value::Int(0)),
        }
    }

    // Typed evaluation helpers.

    fn eval_int(&mut self, e: ExprId, env: &Env<'p>, line: usize) -> Result<i64, LangError> {
        let v = self.eval(e, env, line)?;
        v.as_int()
            .ok_or_else(|| LangError::eval(line, format!("expected an int, got {}", v.type_name())))
    }

    fn eval_point(&mut self, e: ExprId, env: &Env<'p>, line: usize) -> Result<Point, LangError> {
        let v = self.eval(e, env, line)?;
        let p = v.as_point().ok_or_else(|| {
            LangError::eval(line, format!("expected a point, got {}", v.type_name()))
        })?;
        in_range(far(p), line)?;
        Ok(p)
    }

    /// The vertices of a wire or a polygon.
    fn eval_points(
        &mut self,
        run: Run,
        env: &Env<'p>,
        line: usize,
    ) -> Result<Vec<Point>, LangError> {
        run.ids().map(|e| self.eval_point(e, env, line)).collect()
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

    fn eval_layer(&mut self, e: ExprId, env: &Env<'p>, line: usize) -> Result<Layer, LangError> {
        // A name written bare is parsed from the source.
        let owned;
        let name = match *env.tree.expr(e) {
            Expr::Str(name) => {
                self.leaf(line)?;
                env.tree.text(name)
            }
            _ => {
                owned = self.eval(e, env, line)?;
                let Value::Str(name) = &owned else {
                    return Err(LangError::eval(
                        line,
                        format!("expected a layer name, got {}", owned.type_name()),
                    ));
                };
                name
            }
        };
        name.parse()
            .map_err(|_| LangError::eval(line, format!("unknown layer `{name}`")))
    }
}

/// The name a variant asks the library for: the cell's name and, after a
/// `$`, its arguments' [`Value::write_memo_key`] texts joined by commas,
/// with everything but letters and digits an underscore.
fn variant_name((name, args): &Variant<'_>) -> String {
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

/// The variable `name`, read in place.
fn read<'e>(name: Sym, env: &'e Env<'_>, line: usize) -> Result<&'e Value, LangError> {
    let name = env.tree.text(name);
    env.get(name)
        .ok_or_else(|| LangError::eval(line, format!("`{name}` is not defined")))
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
fn in_range(reach: i128, line: usize) -> Result<(), LangError> {
    if reach <= i128::from(MAX_COORD) {
        return Ok(());
    }
    Err(LangError::eval(
        line,
        format!("geometry reaches {reach} lambda from the origin; the limit is 2^40"),
    ))
}

/// `value`, if it nests no deeper than a literal can ([`MAX_DEPTH`]) and
/// is within [`MAX_VALUE_SIZE`]. Every list and record is built here, so
/// no walk over a value (a copy, a drop, `size`, `Display`, a hash or a
/// variant's name) recurses more than [`MAX_DEPTH`] levels.
fn bounded(value: Value, line: usize) -> Result<Value, LangError> {
    let depth = value.depth();
    if depth > MAX_DEPTH {
        return Err(LangError::eval(
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
    Err(LangError::eval(
        line,
        format!(
            "{} of {size} {unit} is over the value bound of {MAX_VALUE_SIZE}",
            value.type_name()
        ),
    ))
}

fn binary(op: &BinOp, l: Value, r: Value, line: usize) -> Result<Value, LangError> {
    use BinOp::*;
    let type_err = |l: &Value, r: &Value| {
        LangError::eval(
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
    let overflow = |what: &str| LangError::eval(line, format!("integer overflow in {what}"));
    let add = |a: i64, b: i64| a.checked_add(b).ok_or_else(|| overflow("addition"));
    let sub = |a: i64, b: i64| a.checked_sub(b).ok_or_else(|| overflow("subtraction"));
    let mul = |a: i64, b: i64| a.checked_mul(b).ok_or_else(|| overflow("multiplication"));
    // `i64::MIN / -1` and `i64::MIN % -1` overflow in every build.
    let div = |a: i64, b: i64, op: fn(i64, i64) -> Option<i64>, what| match b {
        0 => Err(LangError::eval(line, "division by zero")),
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

fn builtin(name: &str, args: &[Value], line: usize) -> Result<Value, LangError> {
    let int_arg = |i: usize| -> Result<i64, LangError> {
        args.get(i)
            .and_then(Value::as_int)
            .ok_or_else(|| LangError::eval(line, format!("`{name}` expects int argument {i}")))
    };
    match (name, args.len()) {
        ("abs", 1) => int_arg(0)?
            .checked_abs()
            .map(Value::Int)
            .ok_or_else(|| LangError::eval(line, "integer overflow in `abs`")),
        ("min", 2) => Ok(Value::Int(int_arg(0)?.min(int_arg(1)?))),
        ("max", 2) => Ok(Value::Int(int_arg(0)?.max(int_arg(1)?))),
        ("len", 1) => match &args[0] {
            Value::List(items) => Ok(Value::Int(items.len() as i64)),
            Value::Str(s) => Ok(Value::Int(s.len() as i64)),
            other => Err(LangError::eval(
                line,
                format!("`len` expects a list or string, got {}", other.type_name()),
            )),
        },
        ("pt", 2) => Ok(Value::Point(Point::new(int_arg(0)?, int_arg(1)?))),
        ("str", 1) => bounded(Value::Str(args[0].to_string()), line),
        _ => Err(LangError::eval(
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
