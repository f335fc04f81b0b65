use crate::ast::*;
use crate::lexer::{lex, Token, TokenKind};
use crate::RtlError;
use std::collections::HashSet;

/// Parses and validates an ISL machine description.
///
/// Validation guarantees the simulator and synthesizer never meet an
/// undeclared name, an out-of-range slice, a dangling `goto`, a write to
/// an input, or a zero/over-64-bit width.
///
/// # Errors
///
/// Any [`RtlError`] variant except the simulation-time ones.
///
/// # Example
///
/// ```
/// let m = silc_rtl::parse("machine m { reg a[4]; state s { a := a + 1; } }")?;
/// assert_eq!(m.regs[0].width, 4);
/// # Ok::<(), silc_rtl::RtlError>(())
/// ```
pub fn parse(source: &str) -> Result<Machine, RtlError> {
    let tokens = lex(source)?;
    // `mem` is a keyword, so `mem <name>` is a declaration wherever it
    // stands — possibly after the states that index it.
    let mems = tokens
        .windows(2)
        .filter_map(|pair| match (&pair[0].kind, &pair[1].kind) {
            (TokenKind::Mem, TokenKind::Ident(name)) => Some(name.clone()),
            _ => None,
        })
        .collect();
    let mut p = Parser {
        tokens,
        pos: 0,
        mems,
        open: 0,
        height: 0,
    };
    let machine = p.machine()?;
    validate(&machine)?;
    Ok(machine)
}

/// Deepest nesting accepted. The parser, validation, both simulators,
/// synthesis and `Drop` recurse once per level of the tree, and a
/// `silc serve` worker runs them on a 2 MiB stack.
const MAX_DEPTH: usize = 64;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Every declared memory's name: `m[3]` is word 3 of a memory and
    /// bit 3 of anything else.
    mems: HashSet<String>,
    /// Statements and operands open around the current token.
    open: usize,
    /// Height of the expression tree parsed last. Operator chains grow a
    /// tree without recursing, so depth is counted on the tree.
    height: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn advance(&mut self) -> TokenKind {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err_here(&self, message: impl Into<String>) -> RtlError {
        let t = &self.tokens[self.pos];
        RtlError::Syntax {
            line: t.line,
            col: t.col,
            message: message.into(),
        }
    }

    /// Records that the tree parsed last now stands `height` high, and
    /// refuses it once it reaches deeper than the bound.
    fn grown(&mut self, height: usize) -> Result<(), RtlError> {
        self.height = height;
        if self.open + height > MAX_DEPTH {
            return Err(self.err_here(format!("nested more than {MAX_DEPTH} levels deep")));
        }
        Ok(())
    }

    fn expect(&mut self, kind: TokenKind) -> Result<(), RtlError> {
        if *self.peek() == kind {
            self.advance();
            Ok(())
        } else {
            Err(self.err_here(format!(
                "expected {}, found {}",
                kind.describe(),
                self.peek().describe()
            )))
        }
    }

    fn ident(&mut self) -> Result<String, RtlError> {
        match self.peek().clone() {
            TokenKind::Ident(s) => {
                self.advance();
                Ok(s)
            }
            other => Err(self.err_here(format!("expected identifier, found {}", other.describe()))),
        }
    }

    fn number(&mut self) -> Result<u64, RtlError> {
        match *self.peek() {
            TokenKind::Number { value, .. } => {
                self.advance();
                Ok(value)
            }
            _ => Err(self.err_here(format!("expected number, found {}", self.peek().describe()))),
        }
    }

    // ---------------------------------------------------------------
    // Grammar
    // ---------------------------------------------------------------

    fn machine(&mut self) -> Result<Machine, RtlError> {
        self.expect(TokenKind::Machine)?;
        let name = self.ident()?;
        self.expect(TokenKind::LBrace)?;
        let mut m = Machine {
            name,
            regs: Vec::new(),
            mems: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            states: Vec::new(),
        };
        loop {
            match self.peek() {
                TokenKind::Reg => self.reg_decl(&mut m)?,
                TokenKind::Mem => self.mem_decl(&mut m)?,
                TokenKind::Port => self.port_decl(&mut m)?,
                TokenKind::StateKw => self.state_decl(&mut m)?,
                TokenKind::RBrace => {
                    self.advance();
                    break;
                }
                _ => {
                    return Err(self.err_here(format!(
                        "expected a declaration or `}}`, found {}",
                        self.peek().describe()
                    )))
                }
            }
        }
        self.expect(TokenKind::Eof)?;
        Ok(m)
    }

    fn reg_decl(&mut self, m: &mut Machine) -> Result<(), RtlError> {
        self.expect(TokenKind::Reg)?;
        let name = self.ident()?;
        self.expect(TokenKind::LBracket)?;
        let width = self.number()?;
        self.expect(TokenKind::RBracket)?;
        let mut init = 0;
        if *self.peek() == TokenKind::Init {
            self.advance();
            init = self.number()?;
        }
        self.expect(TokenKind::Semi)?;
        check_width(&name, width)?;
        m.regs.push(RegDecl {
            name,
            width: width as u32,
            init,
        });
        Ok(())
    }

    fn mem_decl(&mut self, m: &mut Machine) -> Result<(), RtlError> {
        self.expect(TokenKind::Mem)?;
        let name = self.ident()?;
        self.expect(TokenKind::LBracket)?;
        let words = self.number()?;
        self.expect(TokenKind::RBracket)?;
        self.expect(TokenKind::LBracket)?;
        let width = self.number()?;
        self.expect(TokenKind::RBracket)?;
        self.expect(TokenKind::Semi)?;
        check_width(&name, width)?;
        let held: u64 = m.mems.iter().map(|mem| mem.words).sum();
        if words == 0 || words > MAX_MEM_WORDS - held {
            return Err(RtlError::MemoryWords { name, words });
        }
        m.mems.push(MemDecl {
            name,
            words,
            width: width as u32,
        });
        Ok(())
    }

    fn port_decl(&mut self, m: &mut Machine) -> Result<(), RtlError> {
        self.expect(TokenKind::Port)?;
        let is_input = match self.advance() {
            TokenKind::Input => true,
            TokenKind::Output => false,
            _ => return Err(self.err_here("expected `input` or `output` after `port`")),
        };
        let name = self.ident()?;
        self.expect(TokenKind::LBracket)?;
        let width = self.number()?;
        self.expect(TokenKind::RBracket)?;
        self.expect(TokenKind::Semi)?;
        check_width(&name, width)?;
        let decl = PortDecl {
            name,
            width: width as u32,
        };
        if is_input {
            m.inputs.push(decl);
        } else {
            m.outputs.push(decl);
        }
        Ok(())
    }

    fn state_decl(&mut self, m: &mut Machine) -> Result<(), RtlError> {
        self.expect(TokenKind::StateKw)?;
        let name = self.ident()?;
        let body = self.block()?;
        m.states.push(State { name, body });
        Ok(())
    }

    fn block(&mut self) -> Result<Vec<Stmt>, RtlError> {
        self.expect(TokenKind::LBrace)?;
        let mut body = Vec::new();
        while *self.peek() != TokenKind::RBrace {
            body.push(self.stmt()?);
        }
        self.advance(); // }
        Ok(body)
    }

    fn stmt(&mut self) -> Result<Stmt, RtlError> {
        // Every cycle in the statement grammar comes through here.
        self.open += 1;
        self.grown(0)?;
        let stmt = match self.peek().clone() {
            TokenKind::If => {
                self.advance();
                let cond = self.expr()?;
                let then_body = self.block()?;
                let else_body = if *self.peek() == TokenKind::Else {
                    self.advance();
                    if *self.peek() == TokenKind::If {
                        vec![self.stmt()?] // else if chains
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
                })
            }
            TokenKind::Goto => {
                self.advance();
                let name = self.ident()?;
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::Goto(name))
            }
            TokenKind::Halt => {
                self.advance();
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::Halt)
            }
            TokenKind::Ident(name) => {
                self.advance();
                let target = if *self.peek() == TokenKind::LBracket {
                    self.advance();
                    // Distinguish slice target (numbers) from memory write
                    // (expression address) by trying `num : num ]` or,
                    // off a memory, `num ]` first.
                    let save = self.pos;
                    if let TokenKind::Number { value: hi, .. } = *self.peek() {
                        self.advance();
                        match self.peek().clone() {
                            TokenKind::Colon => {
                                self.advance();
                                let lo = self.number()?;
                                self.expect(TokenKind::RBracket)?;
                                Target::Signal {
                                    name,
                                    slice: Some((hi as u32, lo as u32)),
                                }
                            }
                            TokenKind::RBracket if !self.mems.contains(&name) => {
                                self.advance();
                                Target::Signal {
                                    name,
                                    slice: Some((hi as u32, hi as u32)),
                                }
                            }
                            _ => {
                                self.pos = save;
                                let addr = self.expr()?;
                                self.expect(TokenKind::RBracket)?;
                                Target::MemWord { name, addr }
                            }
                        }
                    } else {
                        let addr = self.expr()?;
                        self.expect(TokenKind::RBracket)?;
                        Target::MemWord { name, addr }
                    }
                } else {
                    Target::Signal { name, slice: None }
                };
                self.expect(TokenKind::Assign)?;
                let value = self.expr()?;
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::Assign { target, value })
            }
            other => {
                Err(self.err_here(format!("expected a statement, found {}", other.describe())))
            }
        }?;
        self.open -= 1;
        Ok(stmt)
    }

    // Precedence climbing.
    fn expr(&mut self) -> Result<Expr, RtlError> {
        self.binary_expr(0)
    }

    fn binary_expr(&mut self, min_prec: u8) -> Result<Expr, RtlError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let (op, prec) = match self.peek() {
                TokenKind::OrOr => (BinaryOp::LogicalOr, 1),
                TokenKind::AndAnd => (BinaryOp::LogicalAnd, 2),
                TokenKind::Pipe => (BinaryOp::Or, 3),
                TokenKind::Caret => (BinaryOp::Xor, 4),
                TokenKind::Amp => (BinaryOp::And, 5),
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
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            self.advance();
            let left = self.height;
            let rhs = self.binary_expr(prec + 1)?;
            self.grown(left.max(self.height) + 1)?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, RtlError> {
        // Every cycle in the expression grammar comes through here, and
        // a new tree starts.
        self.open += 1;
        self.grown(0)?;
        let op = match self.peek() {
            TokenKind::Tilde => Some(UnaryOp::Not),
            TokenKind::Minus => Some(UnaryOp::Neg),
            TokenKind::Bang => Some(UnaryOp::LogicalNot),
            _ => None,
        };
        let e = if let Some(op) = op {
            self.advance();
            let expr = Box::new(self.unary_expr()?);
            self.grown(self.height + 1)?;
            Expr::Unary { op, expr }
        } else {
            self.postfix_expr()?
        };
        self.open -= 1;
        Ok(e)
    }

    fn postfix_expr(&mut self) -> Result<Expr, RtlError> {
        let mut e = self.primary_expr()?;
        while *self.peek() == TokenKind::LBracket {
            self.advance();
            // `[num]`, `[num:num]`, or `[expr]` (memory index).
            let on_mem = matches!(&e, Expr::Ident(name) if self.mems.contains(name));
            let save = self.pos;
            if let TokenKind::Number { value: hi, .. } = *self.peek() {
                self.advance();
                match self.peek().clone() {
                    TokenKind::Colon => {
                        self.advance();
                        let lo = self.number()?;
                        self.expect(TokenKind::RBracket)?;
                        self.grown(self.height + 1)?;
                        e = Expr::Slice {
                            base: Box::new(e),
                            hi: hi as u32,
                            lo: lo as u32,
                        };
                        continue;
                    }
                    TokenKind::RBracket if !on_mem => {
                        self.advance();
                        self.grown(self.height + 1)?;
                        e = Expr::Slice {
                            base: Box::new(e),
                            hi: hi as u32,
                            lo: hi as u32,
                        };
                        continue;
                    }
                    _ => {
                        self.pos = save;
                    }
                }
            }
            let idx = self.expr()?;
            self.expect(TokenKind::RBracket)?;
            // `ident[expr]` is a memory read; anything else indexed by an
            // expression is an error caught in validation.
            self.grown(self.height + 1)?;
            match e {
                Expr::Ident(name) => {
                    e = Expr::MemRead {
                        name,
                        addr: Box::new(idx),
                    };
                }
                _ => {
                    return Err(self.err_here("only a memory name can be indexed by an expression"))
                }
            }
        }
        Ok(e)
    }

    fn primary_expr(&mut self) -> Result<Expr, RtlError> {
        match self.peek().clone() {
            TokenKind::Number { value, width } => {
                self.advance();
                Ok(Expr::Const { value, width })
            }
            TokenKind::Ident(name) => {
                self.advance();
                Ok(Expr::Ident(name))
            }
            TokenKind::LParen => {
                self.advance();
                let e = self.expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::LBrace => {
                self.advance();
                let mut parts = vec![self.expr()?];
                let mut below = self.height;
                while *self.peek() == TokenKind::Comma {
                    self.advance();
                    parts.push(self.expr()?);
                    below = below.max(self.height);
                }
                self.expect(TokenKind::RBrace)?;
                self.grown(below + 1)?;
                Ok(Expr::Concat(parts))
            }
            other => Err(self.err_here(format!(
                "expected an expression, found {}",
                other.describe()
            ))),
        }
    }
}

/// Most words a machine's memories may hold between them: 2²⁰, 256 times
/// the PDP-8's 4 096. A simulator holds every word, so the bound keeps one
/// declaration from asking it for the whole of memory.
pub const MAX_MEM_WORDS: u64 = 1 << 20;

fn check_width(name: &str, width: u64) -> Result<(), RtlError> {
    if width == 0 || width > 64 {
        return Err(RtlError::BadWidth {
            name: name.to_string(),
            width,
        });
    }
    Ok(())
}

// -------------------------------------------------------------------
// Validation
// -------------------------------------------------------------------

struct Symbols<'a> {
    m: &'a Machine,
}

impl<'a> Symbols<'a> {
    fn width_of_signal(&self, name: &str) -> Option<u32> {
        self.m
            .regs
            .iter()
            .map(|r| (&r.name, r.width))
            .chain(self.m.inputs.iter().map(|p| (&p.name, p.width)))
            .chain(self.m.outputs.iter().map(|p| (&p.name, p.width)))
            .find(|(n, _)| n.as_str() == name)
            .map(|(_, w)| w)
    }

    fn is_mem(&self, name: &str) -> bool {
        self.m.mems.iter().any(|d| d.name == name)
    }

    fn is_input(&self, name: &str) -> bool {
        self.m.inputs.iter().any(|p| p.name == name)
    }

    fn is_writable(&self, name: &str) -> bool {
        self.m.regs.iter().any(|r| r.name == name) || self.m.outputs.iter().any(|p| p.name == name)
    }
}

fn validate(m: &Machine) -> Result<(), RtlError> {
    if m.states.is_empty() {
        return Err(RtlError::NoStates);
    }
    // Unique names across all declaration spaces and states.
    let mut seen: HashSet<&str> = HashSet::new();
    for name in m
        .regs
        .iter()
        .map(|r| r.name.as_str())
        .chain(m.mems.iter().map(|d| d.name.as_str()))
        .chain(m.inputs.iter().map(|p| p.name.as_str()))
        .chain(m.outputs.iter().map(|p| p.name.as_str()))
    {
        if !seen.insert(name) {
            return Err(RtlError::Redeclared {
                name: name.to_string(),
            });
        }
    }
    let mut state_names: HashSet<&str> = HashSet::new();
    for s in &m.states {
        if !state_names.insert(s.name.as_str()) {
            return Err(RtlError::Redeclared {
                name: s.name.clone(),
            });
        }
    }

    let syms = Symbols { m };
    for s in &m.states {
        validate_block(&s.body, &syms, m)?;
    }
    Ok(())
}

fn validate_block(body: &[Stmt], syms: &Symbols<'_>, m: &Machine) -> Result<(), RtlError> {
    for stmt in body {
        match stmt {
            Stmt::Assign { target, value } => {
                validate_expr(value, syms)?;
                match target {
                    Target::Signal { name, slice } => {
                        if syms.is_mem(name) {
                            return Err(RtlError::MemoryMisuse { name: name.clone() });
                        }
                        let width = syms
                            .width_of_signal(name)
                            .ok_or_else(|| RtlError::Undeclared { name: name.clone() })?;
                        if syms.is_input(name) || !syms.is_writable(name) {
                            return Err(RtlError::NotWritable { name: name.clone() });
                        }
                        if let Some((hi, lo)) = slice {
                            if hi < lo || *hi >= width {
                                return Err(RtlError::SliceOutOfRange {
                                    name: name.clone(),
                                    hi: *hi,
                                    lo: *lo,
                                    width,
                                });
                            }
                        }
                    }
                    Target::MemWord { name, addr } => {
                        if !syms.is_mem(name) {
                            // A slice-looking assignment to a register
                            // parses as MemWord when the index is an
                            // expression; diagnose precisely.
                            return if syms.width_of_signal(name).is_some() {
                                Err(RtlError::MemoryMisuse { name: name.clone() })
                            } else {
                                Err(RtlError::Undeclared { name: name.clone() })
                            };
                        }
                        validate_expr(addr, syms)?;
                    }
                }
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                validate_expr(cond, syms)?;
                validate_block(then_body, syms, m)?;
                validate_block(else_body, syms, m)?;
            }
            Stmt::Goto(name) => {
                if m.state_index(name).is_none() {
                    return Err(RtlError::UnknownState { name: name.clone() });
                }
            }
            Stmt::Halt => {}
        }
    }
    Ok(())
}

fn validate_expr(e: &Expr, syms: &Symbols<'_>) -> Result<(), RtlError> {
    match e {
        Expr::Const { .. } => Ok(()),
        Expr::Ident(name) => {
            if syms.is_mem(name) {
                return Err(RtlError::MemoryMisuse { name: name.clone() });
            }
            syms.width_of_signal(name)
                .map(|_| ())
                .ok_or_else(|| RtlError::Undeclared { name: name.clone() })
        }
        Expr::Slice { base, hi, lo } => {
            validate_expr(base, syms)?;
            if hi < lo {
                return Err(RtlError::SliceOutOfRange {
                    name: "<expr>".into(),
                    hi: *hi,
                    lo: *lo,
                    width: 0,
                });
            }
            if let Expr::Ident(name) = base.as_ref() {
                let width = syms
                    .width_of_signal(name)
                    .ok_or_else(|| RtlError::Undeclared { name: name.clone() })?;
                if *hi >= width {
                    return Err(RtlError::SliceOutOfRange {
                        name: name.clone(),
                        hi: *hi,
                        lo: *lo,
                        width,
                    });
                }
            }
            Ok(())
        }
        Expr::MemRead { name, addr } => {
            if !syms.is_mem(name) {
                return Err(if syms.width_of_signal(name).is_some() {
                    RtlError::MemoryMisuse { name: name.clone() }
                } else {
                    RtlError::Undeclared { name: name.clone() }
                });
            }
            validate_expr(addr, syms)
        }
        Expr::Unary { expr, .. } => validate_expr(expr, syms),
        Expr::Binary { lhs, rhs, .. } => {
            validate_expr(lhs, syms)?;
            validate_expr(rhs, syms)
        }
        Expr::Concat(parts) => {
            for p in parts {
                validate_expr(p, syms)?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_counter() {
        let m = parse(
            "machine counter {
                reg count[8] init 5;
                port output out[8];
                state run {
                    count := count + 1;
                    out := count;
                    if count == 10 { halt; }
                }
            }",
        )
        .unwrap();
        assert_eq!(m.name, "counter");
        assert_eq!(m.regs[0].init, 5);
        assert_eq!(m.states[0].body.len(), 3);
    }

    #[test]
    fn parses_memory_machine() {
        let m = parse(
            "machine memtest {
                reg addr[4];
                reg data[8];
                mem ram[16][8];
                state s {
                    ram[addr] := data;
                    data := ram[addr + 1];
                }
            }",
        )
        .unwrap();
        assert!(matches!(
            m.states[0].body[0],
            Stmt::Assign {
                target: Target::MemWord { .. },
                ..
            }
        ));
        assert!(matches!(
            m.states[0].body[1],
            Stmt::Assign {
                value: Expr::MemRead { .. },
                ..
            }
        ));
    }

    #[test]
    fn constant_index_on_a_memory_is_a_word() {
        // The parser meets `m[128]` before or after it meets `m`.
        for source in [
            "machine b { reg w[12]; mem m[256][12]; state s { m[128] := w; w := m[7] + w[7]; } }",
            "machine b { reg w[12]; state s { m[128] := w; w := m[7] + w[7]; } mem m[256][12]; }",
        ] {
            let m = parse(source).unwrap();
            let [Stmt::Assign { target, .. }, Stmt::Assign { value, .. }] = &m.states[0].body[..]
            else {
                panic!("unexpected {:?}", m.states[0].body);
            };
            assert!(
                matches!(target, Target::MemWord { name, addr: Expr::Const { value: 128, .. } } if name == "m"),
                "{target:?}"
            );
            // On the register the same spelling stays a bit select.
            let Expr::Binary { lhs, rhs, .. } = value else {
                panic!("unexpected {value:?}");
            };
            assert!(matches!(**lhs, Expr::MemRead { .. }), "{lhs:?}");
            assert!(matches!(**rhs, Expr::Slice { hi: 7, lo: 7, .. }), "{rhs:?}");
        }
    }

    #[test]
    fn slice_targets_and_expressions() {
        let m = parse(
            "machine s {
                reg a[8];
                reg b[4];
                state s0 {
                    a[7:4] := b;
                    b := a[3:0];
                    a[0] := b[3];
                }
            }",
        )
        .unwrap();
        match &m.states[0].body[0] {
            Stmt::Assign {
                target: Target::Signal { slice, .. },
                ..
            } => assert_eq!(*slice, Some((7, 4))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn precedence_is_sane() {
        let m =
            parse("machine p { reg a[8]; state s { a := 1 + 2 << 3 == 0 && a > 1; } }").unwrap();
        // Outermost operator must be &&.
        match &m.states[0].body[0] {
            Stmt::Assign { value, .. } => {
                assert!(matches!(
                    value,
                    Expr::Binary {
                        op: BinaryOp::LogicalAnd,
                        ..
                    }
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn else_if_chains() {
        let m = parse(
            "machine e { reg a[4]; state s {
                if a == 0 { a := 1; } else if a == 1 { a := 2; } else { a := 0; }
            } }",
        )
        .unwrap();
        match &m.states[0].body[0] {
            Stmt::If { else_body, .. } => {
                assert_eq!(else_body.len(), 1);
                assert!(matches!(else_body[0], Stmt::If { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn undeclared_rejected() {
        let err = parse("machine u { reg a[4]; state s { a := b; } }").unwrap_err();
        assert!(matches!(err, RtlError::Undeclared { .. }), "{err}");
    }

    #[test]
    fn goto_unknown_state_rejected() {
        let err = parse("machine g { reg a[4]; state s { goto t; } }").unwrap_err();
        assert!(matches!(err, RtlError::UnknownState { .. }));
    }

    #[test]
    fn input_not_writable() {
        let err = parse("machine i { port input x[4]; state s { x := 12; } }").unwrap_err();
        assert!(matches!(err, RtlError::NotWritable { .. }));
    }

    #[test]
    fn slice_bounds_checked() {
        let err = parse("machine b { reg a[4]; state s { a := a[4]; } }").unwrap_err();
        assert!(matches!(err, RtlError::SliceOutOfRange { .. }));
        let err = parse("machine b { reg a[4]; state s { a[5:2] := 1; } }").unwrap_err();
        assert!(matches!(err, RtlError::SliceOutOfRange { .. }));
    }

    #[test]
    fn widths_checked() {
        assert!(matches!(
            parse("machine w { reg a[0]; state s { } }"),
            Err(RtlError::BadWidth { .. })
        ));
        assert!(matches!(
            parse("machine w { reg a[65]; state s { } }"),
            Err(RtlError::BadWidth { .. })
        ));
    }

    #[test]
    fn duplicate_names_rejected() {
        assert!(matches!(
            parse("machine d { reg a[4]; reg a[4]; state s { } }"),
            Err(RtlError::Redeclared { .. })
        ));
        assert!(matches!(
            parse("machine d { reg a[4]; state s { } state s { } }"),
            Err(RtlError::Redeclared { .. })
        ));
    }

    #[test]
    fn no_states_rejected() {
        assert!(matches!(
            parse("machine n { reg a[4]; }"),
            Err(RtlError::NoStates)
        ));
    }

    #[test]
    fn memories_hold_at_least_one_word_and_at_most_the_bound_in_all() {
        let machine = |mems: &str| format!("machine m {{ {mems} state s {{ halt; }} }}");
        let err = parse(&machine("mem x[0][8];")).unwrap_err();
        assert_eq!(err.to_string(), "memory `x` has zero words");
        // Once an allocation the simulator aborted on.
        let err = parse(&machine("mem x[99999999999][8];")).unwrap_err();
        assert!(matches!(&err, RtlError::MemoryWords { name, .. } if name == "x"));
        assert!(err.to_string().contains("1048576"), "{err}");
        // The bound is on the total: each memory fits, the second does not.
        let half = MAX_MEM_WORDS / 2;
        let err = parse(&machine(&format!(
            "mem a[{half}][8]; mem b[{}][8];",
            half + 1
        )));
        assert!(matches!(err, Err(RtlError::MemoryWords { name, .. }) if name == "b"));
        let fits = parse(&machine(&format!("mem a[{half}][8]; mem b[{half}][8];")));
        assert_eq!(fits.unwrap().mems.len(), 2);
    }

    #[test]
    fn memory_without_index_rejected() {
        let err = parse("machine m { mem r[8][4]; reg a[4]; state s { a := r; } }").unwrap_err();
        assert!(matches!(err, RtlError::MemoryMisuse { .. }));
    }

    #[test]
    fn register_indexed_by_expression_rejected() {
        let err = parse("machine m { reg a[8]; reg b[3]; state s { a[b] := 1; } }").unwrap_err();
        assert!(matches!(err, RtlError::MemoryMisuse { .. }), "{err}");
    }

    #[test]
    fn concat_parses() {
        let m =
            parse("machine c { reg a[4]; reg b[4]; reg w[8]; state s { w := {a, b}; } }").unwrap();
        match &m.states[0].body[0] {
            Stmt::Assign { value, .. } => {
                assert!(matches!(value, Expr::Concat(parts) if parts.len() == 2));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn syntax_errors_carry_position() {
        let err = parse("machine x {\n  reg a[4]\n}").unwrap_err();
        match err {
            RtlError::Syntax { line, .. } => assert_eq!(line, 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nesting_bombs_are_line_numbered_errors() {
        // Brackets recurse in the parser; an operator or slice chain grows
        // a left-deep tree without recursing; blocks nest statements.
        let bombs = [
            format!("r :=\n{}1{};", "(".repeat(20_000), ")".repeat(20_000)),
            format!("r :=\n{}r{};", "{".repeat(20_000), "}".repeat(20_000)),
            format!("r :=\n{}1{};", "m[".repeat(20_000), "]".repeat(20_000)),
            format!("r :=\n{}1;", "1+".repeat(300_000)),
            format!("r :=\n{}1;", "~".repeat(100_000)),
            format!("r :=\nr{};", "[7:0]".repeat(300_000)),
            format!("\n{}{}", "if r { ".repeat(50_000), "}".repeat(50_000)),
            format!("\nif r {{ }}{}", " else if r { }".repeat(50_000)),
        ];
        for bomb in bombs {
            let machine = format!("machine b {{ reg r[8]; mem m[4][8]; state s {{ {bomb} }} }}");
            match parse(&machine) {
                Err(RtlError::Syntax { line, message, .. }) => {
                    assert_eq!(line, 2);
                    assert!(message.contains("levels deep"), "{message}");
                }
                other => panic!("{:.40}: {other:?}", bomb),
            }
        }
        // The bound is on depth, not size: wide and long machines pass.
        let wide = format!("r := {{{}r}};", "~(r + 1), ".repeat(10_000));
        let machine = format!("machine w {{ reg r[8]; state s {{ {} }} }}", wide.repeat(3));
        assert!(parse(&machine).is_ok());
    }
}
