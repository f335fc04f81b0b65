use crate::CifError;
use silc_geom::{
    Fingerprint, FpHasher, Orientation, Path, Point, Polygon, Rect, Transform, MAX_COORD,
};
use silc_layout::{Cell, CellId, Element, Instance, Layer, Library};
use std::collections::HashMap;

/// The result of parsing a CIF file.
///
/// Coordinates are in **centimicrons** (CIF's base unit), with all `DS`
/// scale factors applied. The file's top level (geometry and calls outside
/// any symbol definition) becomes a synthesised cell named `__top__`.
#[derive(Debug)]
pub struct CifDesign {
    /// The parsed hierarchy.
    pub library: Library,
    /// The synthesised top-level cell.
    pub top: CellId,
}

impl CifDesign {
    /// Total number of symbols defined in the file (excluding the
    /// synthesised top cell).
    pub fn symbol_count(&self) -> usize {
        self.library.len() - 1
    }
}

impl Fingerprint for CifDesign {
    fn fp_hash(&self, h: &mut FpHasher) {
        self.library.fp_hash(h);
        self.top.fp_hash(h);
    }
}

/// Parses CIF 2.0 text.
///
/// Supported: nested comments, `DS`/`DF` with scale factors, `C` calls with
/// `T`/`M X`/`M Y`/`R` (Manhattan directions only), `L`, `B` (with optional
/// axis-aligned direction), `P`, `W`, `R` round-flashes (approximated by
/// their bounding square), `9 name` symbol names, other numeric user
/// extensions (skipped), and the `E` end marker.
///
/// # Errors
///
/// Any [`CifError`] variant other than `UnknownRoot`; offsets in
/// [`CifError::Syntax`] are byte positions into `text`.
///
/// # Example
///
/// ```
/// let text = "DS 1 2 1; 9 pad; L NM; B 10 10 5 5; DF; C 1 T 0 0; E";
/// let design = silc_cif::parse(text)?;
/// assert_eq!(design.symbol_count(), 1);
/// # Ok::<(), silc_cif::CifError>(())
/// ```
pub fn parse(text: &str) -> Result<CifDesign, CifError> {
    parse_traced(text, &silc_trace::Tracer::disabled())
}

/// [`parse`] with a [`Tracer`](silc_trace::Tracer): records a `cif.parse` span with byte and
/// symbol counts. With a disabled tracer this is exactly [`parse`].
///
/// # Errors
///
/// Same as [`parse`].
pub fn parse_traced(text: &str, tracer: &silc_trace::Tracer) -> Result<CifDesign, CifError> {
    let mut s = silc_trace::span!(tracer, "cif.parse");
    s.attr("bytes", text.len() as u64);
    let design = Parser::new(text).run()?;
    s.attr("symbols", design.symbol_count() as u64);
    tracer.add("cif.parsed_symbols", design.symbol_count() as u64);
    Ok(design)
}

/// A symbol definition being accumulated.
#[derive(Debug, Default)]
struct SymbolBody {
    name: Option<String>,
    elements: Vec<Element>,
    calls: Vec<(u64, Transform)>,
    ports: Vec<silc_layout::Port>,
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// (numerator, denominator) of the current DS scale.
    scale: (i64, i64),
    current: Option<(u64, SymbolBody)>,
    symbols: HashMap<u64, SymbolBody>,
    top: SymbolBody,
    current_layer: Option<Layer>,
    ended: bool,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
            scale: (1, 1),
            current: None,
            symbols: HashMap::new(),
            top: SymbolBody::default(),
            current_layer: None,
            ended: false,
        }
    }

    fn run(mut self) -> Result<CifDesign, CifError> {
        while !self.ended {
            self.skip_separators()?;
            if self.pos >= self.bytes.len() {
                break;
            }
            self.command()?;
        }
        if self.current.is_some() {
            return Err(CifError::UnexpectedEnd);
        }
        self.build()
    }

    // ------------------------------------------------------------------
    // Lexical layer
    // ------------------------------------------------------------------

    fn err(&self, message: impl Into<String>) -> CifError {
        CifError::Syntax {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_separators(&mut self) -> Result<(), CifError> {
        loop {
            match self.peek() {
                Some(b'(') => self.skip_comment()?,
                Some(c) if c.is_ascii_whitespace() || c == b',' => self.pos += 1,
                _ => return Ok(()),
            }
        }
    }

    fn skip_comment(&mut self) -> Result<(), CifError> {
        let mut depth = 0usize;
        while let Some(c) = self.peek() {
            self.pos += 1;
            match c {
                b'(' => depth += 1,
                b')' => {
                    depth -= 1;
                    if depth == 0 {
                        return Ok(());
                    }
                }
                _ => {}
            }
        }
        Err(CifError::UnexpectedEnd)
    }

    fn expect_semi(&mut self) -> Result<(), CifError> {
        self.skip_separators()?;
        match self.peek() {
            Some(b';') => {
                self.pos += 1;
                Ok(())
            }
            Some(c) => Err(self.err(format!("expected `;`, found `{}`", c as char))),
            None => Err(CifError::UnexpectedEnd),
        }
    }

    fn skip_to_semi(&mut self) -> Result<(), CifError> {
        loop {
            match self.peek() {
                Some(b';') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'(') => self.skip_comment()?,
                Some(_) => self.pos += 1,
                None => return Err(CifError::UnexpectedEnd),
            }
        }
    }

    fn integer(&mut self) -> Result<i64, CifError> {
        self.skip_separators()?;
        let start = self.pos;
        let mut neg = false;
        if self.peek() == Some(b'-') {
            neg = true;
            self.pos += 1;
        }
        let mut value: i64 = 0;
        let mut digits = 0;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() {
                value = value
                    .checked_mul(10)
                    .and_then(|v| v.checked_add(i64::from(c - b'0')))
                    .ok_or_else(|| self.err("integer out of range"))?;
                digits += 1;
                self.pos += 1;
            } else {
                break;
            }
        }
        if digits == 0 {
            self.pos = start;
            return Err(self.err("expected an integer"));
        }
        Ok(if neg { -value } else { value })
    }

    fn try_integer(&mut self) -> Result<Option<i64>, CifError> {
        self.skip_separators()?;
        match self.peek() {
            Some(c) if c.is_ascii_digit() || c == b'-' => Ok(Some(self.integer()?)),
            _ => Ok(None),
        }
    }

    fn word(&mut self) -> Result<String, CifError> {
        self.skip_separators()?;
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok(String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned())
    }

    /// Reads a distance/coordinate and applies the current scale.
    fn scaled(&mut self) -> Result<i64, CifError> {
        let v = self.integer()?;
        self.scale(v)
    }

    /// Applies the current scale to `v`, which must come out exact and
    /// within [`MAX_COORD`] of the origin.
    fn scale(&self, v: i64) -> Result<i64, CifError> {
        let (a, b) = self.scale;
        let num = i128::from(v) * i128::from(a);
        if num % i128::from(b) != 0 {
            return Err(CifError::InexactScale { value: v, a, b });
        }
        match i64::try_from(num / i128::from(b)) {
            Ok(scaled) if scaled.unsigned_abs() <= MAX_COORD.unsigned_abs() => Ok(scaled),
            _ => {
                let line = self.bytes[..self.pos]
                    .iter()
                    .filter(|&&c| c == b'\n')
                    .count()
                    + 1;
                Err(self.err(format!(
                    "line {line}: coordinate {v} is outside the supported range of +-2^40"
                )))
            }
        }
    }

    // ------------------------------------------------------------------
    // Command layer
    // ------------------------------------------------------------------

    fn command(&mut self) -> Result<(), CifError> {
        let c = self.peek().ok_or(CifError::UnexpectedEnd)?;
        match c {
            // An empty command (e.g. the terminator of a standalone
            // comment) is legal and means nothing.
            b';' => {
                self.pos += 1;
                Ok(())
            }
            b'D' => {
                self.pos += 1;
                self.skip_separators()?;
                match self.peek() {
                    Some(b'S') => {
                        self.pos += 1;
                        self.define_start()
                    }
                    Some(b'F') => {
                        self.pos += 1;
                        self.define_finish()
                    }
                    Some(b'D') => Err(self.err("DD (delete definition) is not supported")),
                    _ => Err(self.err("expected DS, DF or DD")),
                }
            }
            b'C' => {
                self.pos += 1;
                self.call()
            }
            b'L' => {
                self.pos += 1;
                self.layer()
            }
            b'B' => {
                self.pos += 1;
                self.boxes()
            }
            b'P' => {
                self.pos += 1;
                self.polygon()
            }
            b'W' => {
                self.pos += 1;
                self.wire()
            }
            b'R' => {
                self.pos += 1;
                self.roundflash()
            }
            b'E' => {
                self.pos += 1;
                self.ended = true;
                Ok(())
            }
            b'0'..=b'9' => self.user_extension(),
            _ => Err(self.err(format!("unknown command `{}`", c as char))),
        }
    }

    fn define_start(&mut self) -> Result<(), CifError> {
        if self.current.is_some() {
            return Err(self.err("nested DS is not allowed"));
        }
        let id = self.integer()?;
        if id <= 0 {
            return Err(self.err("symbol number must be positive"));
        }
        let (mut a, mut b) = (1, 1);
        if let Some(na) = self.try_integer()? {
            a = na;
            b = self.integer()?;
            if a <= 0 || b <= 0 {
                return Err(self.err("scale factors must be positive"));
            }
        }
        self.expect_semi()?;
        self.scale = (a, b);
        self.current = Some((id as u64, SymbolBody::default()));
        self.current_layer = None;
        Ok(())
    }

    fn define_finish(&mut self) -> Result<(), CifError> {
        self.expect_semi()?;
        let (id, body) = self
            .current
            .take()
            .ok_or_else(|| self.err("DF without matching DS"))?;
        self.symbols.insert(id, body);
        self.scale = (1, 1);
        self.current_layer = None;
        Ok(())
    }

    fn body(&mut self) -> &mut SymbolBody {
        match &mut self.current {
            Some((_, b)) => b,
            None => &mut self.top,
        }
    }

    fn call(&mut self) -> Result<(), CifError> {
        let id = self.integer()?;
        if id <= 0 {
            return Err(self.err("called symbol number must be positive"));
        }
        let mut total = Transform::IDENTITY;
        loop {
            self.skip_separators()?;
            match self.peek() {
                Some(b';') => {
                    self.pos += 1;
                    break;
                }
                Some(b'T') => {
                    self.pos += 1;
                    let x = self.scaled()?;
                    let y = self.scaled()?;
                    total = Transform::translate(Point::new(x, y)).then(total);
                }
                Some(b'M') => {
                    self.pos += 1;
                    self.skip_separators()?;
                    let axis = self.peek().ok_or(CifError::UnexpectedEnd)?;
                    self.pos += 1;
                    let orient = match axis {
                        b'X' => Orientation::MX,
                        b'Y' => Orientation::MX180,
                        _ => return Err(self.err("mirror must be M X or M Y")),
                    };
                    total = Transform::new(orient, Point::ORIGIN).then(total);
                }
                Some(b'R') => {
                    self.pos += 1;
                    let a = self.integer()?;
                    let b = self.integer()?;
                    let orient = match (a.signum(), b.signum()) {
                        (1, 0) => Orientation::R0,
                        (0, 1) => Orientation::R90,
                        (-1, 0) => Orientation::R180,
                        (0, -1) => Orientation::R270,
                        _ => return Err(CifError::NonManhattanRotation { a, b }),
                    };
                    total = Transform::new(orient, Point::ORIGIN).then(total);
                }
                Some(c) => {
                    return Err(self.err(format!("unexpected `{}` in call", c as char)));
                }
                None => return Err(CifError::UnexpectedEnd),
            }
        }
        self.body().calls.push((id as u64, total));
        Ok(())
    }

    fn layer(&mut self) -> Result<(), CifError> {
        let name = self.word()?;
        let layer: Layer = name
            .parse()
            .map_err(|_| self.err(format!("unknown layer `{name}`")))?;
        self.expect_semi()?;
        self.current_layer = Some(layer);
        Ok(())
    }

    fn need_layer(&mut self) -> Result<Layer, CifError> {
        self.current_layer
            .ok_or_else(|| self.err("geometry before any L (layer) command"))
    }

    fn boxes(&mut self) -> Result<(), CifError> {
        let layer = self.need_layer()?;
        let length = self.scaled()?;
        let width = self.scaled()?;
        let cx = self.scaled()?;
        let cy = self.scaled()?;
        let (mut length, mut width) = (length, width);
        if let Some(dx) = self.try_integer()? {
            let dy = self.integer()?;
            match (dx.signum(), dy.signum()) {
                (_, 0) => {}
                (0, _) => std::mem::swap(&mut length, &mut width),
                _ => return Err(CifError::NonManhattanRotation { a: dx, b: dy }),
            }
        }
        self.expect_semi()?;
        if length <= 0 || width <= 0 {
            return Err(CifError::BadGeometry {
                message: format!("box with non-positive extent {length} x {width}"),
            });
        }
        if length % 2 != 0 || width % 2 != 0 {
            return Err(CifError::BadGeometry {
                message: "box corners fall off the integer grid (odd extent)".into(),
            });
        }
        let r = Rect::new(
            Point::new(cx - length / 2, cy - width / 2),
            Point::new(cx + length / 2, cy + width / 2),
        )
        .map_err(|e| CifError::BadGeometry {
            message: e.to_string(),
        })?;
        self.body().elements.push(Element::rect(layer, r));
        Ok(())
    }

    fn points_until_semi(&mut self) -> Result<Vec<Point>, CifError> {
        let mut pts = Vec::new();
        while let Some(x) = self.try_integer()? {
            // Read raw to reuse try_integer for termination, then scale.
            let x = self.scale(x)?;
            let y = self.scaled()?;
            pts.push(Point::new(x, y));
        }
        self.expect_semi()?;
        Ok(pts)
    }

    fn polygon(&mut self) -> Result<(), CifError> {
        let layer = self.need_layer()?;
        let pts = self.points_until_semi()?;
        let poly = Polygon::new(pts).map_err(|e| CifError::BadGeometry {
            message: e.to_string(),
        })?;
        self.body().elements.push(Element::new(layer, poly));
        Ok(())
    }

    fn wire(&mut self) -> Result<(), CifError> {
        let layer = self.need_layer()?;
        let width = self.scaled()?;
        let pts = self.points_until_semi()?;
        let path = Path::new(width, pts).map_err(|e| CifError::BadGeometry {
            message: e.to_string(),
        })?;
        self.body().elements.push(Element::new(layer, path));
        Ok(())
    }

    /// Round flashes are approximated by their bounding square — SILC never
    /// emits them, but other tools' CIF may contain them (e.g. pads).
    fn roundflash(&mut self) -> Result<(), CifError> {
        let layer = self.need_layer()?;
        let diameter = self.scaled()?;
        let cx = self.scaled()?;
        let cy = self.scaled()?;
        self.expect_semi()?;
        if diameter <= 0 || diameter % 2 != 0 {
            return Err(CifError::BadGeometry {
                message: format!("round flash with unusable diameter {diameter}"),
            });
        }
        let r = Rect::centered(Point::new(cx, cy), diameter, diameter).map_err(|e| {
            CifError::BadGeometry {
                message: e.to_string(),
            }
        })?;
        self.body().elements.push(Element::rect(layer, r));
        Ok(())
    }

    fn user_extension(&mut self) -> Result<(), CifError> {
        let digit = self.peek().expect("caller checked");
        self.pos += 1;
        if digit == b'9' {
            // `94 label x y [layer];` is the point-label extension SILC
            // uses for ports; bare `9 name;` names the current symbol.
            if self.peek() == Some(b'4') {
                self.pos += 1;
                let name = self.word()?;
                let x = self.scaled()?;
                let y = self.scaled()?;
                self.skip_separators()?;
                let layer = if matches!(self.peek(), Some(c) if c.is_ascii_alphabetic()) {
                    let lname = self.word()?;
                    lname.parse::<Layer>().ok()
                } else {
                    None
                };
                self.skip_to_semi()?;
                if let Some(layer) = layer {
                    self.body()
                        .ports
                        .push(silc_layout::Port::new(name, layer, Point::new(x, y)));
                }
                return Ok(());
            }
            self.skip_separators()?;
            if matches!(self.peek(), Some(c) if c.is_ascii_alphabetic() || c == b'_') {
                let name = self.word()?;
                self.skip_to_semi()?;
                self.body().name = Some(name);
                return Ok(());
            }
        }
        self.skip_to_semi()
    }

    // ------------------------------------------------------------------
    // Library construction
    // ------------------------------------------------------------------

    fn build(self) -> Result<CifDesign, CifError> {
        let Parser { symbols, top, .. } = self;

        // Validate call targets and detect recursion via DFS.
        for (&id, body) in &symbols {
            for &(callee, _) in &body.calls {
                if !symbols.contains_key(&callee) {
                    return Err(CifError::UndefinedSymbol { symbol: callee });
                }
            }
            check_acyclic(id, &symbols)?;
        }
        for &(callee, _) in &top.calls {
            if !symbols.contains_key(&callee) {
                return Err(CifError::UndefinedSymbol { symbol: callee });
            }
        }

        // Topologically order symbols (children first) and insert.
        let mut order: Vec<u64> = Vec::new();
        let mut state: HashMap<u64, u8> = HashMap::new();
        let mut ids: Vec<u64> = symbols.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            topo(id, &symbols, &mut state, &mut order);
        }

        let mut library = Library::new();
        let mut cell_ids: HashMap<u64, CellId> = HashMap::new();
        let mut used_names: HashMap<String, usize> = HashMap::new();
        for id in order {
            let body = &symbols[&id];
            let base = body.name.clone().unwrap_or_else(|| format!("S{id}"));
            let name = match used_names.get_mut(&base) {
                Some(n) => {
                    *n += 1;
                    format!("{base}_{n}")
                }
                None => {
                    used_names.insert(base.clone(), 0);
                    base
                }
            };
            let mut cell = Cell::new(name);
            for e in &body.elements {
                cell.push_element(e.clone());
            }
            for p in &body.ports {
                cell.push_port(p.clone());
            }
            for &(callee, t) in &body.calls {
                cell.push_instance(Instance::place(cell_ids[&callee], t));
            }
            let cid = library.add_cell(cell).map_err(|e| CifError::BadGeometry {
                message: e.to_string(),
            })?;
            cell_ids.insert(id, cid);
        }

        let mut top_cell = Cell::new("__top__");
        for e in &top.elements {
            top_cell.push_element(e.clone());
        }
        for &(callee, t) in &top.calls {
            top_cell.push_instance(Instance::place(cell_ids[&callee], t));
        }
        let top_id = library
            .add_cell(top_cell)
            .map_err(|e| CifError::BadGeometry {
                message: e.to_string(),
            })?;

        Ok(CifDesign {
            library,
            top: top_id,
        })
    }
}

fn check_acyclic(start: u64, symbols: &HashMap<u64, SymbolBody>) -> Result<(), CifError> {
    // Iterative DFS with an explicit path set.
    fn visit(
        id: u64,
        symbols: &HashMap<u64, SymbolBody>,
        path: &mut Vec<u64>,
        done: &mut Vec<u64>,
    ) -> Result<(), CifError> {
        if done.contains(&id) {
            return Ok(());
        }
        if path.contains(&id) {
            return Err(CifError::RecursiveSymbol { symbol: id });
        }
        path.push(id);
        for &(callee, _) in &symbols[&id].calls {
            visit(callee, symbols, path, done)?;
        }
        path.pop();
        done.push(id);
        Ok(())
    }
    visit(start, symbols, &mut Vec::new(), &mut Vec::new())
}

fn topo(
    id: u64,
    symbols: &HashMap<u64, SymbolBody>,
    state: &mut HashMap<u64, u8>,
    out: &mut Vec<u64>,
) {
    if state.get(&id).copied().unwrap_or(0) != 0 {
        return;
    }
    state.insert(id, 1);
    for &(callee, _) in &symbols[&id].calls {
        topo(callee, symbols, state, out);
    }
    state.insert(id, 2);
    out.push(id);
}

#[cfg(test)]
mod tests {
    use super::*;
    use silc_layout::Shape;

    #[test]
    fn minimal_file() {
        let d = parse("DS 1 2 1; 9 pad; L NM; B 10 10 5 5; DF; C 1 T 0 0; E").unwrap();
        assert_eq!(d.symbol_count(), 1);
        let pad = d.library.cell_by_name("pad").unwrap();
        let cell = d.library.cell(pad).unwrap();
        assert_eq!(cell.elements().len(), 1);
        // Scale 2/1 applied: 20x20 box centred (10, 10) -> corners (0,0)-(20,20).
        assert_eq!(
            cell.elements()[0].bbox(),
            Rect::new(Point::new(0, 0), Point::new(20, 20)).unwrap()
        );
    }

    #[test]
    fn comments_and_commas_are_separators() {
        let d = parse("( header ( nested ) ); DS 1; L NP; B 4,4,2,2; DF; E").unwrap();
        assert_eq!(d.symbol_count(), 1);
    }

    #[test]
    fn geometry_without_layer_rejected() {
        let err = parse("DS 1; B 4 4 2 2; DF; E").unwrap_err();
        assert!(matches!(err, CifError::Syntax { .. }));
    }

    #[test]
    fn unknown_layer_rejected() {
        let err = parse("DS 1; L QQ; DF; E").unwrap_err();
        assert!(err.to_string().contains("QQ"));
    }

    #[test]
    fn undefined_symbol_rejected() {
        let err = parse("C 7 T 0 0; E").unwrap_err();
        assert!(matches!(err, CifError::UndefinedSymbol { symbol: 7 }));
    }

    #[test]
    fn recursive_symbol_rejected() {
        let text = "DS 1; C 2 T 0 0; DF; DS 2; C 1 T 0 0; DF; E";
        assert!(matches!(parse(text), Err(CifError::RecursiveSymbol { .. })));
    }

    #[test]
    fn forward_references_allowed() {
        // Symbol 1 calls symbol 2, defined later — legal CIF.
        let text = "DS 1; C 2 T 10 0; DF; DS 2; L ND; B 4 4 0 0; DF; C 1 T 0 0; E";
        let d = parse(text).unwrap();
        assert_eq!(d.symbol_count(), 2);
        let s1 = d.library.cell_by_name("S1").unwrap();
        assert_eq!(d.library.cell(s1).unwrap().instances().len(), 1);
    }

    #[test]
    fn wire_and_polygon_parse() {
        let text = "DS 1; L NM; W 4 0 0 20 0 20 20; P 0 0 8 0 0 8; DF; E";
        let d = parse(text).unwrap();
        let cell = d.library.cell(CellId::from_raw(0)).unwrap();
        assert_eq!(cell.elements().len(), 2);
        assert!(matches!(cell.elements()[0].shape, Shape::Wire(_)));
        assert!(matches!(cell.elements()[1].shape, Shape::Polygon(_)));
    }

    #[test]
    fn box_with_vertical_direction_swaps() {
        let text = "DS 1; L NM; B 10 4 0 0 0 1; DF; E";
        let d = parse(text).unwrap();
        let bbox = d.library.cell(CellId::from_raw(0)).unwrap().elements()[0].bbox();
        assert_eq!(bbox.width(), 4);
        assert_eq!(bbox.height(), 10);
    }

    #[test]
    fn diagonal_box_direction_rejected() {
        let text = "DS 1; L NM; B 10 4 0 0 1 1; DF; E";
        assert!(matches!(
            parse(text),
            Err(CifError::NonManhattanRotation { .. })
        ));
    }

    #[test]
    fn roundflash_becomes_square() {
        let text = "DS 1; L NM; R 10 0 0; DF; E";
        let d = parse(text).unwrap();
        let bbox = d.library.cell(CellId::from_raw(0)).unwrap().elements()[0].bbox();
        assert_eq!(bbox.width(), 10);
        assert_eq!(bbox.height(), 10);
    }

    #[test]
    fn mirror_rotate_translate_compose() {
        let text = "DS 1; L NM; B 4 2 2 1; DF; C 1 M X R 0 1 T 10 12; E";
        let d = parse(text).unwrap();
        let top = d.library.cell(d.top).unwrap();
        let t = top.instances()[0].transform;
        assert_eq!(t.orientation, Orientation::MX90);
        assert_eq!(t.offset, Point::new(10, 12));
    }

    #[test]
    fn out_of_range_numbers_rejected_with_their_line() {
        // A number too long for 64 bits, one beyond the coordinate
        // bound, and one pushed beyond it by the DS scale.
        for text in [
            "L NM;\nB 4 4 99999999999999999999 0;\nE",
            "L NM;\nB 4 4 9000000000000000000 0;\nE",
            "DS 1 4000000 1;\nL NM;\nP 0 0 1000000 0 1000000 1000000;\nDF;\nE",
        ] {
            let err = parse(text).unwrap_err().to_string();
            assert!(
                err.contains("out of range") || err.contains("2^40"),
                "{err}"
            );
        }
        let err = parse("L NM;\nB 4 4 0 0;\nB 4 4 0 9000000000000;\nE").unwrap_err();
        assert!(err.to_string().contains("line 3"), "{err}");
        // The bound itself is legal.
        parse(&format!("L NM;\nB 4 4 {MAX_COORD} 0;\nE")).unwrap();
    }

    #[test]
    fn inexact_scale_rejected() {
        // Scale 1/3 on coordinate 4 is not integral.
        let err = parse("DS 1 1 3; L NM; B 6 6 4 0; DF; E").unwrap_err();
        assert!(matches!(err, CifError::InexactScale { .. }));
    }

    #[test]
    fn duplicate_nine_names_are_uniquified() {
        let text = "DS 1; 9 pad; L NM; B 4 4 0 0; DF; DS 2; 9 pad; L NM; B 4 4 0 0; DF; E";
        let d = parse(text).unwrap();
        assert!(d.library.cell_by_name("pad").is_some());
        assert!(d.library.cell_by_name("pad_1").is_some());
    }

    #[test]
    fn top_level_geometry_collected() {
        let d = parse("L NM; B 4 4 2 2; E").unwrap();
        let top = d.library.cell(d.top).unwrap();
        assert_eq!(top.elements().len(), 1);
        assert_eq!(d.symbol_count(), 0);
    }

    #[test]
    fn unterminated_ds_rejected() {
        assert!(matches!(parse("DS 1; L NM;"), Err(CifError::UnexpectedEnd)));
    }

    #[test]
    fn text_after_end_marker_is_ignored() {
        let d = parse("DS 1; L NM; B 2 2 1 1; DF; E trailing garbage %%%").unwrap();
        assert_eq!(d.symbol_count(), 1);
    }
}
