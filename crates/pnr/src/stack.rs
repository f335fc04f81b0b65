//! The declared routing stack: which layers carry wires, in which
//! direction, on what pitch, and how layer changes are made.
//!
//! The stack is a view of its rule deck, not a second description of
//! the process: poly runs vertically and metal horizontally, contact
//! cuts join them, and every width, spacing, cut and surround is read
//! from the [`RuleSet`] the stack keeps. The placer and router consult
//! it for every coordinate they emit, so a different process is a
//! different [`RuleSet`], not a different router. The transistor cells
//! are drawn once per stack, and a deck is accepted only when the
//! checker finds both clean under it. A stack's [`Fingerprint`] is its
//! deck's, so editing any rule invalidates routed results.

use crate::cells::{leaf_cell, LeafCell, KINDS};
use crate::PnrError;
use silc_drc::RuleSet;
use silc_geom::{Coord, Fingerprint, FpHasher, Point, Rect};
use silc_layout::Layer;

/// Preferred (and, in this router, only) routing direction of a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dir {
    /// Wires run left-to-right; tracks are rows.
    Horiz,
    /// Wires run bottom-to-top; tracks are columns.
    Vert,
}

/// The routing layers, bottom-up, each with its direction. A router
/// layer id indexes this.
pub(crate) const LAYERS: [(Layer, Dir); 2] = [(Layer::Poly, Dir::Vert), (Layer::Metal, Dir::Horiz)];

/// The router layer id pins sit on: metal, the horizontal layer.
pub(crate) const PIN_LAYER: usize = 1;

/// A rule deck seen as a routing stack, plus the track grid it induces.
///
/// Track `(col, row)` crossings sit at
/// `(ORIGIN.x + pitch*col, ORIGIN.y + pitch*row)` in lambda. The same
/// pitch serves every layer so any crossing is a legal via site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteStack {
    /// The deck every width, spacing, cut and surround is read from.
    rules: RuleSet,
    /// Track pitch in lambda, derived from `rules` once.
    pitch: Coord,
    /// The transistor cells drawn on `pitch`, one per kind in
    /// [`KINDS`] order.
    cells: [LeafCell; 2],
}

impl RouteStack {
    /// Lambda position of track crossing `(0, 0)`: where a leaf cell
    /// placed at site `(0, 0)` has its source pin.
    pub(crate) const ORIGIN: Point = Point::new(2, 4);

    /// The stack a lambda rule deck induces: poly runs vertically, metal
    /// horizontally, contact cuts join them, and every width, spacing
    /// and the via rule are read from `rules`, so the router cannot
    /// disagree with the checker. The pitch is the via pad plus the
    /// widest same-layer spacing: adjacent-track pads clear every rule.
    /// The `enh` and `dep` cells are drawn on that pitch here, once.
    ///
    /// # Errors
    ///
    /// [`PnrError::BadStack`] when the deck gives a wire or the cut no
    /// width, when the pitch would put cuts on adjacent tracks closer
    /// than the deck's cut spacing, or, naming the first violation, when
    /// [`silc_drc::check_flat`] finds either transistor cell not clean
    /// under the deck.
    pub fn from_rules(rules: &RuleSet) -> Result<RouteStack, PnrError> {
        let refuse = |reason: String| PnrError::BadStack {
            stack: rules.name.clone(),
            reason,
        };
        let mut stack = RouteStack {
            rules: rules.clone(),
            pitch: 0,
            cells: Default::default(),
        };
        stack.pitch = stack.pad() + stack.spacing(0).max(stack.spacing(1));
        let drawable = stack.cut() > 0 && (0..LAYERS.len()).all(|l| stack.wire_width(l) > 0);
        if !drawable || stack.pitch < stack.cut() + stack.cut_spacing() {
            return Err(refuse(
                "it needs wire and cut widths and a pitch that clears its own cut spacing".into(),
            ));
        }
        stack.cells = KINDS.map(|kind| leaf_cell(kind == "dep", stack.pitch));
        for (kind, cell) in KINDS.iter().zip(&stack.cells) {
            let mut layers = vec![Vec::new(); Layer::ALL.len()];
            for &(layer, r, _) in &cell.rects {
                layers[layer.index()].push(r);
            }
            if let Some(v) = silc_drc::check_flat(&layers, rules).violations.first() {
                return Err(refuse(format!("its `{kind}` transistor cell breaks {v}")));
            }
        }
        Ok(stack)
    }

    /// The Mead–Conway nMOS stack, derived from
    /// [`RuleSet::mead_conway_nmos`]: 4x4 via pads under the 3-lambda
    /// metal spacing rule give pitch 7.
    ///
    /// # Panics
    ///
    /// Never — the Mead–Conway deck induces a legal stack.
    pub fn mead_conway_nmos() -> RouteStack {
        RouteStack::from_rules(&RuleSet::mead_conway_nmos())
            .expect("the Mead-Conway deck induces a legal stack")
    }

    /// The rule deck this stack was derived from: what the routed
    /// layout is checked against.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// Track pitch in lambda, shared by both layers.
    pub fn pitch(&self) -> Coord {
        self.pitch
    }

    /// The transistor cell this stack drew for `instance` of `kind`.
    ///
    /// # Errors
    ///
    /// [`PnrError::UnsupportedKind`], naming `instance`, for kinds
    /// outside [`KINDS`].
    pub(crate) fn cell(&self, instance: &str, kind: &str) -> Result<&LeafCell, PnrError> {
        let unsupported = || PnrError::UnsupportedKind {
            instance: instance.to_string(),
            kind: kind.to_string(),
        };
        let i = KINDS
            .iter()
            .position(|&k| k == kind)
            .ok_or_else(unsupported)?;
        Ok(&self.cells[i])
    }

    /// Drawn wire width on router layer `l`: the deck's minimum width.
    pub(crate) fn wire_width(&self, l: usize) -> Coord {
        self.rules.min_width(LAYERS[l].0)
    }

    /// The deck's same-layer spacing on router layer `l`.
    pub(crate) fn spacing(&self, l: usize) -> Coord {
        let layer = LAYERS[l].0;
        self.rules.min_spacing(layer, layer)
    }

    /// Edge of the square contact cut.
    pub(crate) fn cut(&self) -> Coord {
        self.rules.min_width(Layer::Contact)
    }

    /// Cut-to-cut spacing.
    pub(crate) fn cut_spacing(&self) -> Coord {
        self.rules.min_spacing(Layer::Contact, Layer::Contact)
    }

    /// Landing-pad surround beyond the cut on both joined layers.
    fn surround(&self) -> Coord {
        self.rules
            .contact_metal_surround
            .max(self.rules.contact_lower_surround)
    }

    /// Edge length of the square landing pad a via places on each
    /// joined layer.
    pub(crate) fn pad(&self) -> Coord {
        self.cut() + 2 * self.surround()
    }

    /// Lambda x of vertical track `col`.
    pub fn track_x(&self, col: i64) -> Coord {
        Self::ORIGIN.x + self.pitch * col
    }

    /// Lambda y of horizontal track `row`.
    pub fn track_y(&self, row: i64) -> Coord {
        Self::ORIGIN.y + self.pitch * row
    }

    /// Lambda position of track crossing `(col, row)`.
    pub fn crossing(&self, col: i64, row: i64) -> Point {
        Point::new(self.track_x(col), self.track_y(row))
    }

    /// The square via landing pad centered on crossing `(col, row)`.
    pub fn pad_rect(&self, col: i64, row: i64) -> Rect {
        Rect::centered(self.crossing(col, row), self.pad(), self.pad())
            .expect("via pad has positive extent")
    }

    /// The square via cut centered on crossing `(col, row)`.
    pub fn cut_rect(&self, col: i64, row: i64) -> Rect {
        Rect::centered(self.crossing(col, row), self.cut(), self.cut())
            .expect("via cut has positive extent")
    }

    /// The wire rectangle for a run on router layer `l` between track
    /// crossings `(c1, r1)` and `(c2, r2)` (inclusive; for [`Dir::Horiz`]
    /// the rows must match, for [`Dir::Vert`] the columns). A
    /// single-crossing run yields a `width`-long stub.
    pub(crate) fn run_rect(&self, l: usize, c1: i64, r1: i64, c2: i64, r2: i64) -> Rect {
        let w = self.wire_width(l);
        // Odd widths sit asymmetrically on the track: [t - w/2, t + w - w/2].
        let lo = w / 2;
        let hi = w - lo;
        let (xa, xb) = (self.track_x(c1.min(c2)), self.track_x(c1.max(c2)));
        let (ya, yb) = (self.track_y(r1.min(r2)), self.track_y(r1.max(r2)));
        let r = match LAYERS[l].1 {
            Dir::Horiz => Rect::new(Point::new(xa - lo, ya - lo), Point::new(xb + hi, ya + hi)),
            Dir::Vert => Rect::new(Point::new(xa - lo, ya - lo), Point::new(xa + hi, yb + hi)),
        };
        r.expect("run rect has positive extent")
    }
}

/// The stack is a view of its deck, and the router's layers, directions
/// and origin are code, as every other stage's constants are: the key is
/// the deck's.
impl Fingerprint for RouteStack {
    fn fp_hash(&self, h: &mut FpHasher) {
        self.rules.fp_hash(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nmos_stack_shape() {
        let s = RouteStack::mead_conway_nmos();
        assert_eq!(LAYERS[PIN_LAYER], (Layer::Metal, Dir::Horiz));
        assert_eq!(s.pad(), 4);
        // Adjacent-track via pads keep the metal spacing rule.
        let gap = s.pitch - s.pad();
        assert!(gap >= s.spacing(PIN_LAYER));
    }

    /// The derived default is the stack the literals used to spell, and
    /// its key is its deck's.
    #[test]
    fn default_stack_keeps_its_numbers_and_its_fingerprint() {
        let s = RouteStack::mead_conway_nmos();
        let widths_and_spacings: Vec<_> = (0..LAYERS.len())
            .map(|l| (s.wire_width(l), s.spacing(l)))
            .collect();
        assert_eq!(widths_and_spacings, [(2, 2), (3, 3)]);
        assert_eq!((s.cut(), s.surround(), s.cut_spacing()), (2, 1, 2));
        assert_eq!(s.pitch, 7);
        assert_eq!(s.fingerprint(), s.rules().fingerprint());
        assert_eq!(s.fingerprint().to_hex(), "1d52e659e669b093414547b374073984");
    }

    /// One edit to the rule deck moves the checker's verdict and the
    /// router's pitch together.
    #[test]
    fn one_deck_edit_moves_the_drc_verdict_and_the_pitch() {
        let bar = |x| Rect::from_origin_size(Point::new(x, 0), 3, 10).unwrap();
        let mut layers = vec![Vec::new(); Layer::ALL.len()];
        layers[Layer::Metal.index()] = vec![bar(0), bar(6)]; // a 3-lambda gap
        let mut rules = RuleSet::mead_conway_nmos();
        assert!(silc_drc::check_flat(&layers, &rules).is_clean());
        assert_eq!(RouteStack::from_rules(&rules).unwrap().pitch, 7);

        rules.set_min_spacing(Layer::Metal, Layer::Metal, 4);
        assert!(!silc_drc::check_flat(&layers, &rules).is_clean());
        let wide = RouteStack::from_rules(&rules).unwrap();
        assert_eq!((wide.spacing(1), wide.pitch), (4, 8));
    }

    #[test]
    fn decks_that_cannot_clear_their_own_rules_are_refused() {
        let err = RouteStack::from_rules(&RuleSet::permissive("off")).unwrap_err();
        assert!(matches!(err, PnrError::BadStack { .. }), "{err}");
        let mut rules = RuleSet::mead_conway_nmos();
        rules.set_min_spacing(Layer::Contact, Layer::Contact, 9); // pitch 7 leaves cuts 5 apart
        let err = RouteStack::from_rules(&rules).unwrap_err();
        assert!(err.to_string().contains("pitch"), "{err}");
        // The transistor cell draws 2-lambda cuts in 4-lambda pads: a
        // deck that asks for wider cuts or surrounds is refused by name.
        let mut rules = RuleSet::mead_conway_nmos();
        rules.set_min_width(Layer::Contact, 3);
        let err = RouteStack::from_rules(&rules).unwrap_err();
        assert!(err.to_string().contains("contact width < 3"), "{err}");
        let mut rules = RuleSet::mead_conway_nmos();
        rules.contact_metal_surround = 2;
        let err = RouteStack::from_rules(&rules).unwrap_err();
        assert!(
            err.to_string().contains("contact metal surround < 2"),
            "{err}"
        );
    }

    #[test]
    fn run_rect_spans_inclusive() {
        let s = RouteStack::mead_conway_nmos();
        // Metal (layer 1, horiz, width 3) from (0,0) to (2,0).
        let r = s.run_rect(1, 0, 0, 2, 0);
        assert_eq!(r.left(), s.track_x(0) - 1);
        assert_eq!(r.right(), s.track_x(2) + 2);
        assert_eq!(r.height(), 3);
        // Poly (layer 0, vert, width 2) single-crossing stub.
        let p = s.run_rect(0, 1, 1, 1, 1);
        assert_eq!(p.width(), 2);
        assert_eq!(p.height(), 2);
    }

    #[test]
    fn fingerprint_tracks_edits() {
        let a = RouteStack::mead_conway_nmos();
        let mut rules = a.rules().clone();
        rules.set_min_spacing(Layer::Metal, Layer::Metal, 4);
        let b = RouteStack::from_rules(&rules).unwrap();
        assert_eq!(b.pitch, 8);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
