//! The declared routing stack: which layers carry wires, in which
//! direction, on what pitch, and how layer changes are made.
//!
//! The stack is *data*, not code: the placer and router consult it for
//! every coordinate they emit, so a different process (different pitch,
//! swapped directions, wider wires) is a different [`RouteStack`] value,
//! not a different router. Stacks join incremental cache keys through
//! [`Fingerprint`], so editing the stack invalidates routed results.

use crate::PnrError;
use silc_drc::RuleSet;
use silc_geom::{Coord, Fingerprint, FpHasher, Point, Rect};
use silc_layout::Layer;
use std::fmt;

/// Preferred routing direction of one stack layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Wires run left-to-right; tracks are rows.
    Horiz,
    /// Wires run bottom-to-top; tracks are columns.
    Vert,
}

impl fmt::Display for Dir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Dir::Horiz => "horiz",
            Dir::Vert => "vert",
        })
    }
}

/// One routable layer of the stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteLayer {
    /// The mask layer wires are drawn on.
    pub layer: Layer,
    /// Preferred (and, in this router, only) direction.
    pub dir: Dir,
    /// Drawn wire width in lambda.
    pub wire_width: Coord,
    /// Same-layer spacing rule in lambda.
    pub spacing: Coord,
}

/// How adjacent stack layers are joined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViaRule {
    /// The cut mask layer.
    pub cut_layer: Layer,
    /// Square cut edge length in lambda.
    pub cut: Coord,
    /// Landing-pad surround beyond the cut on both joined layers.
    pub surround: Coord,
    /// Cut-to-cut spacing rule in lambda.
    pub spacing: Coord,
}

impl ViaRule {
    /// Edge length of the square landing pad a via places on each
    /// joined layer.
    pub fn pad(&self) -> Coord {
        self.cut + 2 * self.surround
    }
}

/// A full declared routing stack plus the track grid it induces.
///
/// Track `(col, row)` crossings sit at
/// `(origin.x + pitch*col, origin.y + pitch*row)` in lambda. The same
/// pitch serves every layer so any crossing is a legal via site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteStack {
    /// Stack name (joins cache keys and diagnostics).
    pub name: String,
    /// Routable layers, bottom-up. Index is the router's layer id.
    pub layers: Vec<RouteLayer>,
    /// Via rule joining adjacent stack layers.
    pub via: ViaRule,
    /// Track pitch in lambda, shared by all layers.
    pub pitch: Coord,
    /// Lambda position of track crossing `(0, 0)`.
    pub origin: Point,
}

impl RouteStack {
    /// The stack a lambda rule deck induces: poly runs vertically, metal
    /// horizontally, contact cuts join them, and every width, spacing
    /// and the via rule are read from `rules`, so the router cannot
    /// disagree with the checker. The pitch is the via pad plus the
    /// widest same-layer spacing: adjacent-track pads clear every rule.
    ///
    /// # Errors
    ///
    /// [`PnrError::BadStack`] when the deck gives a wire or the cut no
    /// width, or that pitch would put cuts on adjacent tracks closer
    /// than the deck's cut spacing.
    pub fn from_rules(rules: &RuleSet) -> Result<RouteStack, PnrError> {
        let layer = |layer, dir| RouteLayer {
            layer,
            dir,
            wire_width: rules.min_width(layer),
            spacing: rules.min_spacing(layer, layer),
        };
        let layers = vec![
            layer(Layer::Poly, Dir::Vert),
            layer(Layer::Metal, Dir::Horiz),
        ];
        let via = ViaRule {
            cut_layer: Layer::Contact,
            cut: rules.min_width(Layer::Contact),
            surround: rules
                .contact_metal_surround
                .max(rules.contact_lower_surround),
            spacing: rules.min_spacing(Layer::Contact, Layer::Contact),
        };
        let pitch = via.pad() + layers.iter().map(|l| l.spacing).max().unwrap_or(0);
        let drawable = via.cut > 0 && layers.iter().all(|l| l.wire_width > 0);
        if !drawable || pitch < via.cut + via.spacing {
            return Err(PnrError::BadStack {
                stack: rules.name.clone(),
                missing: "widths and a pitch that clear its own spacing rules",
            });
        }
        Ok(RouteStack {
            name: rules.name.clone(),
            layers,
            via,
            pitch,
            origin: Point::new(2, 4),
        })
    }

    /// The Mead–Conway nMOS stack the rest of the workspace targets,
    /// derived from [`RuleSet::mead_conway_nmos`]: 4x4 via pads under
    /// the 3-lambda metal spacing rule give pitch 7.
    ///
    /// # Panics
    ///
    /// Never — the Mead–Conway deck induces a legal stack.
    pub fn mead_conway_nmos() -> RouteStack {
        RouteStack::from_rules(&RuleSet::mead_conway_nmos())
            .expect("the Mead-Conway deck induces a legal stack")
    }

    /// Router layer id carrying `dir`, if any.
    pub fn layer_for_dir(&self, dir: Dir) -> Option<usize> {
        self.layers.iter().position(|l| l.dir == dir)
    }

    /// Lambda x of vertical track `col`.
    pub fn track_x(&self, col: i64) -> Coord {
        self.origin.x + self.pitch * col
    }

    /// Lambda y of horizontal track `row`.
    pub fn track_y(&self, row: i64) -> Coord {
        self.origin.y + self.pitch * row
    }

    /// Lambda position of track crossing `(col, row)`.
    pub fn crossing(&self, col: i64, row: i64) -> Point {
        Point::new(self.track_x(col), self.track_y(row))
    }

    /// The square via landing pad centered on crossing `(col, row)`.
    pub fn pad_rect(&self, col: i64, row: i64) -> Rect {
        Rect::centered(self.crossing(col, row), self.via.pad(), self.via.pad())
            .expect("via pad has positive extent")
    }

    /// The square via cut centered on crossing `(col, row)`.
    pub fn cut_rect(&self, col: i64, row: i64) -> Rect {
        Rect::centered(self.crossing(col, row), self.via.cut, self.via.cut)
            .expect("via cut has positive extent")
    }

    /// The wire rectangle for a run on stack layer `l` between track
    /// crossings `(c1, r1)` and `(c2, r2)` (inclusive; for [`Dir::Horiz`]
    /// the rows must match, for [`Dir::Vert`] the columns). A
    /// single-crossing run yields a `width`-long stub.
    pub fn run_rect(&self, l: usize, c1: i64, r1: i64, c2: i64, r2: i64) -> Rect {
        let rl = &self.layers[l];
        let w = rl.wire_width;
        // Odd widths sit asymmetrically on the track: [t - w/2, t + w - w/2].
        let lo = w / 2;
        let hi = w - lo;
        let (xa, xb) = (self.track_x(c1.min(c2)), self.track_x(c1.max(c2)));
        let (ya, yb) = (self.track_y(r1.min(r2)), self.track_y(r1.max(r2)));
        let r = match rl.dir {
            Dir::Horiz => Rect::new(Point::new(xa - lo, ya - lo), Point::new(xb + hi, ya + hi)),
            Dir::Vert => Rect::new(Point::new(xa - lo, ya - lo), Point::new(xa + hi, yb + hi)),
        };
        r.expect("run rect has positive extent")
    }
}

impl Fingerprint for RouteStack {
    fn fp_hash(&self, h: &mut FpHasher) {
        h.write_str(&self.name);
        h.write_len(self.layers.len());
        for l in &self.layers {
            h.write_u32(l.layer.index() as u32);
            h.write_u32(matches!(l.dir, Dir::Vert) as u32);
            h.write_i64(l.wire_width);
            h.write_i64(l.spacing);
        }
        h.write_u32(self.via.cut_layer.index() as u32);
        h.write_i64(self.via.cut);
        h.write_i64(self.via.surround);
        h.write_i64(self.via.spacing);
        h.write_i64(self.pitch);
        self.origin.fp_hash(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nmos_stack_shape() {
        let s = RouteStack::mead_conway_nmos();
        assert_eq!(s.layers.len(), 2);
        assert_eq!(s.layers[0].layer, Layer::Poly);
        assert_eq!(s.layers[1].layer, Layer::Metal);
        assert_eq!(s.layer_for_dir(Dir::Horiz), Some(1));
        assert_eq!(s.layer_for_dir(Dir::Vert), Some(0));
        assert_eq!(s.via.pad(), 4);
        // Adjacent-track via pads keep the metal spacing rule.
        let gap = s.pitch - s.via.pad();
        assert!(gap >= s.layers[1].spacing);
    }

    /// The derived default is the stack the literals used to spell, to
    /// the cache key: routed results cached before the derivation hit.
    #[test]
    fn default_stack_keeps_its_numbers_and_its_fingerprint() {
        let s = RouteStack::mead_conway_nmos();
        let widths_and_spacings: Vec<_> =
            s.layers.iter().map(|l| (l.wire_width, l.spacing)).collect();
        assert_eq!(widths_and_spacings, [(2, 2), (3, 3)]);
        assert_eq!((s.via.cut, s.via.surround, s.via.spacing), (2, 1, 2));
        assert_eq!(s.pitch, 7);
        assert_eq!(s.fingerprint().to_hex(), "3edd1efb315da0ceadaefa89ffbccced");
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
        assert_eq!((wide.layers[1].spacing, wide.pitch), (4, 8));
    }

    #[test]
    fn decks_that_cannot_clear_their_own_rules_are_refused() {
        let err = RouteStack::from_rules(&RuleSet::permissive("off")).unwrap_err();
        assert!(matches!(err, PnrError::BadStack { .. }), "{err}");
        let mut rules = RuleSet::mead_conway_nmos();
        rules.set_min_spacing(Layer::Contact, Layer::Contact, 9); // pitch 7 leaves cuts 5 apart
        let err = RouteStack::from_rules(&rules).unwrap_err();
        assert!(err.to_string().contains("pitch"), "{err}");
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
        let mut b = a.clone();
        b.pitch = 8;
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
