use silc_geom::{Coord, Fingerprint, FpHasher};
use silc_layout::Layer;

/// A table of lambda design rules.
///
/// All values are in lambda. A zero entry disables the corresponding
/// check, so partial rule sets are easy to express.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleSet {
    /// Human-readable name, reported with violations.
    pub name: String,
    min_width: [Coord; 7],
    /// Symmetric same/cross-layer spacing, indexed by layer indices.
    min_spacing: [[Coord; 7]; 7],
    /// Required surround of contact cuts by metal.
    pub contact_metal_surround: Coord,
    /// Required surround of contact cuts by poly or diffusion.
    pub contact_lower_surround: Coord,
    /// Poly extension beyond the transistor gate.
    pub gate_poly_overhang: Coord,
    /// Diffusion extension beyond the transistor gate.
    pub gate_diff_overhang: Coord,
}

impl RuleSet {
    /// A rule set with every check disabled: a base for custom tables.
    pub fn permissive(name: impl Into<String>) -> RuleSet {
        RuleSet {
            name: name.into(),
            min_width: [0; 7],
            min_spacing: [[0; 7]; 7],
            contact_metal_surround: 0,
            contact_lower_surround: 0,
            gate_poly_overhang: 0,
            gate_diff_overhang: 0,
        }
    }

    /// The textbook Mead–Conway nMOS lambda rules.
    ///
    /// | rule | λ |
    /// |---|---|
    /// | diffusion width / spacing | 2 / 3 |
    /// | poly width / spacing | 2 / 2 |
    /// | metal width / spacing | 3 / 3 |
    /// | poly to diffusion (unrelated) | 1 |
    /// | contact cut width / spacing | 2 / 2 |
    /// | contact surround (metal, poly/diff) | 1 |
    /// | poly gate overhang | 2 |
    /// | diffusion gate overhang | 2 |
    /// | implant width, glass width | 4 (coarse features) |
    pub fn mead_conway_nmos() -> RuleSet {
        let mut r = RuleSet::permissive("mead-conway-nmos");
        r.set_min_width(Layer::Diffusion, 2);
        r.set_min_width(Layer::Poly, 2);
        r.set_min_width(Layer::Metal, 3);
        r.set_min_width(Layer::Contact, 2);
        r.set_min_width(Layer::Implant, 4);
        r.set_min_width(Layer::Glass, 4);
        r.set_min_spacing(Layer::Diffusion, Layer::Diffusion, 3);
        r.set_min_spacing(Layer::Poly, Layer::Poly, 2);
        r.set_min_spacing(Layer::Metal, Layer::Metal, 3);
        r.set_min_spacing(Layer::Poly, Layer::Diffusion, 1);
        r.set_min_spacing(Layer::Contact, Layer::Contact, 2);
        r.contact_metal_surround = 1;
        r.contact_lower_surround = 1;
        r.gate_poly_overhang = 2;
        r.gate_diff_overhang = 2;
        r
    }

    /// Minimum feature width on `layer` (0 disables the check).
    pub fn min_width(&self, layer: Layer) -> Coord {
        self.min_width[layer.index()]
    }

    /// Sets a minimum width.
    pub fn set_min_width(&mut self, layer: Layer, width: Coord) {
        self.min_width[layer.index()] = width;
    }

    /// Minimum spacing between `a` and `b` features (0 disables; the table
    /// is symmetric).
    pub fn min_spacing(&self, a: Layer, b: Layer) -> Coord {
        self.min_spacing[a.index()][b.index()]
    }

    /// Sets a spacing entry (both orders).
    pub fn set_min_spacing(&mut self, a: Layer, b: Layer, spacing: Coord) {
        self.min_spacing[a.index()][b.index()] = spacing;
        self.min_spacing[b.index()][a.index()] = spacing;
    }

    /// The L∞ gap that must separate layer-`a` geometry of one piece of a
    /// hierarchy from layer-`b` geometry of another for the flat checker
    /// to find nothing between them: the spacing rule, raised to 1 on one
    /// layer (touching geometry would merge) and between poly and
    /// diffusion (crossing would make a gate).
    pub(crate) fn clearance(&self, a: Layer, b: Layer) -> Coord {
        let joins = a == b
            || matches!(
                (a, b),
                (Layer::Poly, Layer::Diffusion) | (Layer::Diffusion, Layer::Poly)
            );
        self.min_spacing(a, b).max(Coord::from(joins))
    }

    /// The layer pairs with an active spacing rule.
    pub fn active_spacing_pairs(&self) -> Vec<(Layer, Layer)> {
        let mut out = Vec::new();
        for (i, a) in Layer::ALL.iter().enumerate() {
            for b in &Layer::ALL[i..] {
                if self.min_spacing(*a, *b) > 0 {
                    out.push((*a, *b));
                }
            }
        }
        out
    }
}

impl Fingerprint for RuleSet {
    fn fp_hash(&self, h: &mut FpHasher) {
        h.write_str(&self.name);
        for w in &self.min_width {
            h.write_i64(*w);
        }
        for row in &self.min_spacing {
            for s in row {
                h.write_i64(*s);
            }
        }
        h.write_i64(self.contact_metal_surround);
        h.write_i64(self.contact_lower_surround);
        h.write_i64(self.gate_poly_overhang);
        h.write_i64(self.gate_diff_overhang);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nmos_table_values() {
        let r = RuleSet::mead_conway_nmos();
        assert_eq!(r.min_width(Layer::Metal), 3);
        assert_eq!(r.min_width(Layer::Poly), 2);
        assert_eq!(r.min_spacing(Layer::Diffusion, Layer::Diffusion), 3);
        assert_eq!(r.min_spacing(Layer::Poly, Layer::Diffusion), 1);
        // Symmetry.
        assert_eq!(r.min_spacing(Layer::Diffusion, Layer::Poly), 1);
        assert_eq!(r.gate_poly_overhang, 2);
    }

    #[test]
    fn permissive_disables_everything() {
        let r = RuleSet::permissive("off");
        for l in Layer::ALL {
            assert_eq!(r.min_width(l), 0);
        }
        assert!(r.active_spacing_pairs().is_empty());
    }

    #[test]
    fn spacing_pairs_enumerated_once() {
        let r = RuleSet::mead_conway_nmos();
        let pairs = r.active_spacing_pairs();
        assert!(pairs.contains(&(Layer::Poly, Layer::Poly)));
        // Cross pair appears once, in layer-index order.
        let cross: Vec<_> = pairs
            .iter()
            .filter(|(a, b)| *a != *b && (*a == Layer::Poly || *b == Layer::Poly))
            .collect();
        assert_eq!(cross.len(), 1);
    }

    /// The clearance table, written out for both decks, in layer order
    /// (diff, poly, metal, contact, implant, buried, glass).
    #[test]
    fn clearance_tables() {
        let table = |r: &RuleSet| -> Vec<Vec<Coord>> {
            Layer::ALL
                .iter()
                .map(|&a| Layer::ALL.iter().map(|&b| r.clearance(a, b)).collect())
                .collect()
        };
        let permissive = vec![
            vec![1, 1, 0, 0, 0, 0, 0],
            vec![1, 1, 0, 0, 0, 0, 0],
            vec![0, 0, 1, 0, 0, 0, 0],
            vec![0, 0, 0, 1, 0, 0, 0],
            vec![0, 0, 0, 0, 1, 0, 0],
            vec![0, 0, 0, 0, 0, 1, 0],
            vec![0, 0, 0, 0, 0, 0, 1],
        ];
        assert_eq!(table(&RuleSet::permissive("off")), permissive);
        let mead_conway = vec![
            vec![3, 1, 0, 0, 0, 0, 0],
            vec![1, 2, 0, 0, 0, 0, 0],
            vec![0, 0, 3, 0, 0, 0, 0],
            vec![0, 0, 0, 2, 0, 0, 0],
            vec![0, 0, 0, 0, 1, 0, 0],
            vec![0, 0, 0, 0, 0, 1, 0],
            vec![0, 0, 0, 0, 0, 0, 1],
        ];
        assert_eq!(table(&RuleSet::mead_conway_nmos()), mead_conway);
    }

    #[test]
    fn custom_rules_editable() {
        let mut r = RuleSet::permissive("metal-only");
        r.set_min_width(Layer::Metal, 4);
        r.set_min_spacing(Layer::Metal, Layer::Metal, 4);
        assert_eq!(r.min_width(Layer::Metal), 4);
        assert_eq!(r.active_spacing_pairs(), vec![(Layer::Metal, Layer::Metal)]);
    }
}
