use std::fmt;
use std::str::FromStr;

/// A mask layer of the Mead–Conway nMOS process.
///
/// The layer set — and the two-letter CIF names — are those of the process
/// used throughout *Introduction to VLSI Systems* and the Caltech
/// Intermediate Form of the paper's reference \[8\].
///
/// | Layer | CIF | Purpose |
/// |---|---|---|
/// | `Diffusion` | `ND` | n⁺ diffusion: transistor sources/drains, short wires |
/// | `Poly` | `NP` | polysilicon: gates and wiring |
/// | `Metal` | `NM` | metal: low-resistance wiring, power |
/// | `Contact` | `NC` | contact cuts between layers |
/// | `Implant` | `NI` | depletion implant: marks depletion-mode pullups |
/// | `Buried` | `NB` | buried contact: poly–diffusion connection |
/// | `Glass` | `NG` | overglass openings for bonding pads |
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// n⁺ diffusion (`ND`).
    Diffusion,
    /// Polysilicon (`NP`).
    Poly,
    /// Metal (`NM`).
    Metal,
    /// Contact cut (`NC`).
    Contact,
    /// Depletion implant (`NI`).
    Implant,
    /// Buried contact (`NB`).
    Buried,
    /// Overglass opening (`NG`).
    Glass,
}

impl Layer {
    /// All layers in mask order.
    pub const ALL: [Layer; 7] = [
        Layer::Diffusion,
        Layer::Poly,
        Layer::Metal,
        Layer::Contact,
        Layer::Implant,
        Layer::Buried,
        Layer::Glass,
    ];

    /// The CIF layer name used in `L` commands.
    pub const fn cif_name(self) -> &'static str {
        match self {
            Layer::Diffusion => "ND",
            Layer::Poly => "NP",
            Layer::Metal => "NM",
            Layer::Contact => "NC",
            Layer::Implant => "NI",
            Layer::Buried => "NB",
            Layer::Glass => "NG",
        }
    }

    /// A stable small index, useful for per-layer tables.
    pub const fn index(self) -> usize {
        match self {
            Layer::Diffusion => 0,
            Layer::Poly => 1,
            Layer::Metal => 2,
            Layer::Contact => 3,
            Layer::Implant => 4,
            Layer::Buried => 5,
            Layer::Glass => 6,
        }
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Layer::Diffusion => "diff",
            Layer::Poly => "poly",
            Layer::Metal => "metal",
            Layer::Contact => "contact",
            Layer::Implant => "implant",
            Layer::Buried => "buried",
            Layer::Glass => "glass",
        };
        f.write_str(name)
    }
}

/// Error returned when parsing a layer name fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseLayerError {
    name: String,
}

impl fmt::Display for ParseLayerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown layer name `{}`", self.name)
    }
}

impl std::error::Error for ParseLayerError {}

impl FromStr for Layer {
    type Err = ParseLayerError;

    /// Accepts both the human name (`diff`, `poly`, ...) and the CIF name
    /// (`ND`, `NP`, ...), case-insensitively.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.to_ascii_lowercase();
        let layer = match lower.as_str() {
            "diff" | "diffusion" | "nd" => Layer::Diffusion,
            "poly" | "np" => Layer::Poly,
            "metal" | "nm" => Layer::Metal,
            "contact" | "cut" | "nc" => Layer::Contact,
            "implant" | "ni" => Layer::Implant,
            "buried" | "nb" => Layer::Buried,
            "glass" | "ng" => Layer::Glass,
            _ => {
                return Err(ParseLayerError {
                    name: s.to_string(),
                })
            }
        };
        Ok(layer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cif_names_are_unique() {
        let mut names: Vec<_> = Layer::ALL.iter().map(|l| l.cif_name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Layer::ALL.len());
    }

    #[test]
    fn indices_are_dense_and_unique() {
        let mut idx: Vec<_> = Layer::ALL.iter().map(|l| l.index()).collect();
        idx.sort_unstable();
        assert_eq!(idx, (0..Layer::ALL.len()).collect::<Vec<_>>());
    }

    #[test]
    fn parse_roundtrips_both_name_forms() {
        for layer in Layer::ALL {
            assert_eq!(layer.cif_name().parse::<Layer>().unwrap(), layer);
            assert_eq!(layer.to_string().parse::<Layer>().unwrap(), layer);
            // Case-insensitive.
            assert_eq!(
                layer.cif_name().to_lowercase().parse::<Layer>().unwrap(),
                layer
            );
        }
    }

    #[test]
    fn unknown_layer_rejected() {
        let err = "metal2".parse::<Layer>().unwrap_err();
        assert!(err.to_string().contains("metal2"));
    }
}
