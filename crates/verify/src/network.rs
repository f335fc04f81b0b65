//! Cube networks: multi-level combinational logic as a DAG of
//! cube-cover cones.
//!
//! A [`Network`] is the common intermediate form of the equivalence
//! checker. Every representation the compiler wants verified — a
//! minimized PLA personality, a synthesized control store, a transistor
//! netlist recovered by extraction — lowers to the same shape: primary
//! inputs plus *cones*, where each cone computes a sum-of-products
//! [`Cover`] over its fanins, optionally complemented (an nMOS
//! NOR-of-products is a complemented cone). Nodes are stored in
//! topological order (fanins always precede their cone), which every
//! algorithm below relies on.

use crate::VerifyError;
use silc_logic::{Cover, Cube, Lit};
use std::collections::HashMap;

/// Handle to a node within one [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Raw index (stable within one network).
    pub const fn raw(self) -> u32 {
        self.0
    }

    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// One node: a primary input or a cube-cover cone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Node {
    /// Primary input (index into [`Network::input_names`]).
    Input(usize),
    /// Sum-of-products over the fanins; cover position `i` (leftmost
    /// cube column) reads `fanins[i]`.
    Cone {
        fanins: Vec<NodeId>,
        cover: Cover,
        complement: bool,
    },
}

/// A combinational cube network with named inputs and outputs.
#[derive(Debug, Clone)]
pub struct Network {
    input_names: Vec<String>,
    nodes: Vec<Node>,
    outputs: Vec<(String, NodeId)>,
}

impl Default for Network {
    fn default() -> Network {
        Network::new()
    }
}

impl Network {
    /// An empty network.
    pub fn new() -> Network {
        Network {
            input_names: Vec::new(),
            nodes: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// Adds a primary input.
    pub fn add_input(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node::Input(self.input_names.len()));
        self.input_names.push(name.into());
        id
    }

    /// Adds a cone computing `cover` (complemented when `complement`)
    /// over `fanins`; cover position `i` reads `fanins[i]`.
    ///
    /// # Errors
    ///
    /// [`VerifyError::Malformed`] when the cover width disagrees with
    /// the fanin count or a fanin id is out of range (forward edges are
    /// impossible by construction: ids are handed out in order).
    pub fn add_cone(
        &mut self,
        fanins: Vec<NodeId>,
        cover: Cover,
        complement: bool,
    ) -> Result<NodeId, VerifyError> {
        if cover.num_inputs() != fanins.len() {
            return Err(VerifyError::Malformed {
                detail: format!(
                    "cone cover has {} inputs but {} fanins",
                    cover.num_inputs(),
                    fanins.len()
                ),
            });
        }
        if let Some(bad) = fanins.iter().find(|f| f.index() >= self.nodes.len()) {
            return Err(VerifyError::Malformed {
                detail: format!("fanin id {} out of range", bad.raw()),
            });
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node::Cone {
            fanins,
            cover,
            complement,
        });
        Ok(id)
    }

    /// Names `node` as an output.
    pub fn mark_output(&mut self, name: impl Into<String>, node: NodeId) {
        self.outputs.push((name.into(), node));
    }

    /// Primary input names, in index order.
    pub fn input_names(&self) -> &[String] {
        &self.input_names
    }

    /// Output `(name, node)` pairs, in declaration order.
    pub fn outputs(&self) -> &[(String, NodeId)] {
        &self.outputs
    }

    /// Total node count (inputs + cones).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Builds a single-level network: one cone per output, every cone
    /// reading all `inputs` positionally (exactly a PLA's realized
    /// output covers). An *empty* cover of any width is accepted as the
    /// constant-false output — `Cover`'s `FromIterator` gives empty
    /// collections width 0, so realized covers of constant outputs
    /// arrive that way.
    ///
    /// # Errors
    ///
    /// [`VerifyError::Malformed`] when a non-empty cover's width
    /// disagrees with the input count.
    pub fn from_covers(
        inputs: &[String],
        outputs: &[(String, Cover)],
    ) -> Result<Network, VerifyError> {
        let mut net = Network::new();
        let fanins: Vec<NodeId> = inputs.iter().map(|n| net.add_input(n.clone())).collect();
        for (name, cover) in outputs {
            let cover = if cover.is_empty() {
                Cover::empty(inputs.len())
            } else {
                cover.clone()
            };
            let id = net.add_cone(fanins.clone(), cover, false)?;
            net.mark_output(name.clone(), id);
        }
        Ok(net)
    }

    /// Splices another network's cones into this one, sharing primary
    /// inputs: `other`'s input `i` becomes this network's input
    /// `input_map[i]`. Returns `other`'s outputs translated into this
    /// network's id space. Used by the checker to put both sides of a
    /// comparison into one node space so [`Network::strash`] can merge
    /// identical subcones *across* the two sides.
    ///
    /// # Errors
    ///
    /// [`VerifyError::Malformed`] when `input_map` points outside this
    /// network's inputs.
    pub fn splice_nodes(
        &mut self,
        other: &Network,
        input_map: &[usize],
    ) -> Result<Vec<(String, NodeId)>, VerifyError> {
        // Input index -> node id, in this network.
        let mut input_ids: Vec<Option<NodeId>> = vec![None; self.input_names.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            if let Node::Input(idx) = node {
                input_ids[*idx] = Some(NodeId(i as u32));
            }
        }
        let mut remap: Vec<NodeId> = Vec::with_capacity(other.nodes.len());
        for node in &other.nodes {
            match node {
                Node::Input(idx) => {
                    let target = input_map
                        .get(*idx)
                        .copied()
                        .and_then(|i| input_ids.get(i).copied().flatten());
                    remap.push(target.ok_or_else(|| VerifyError::Malformed {
                        detail: format!("input map has no target for input {idx}"),
                    })?);
                }
                Node::Cone {
                    fanins,
                    cover,
                    complement,
                } => {
                    let id = NodeId(self.nodes.len() as u32);
                    self.nodes.push(Node::Cone {
                        fanins: fanins.iter().map(|f| remap[f.index()]).collect(),
                        cover: cover.clone(),
                        complement: *complement,
                    });
                    remap.push(id);
                }
            }
        }
        Ok(other
            .outputs
            .iter()
            .map(|(name, id)| (name.clone(), remap[id.index()]))
            .collect())
    }

    /// Structural hashing: merges nodes with identical structure
    /// (same fanins after merging, same cover, same phase). Identical
    /// subcones — including whole identical outputs — collapse to one
    /// node, so simulation and exact flattening never repeat work.
    /// Returns the number of nodes merged away.
    pub fn strash(&mut self) -> usize {
        let mut remap: Vec<NodeId> = Vec::with_capacity(self.nodes.len());
        let mut kept: Vec<Node> = Vec::with_capacity(self.nodes.len());
        let mut seen: HashMap<String, NodeId> = HashMap::new();
        let mut merged = 0usize;
        for node in &self.nodes {
            match node {
                Node::Input(i) => {
                    let id = NodeId(kept.len() as u32);
                    kept.push(Node::Input(*i));
                    remap.push(id);
                }
                Node::Cone {
                    fanins,
                    cover,
                    complement,
                } => {
                    let fanins: Vec<NodeId> = fanins.iter().map(|f| remap[f.index()]).collect();
                    let mut key = String::new();
                    key.push(if *complement { '!' } else { '+' });
                    for f in &fanins {
                        key.push_str(&f.raw().to_string());
                        key.push(',');
                    }
                    key.push(';');
                    for cube in cover.cubes() {
                        key.push_str(&cube.to_string());
                        key.push('|');
                    }
                    if let Some(&existing) = seen.get(&key) {
                        merged += 1;
                        remap.push(existing);
                    } else {
                        let id = NodeId(kept.len() as u32);
                        kept.push(Node::Cone {
                            fanins,
                            cover: cover.clone(),
                            complement: *complement,
                        });
                        seen.insert(key, id);
                        remap.push(id);
                    }
                }
            }
        }
        for (_, node) in &mut self.outputs {
            *node = remap[node.index()];
        }
        self.nodes = kept;
        merged
    }

    /// Evaluates every node over 64 input vectors at once: lane `l` of
    /// `input_words[i]` is the value of input `i` in vector `l`. Returns
    /// one word per node. This is the same word-parallel trick
    /// `silc-exec` uses for compiled simulation, applied to cubes: a
    /// product term is an AND of (possibly negated) fanin words, a cover
    /// is the OR of its terms.
    ///
    /// # Panics
    ///
    /// Panics when `input_words.len()` differs from the input count.
    pub fn eval64(&self, input_words: &[u64]) -> Vec<u64> {
        assert_eq!(input_words.len(), self.input_names.len());
        let mut values = vec![0u64; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            values[i] = match node {
                Node::Input(idx) => input_words[*idx],
                Node::Cone {
                    fanins,
                    cover,
                    complement,
                } => {
                    let sum = cover_word(cover, |pos| values[fanins[pos].index()]);
                    if *complement {
                        !sum
                    } else {
                        sum
                    }
                }
            };
        }
        values
    }

    /// Flattens every node to a pair of covers *over the primary
    /// inputs*: `(on, off)`, where cover position `i` is input `i`. The
    /// two phases of each node partition the input space, so exact
    /// containment questions reduce to [`Cover::covers`]. Cones are
    /// composed bottom-up by substituting fanin phases into each product
    /// term; the complemented local phase comes from a Shannon-expansion
    /// cover complement.
    ///
    /// `cube_cap` bounds any intermediate cover's cube count.
    ///
    /// # Errors
    ///
    /// [`VerifyError::TooLarge`] when composition exceeds `cube_cap`
    /// cubes.
    pub fn flatten_phases(&self, cube_cap: usize) -> Result<Vec<(Cover, Cover)>, VerifyError> {
        let n = self.input_names.len();
        let mut phases: Vec<(Cover, Cover)> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let pair = match node {
                Node::Input(idx) => {
                    let mut on = Cover::empty(n);
                    let mut off = Cover::empty(n);
                    on.push(Cube::universe(n).with_lit(*idx, Lit::One))
                        .expect("width matches");
                    off.push(Cube::universe(n).with_lit(*idx, Lit::Zero))
                        .expect("width matches");
                    (on, off)
                }
                Node::Cone {
                    fanins,
                    cover,
                    complement,
                } => {
                    let local_off = complement_cover(cover);
                    let pos = compose(cover, fanins, &phases, n, cube_cap)?;
                    let neg = compose(&local_off, fanins, &phases, n, cube_cap)?;
                    if *complement {
                        (neg, pos)
                    } else {
                        (pos, neg)
                    }
                }
            };
            phases.push(pair);
        }
        Ok(phases)
    }
}

/// Evaluates `cover` over 64 packed vectors: `word(pos)` is the word
/// feeding cover position `pos`. A product term is an AND of (possibly
/// negated) words, the cover the OR of its terms.
pub(crate) fn cover_word(cover: &Cover, word: impl Fn(usize) -> u64) -> u64 {
    let mut sum = 0u64;
    for cube in cover.cubes() {
        let mut product = u64::MAX;
        for (pos, &lit) in cube.lits().iter().enumerate() {
            product &= match lit {
                Lit::One => word(pos),
                Lit::Zero => !word(pos),
                Lit::DontCare => u64::MAX,
            };
        }
        sum |= product;
    }
    sum
}

/// Substitutes fanin phase covers into `cover`'s product terms: a `1`
/// literal contributes the fanin's ON cover, a `0` its OFF cover, and
/// the term becomes the cross-product intersection of those covers.
fn compose(
    cover: &Cover,
    fanins: &[NodeId],
    phases: &[(Cover, Cover)],
    n: usize,
    cube_cap: usize,
) -> Result<Cover, VerifyError> {
    let mut result: Vec<Cube> = Vec::new();
    for cube in cover.cubes() {
        let mut term: Vec<Cube> = vec![Cube::universe(n)];
        for (pos, &lit) in cube.lits().iter().enumerate() {
            let substitute = match lit {
                Lit::One => &phases[fanins[pos].0 as usize].0,
                Lit::Zero => &phases[fanins[pos].0 as usize].1,
                Lit::DontCare => continue,
            };
            let mut next: Vec<Cube> = Vec::new();
            for a in &term {
                for b in substitute.cubes() {
                    if let Some(c) = a.intersect(b) {
                        next.push(c);
                    }
                    if next.len() > cube_cap {
                        return Err(VerifyError::TooLarge {
                            cubes: next.len(),
                            cap: cube_cap,
                        });
                    }
                }
            }
            term = next;
            if term.is_empty() {
                break;
            }
        }
        result.extend(term);
        if result.len() > cube_cap {
            return Err(VerifyError::TooLarge {
                cubes: result.len(),
                cap: cube_cap,
            });
        }
    }
    let mut out = Cover::from_cubes(n, result).map_err(|e| VerifyError::Malformed {
        detail: e.to_string(),
    })?;
    out.remove_single_cube_contained();
    Ok(out)
}

/// Complements a cover by Shannon expansion on the first bound
/// variable: `!f = x'·(!f|x=0) + x·(!f|x=1)`.
pub(crate) fn complement_cover(cover: &Cover) -> Cover {
    let n = cover.num_inputs();
    if cover.is_empty() {
        return Cover::tautology_cover(n);
    }
    // A cube with no bound literal covers everything.
    if cover
        .cubes()
        .iter()
        .any(|c| c.lits().iter().all(|&l| l == Lit::DontCare))
    {
        return Cover::empty(n);
    }
    // Pick the first variable bound anywhere in the cover.
    let var = (0..n)
        .find(|&i| cover.cubes().iter().any(|c| c.lit(i) != Lit::DontCare))
        .expect("a non-tautology cube binds some variable");
    let lo = complement_cover(&cover.cofactor(&Cube::universe(n).with_lit(var, Lit::Zero)));
    let hi = complement_cover(&cover.cofactor(&Cube::universe(n).with_lit(var, Lit::One)));
    let mut cubes: Vec<Cube> = Vec::with_capacity(lo.len() + hi.len());
    cubes.extend(lo.cubes().iter().map(|c| c.with_lit(var, Lit::Zero)));
    cubes.extend(hi.cubes().iter().map(|c| c.with_lit(var, Lit::One)));
    let mut out = Cover::from_cubes(n, cubes).expect("widths preserved");
    out.remove_single_cube_contained();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_network() -> Network {
        // out = a ^ b as a two-cube cover.
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let cover = Cover::from_cubes(
            2,
            vec![Cube::parse("10").unwrap(), Cube::parse("01").unwrap()],
        )
        .unwrap();
        let id = net.add_cone(vec![a, b], cover, false).unwrap();
        net.mark_output("out", id);
        net
    }

    #[test]
    fn eval64_matches_truth() {
        let net = xor_network();
        // Lane l: a = bit l of 0b1100, b = bit l of 0b1010.
        let values = net.eval64(&[0b1100, 0b1010]);
        let out = values[net.outputs()[0].1.index()];
        assert_eq!(out & 0b1111, 0b0110);
    }

    #[test]
    fn complement_is_exact() {
        let cover = Cover::from_cubes(
            3,
            vec![Cube::parse("1-0").unwrap(), Cube::parse("011").unwrap()],
        )
        .unwrap();
        let neg = complement_cover(&cover);
        for m in 0..8u64 {
            assert_eq!(cover.eval(m), !neg.eval(m), "minterm {m}");
        }
    }

    #[test]
    fn flatten_two_level() {
        // f = !(a·b) (a NAND cone), g = f·c — flattened ON cover of g
        // must equal the function table.
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let and = Cover::from_cubes(2, vec![Cube::parse("11").unwrap()]).unwrap();
        let nand = net.add_cone(vec![a, b], and, true).unwrap();
        let and2 = Cover::from_cubes(2, vec![Cube::parse("11").unwrap()]).unwrap();
        let g = net.add_cone(vec![nand, c], and2, false).unwrap();
        net.mark_output("g", g);
        let phases = net.flatten_phases(10_000).unwrap();
        let (on, off) = &phases[g.index()];
        for m in 0..8u64 {
            let a_v = (m >> 2) & 1 == 1;
            let b_v = (m >> 1) & 1 == 1;
            let c_v = m & 1 == 1;
            let expect = !(a_v && b_v) && c_v;
            assert_eq!(on.eval(m), expect, "on, minterm {m}");
            assert_eq!(off.eval(m), !expect, "off, minterm {m}");
        }
    }

    #[test]
    fn strash_merges_identical_cones() {
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let and = Cover::from_cubes(2, vec![Cube::parse("11").unwrap()]).unwrap();
        let x = net.add_cone(vec![a, b], and.clone(), true).unwrap();
        let y = net.add_cone(vec![a, b], and, true).unwrap();
        net.mark_output("x", x);
        net.mark_output("y", y);
        assert_eq!(net.strash(), 1);
        assert_eq!(net.outputs()[0].1, net.outputs()[1].1);
    }

    #[test]
    fn cone_width_mismatch_rejected() {
        let mut net = Network::new();
        let a = net.add_input("a");
        let cover = Cover::from_cubes(2, vec![Cube::parse("11").unwrap()]).unwrap();
        assert!(net.add_cone(vec![a], cover, false).is_err());
    }
}
