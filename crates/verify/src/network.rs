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
    /// output covers).
    ///
    /// # Errors
    ///
    /// [`VerifyError::Malformed`] when a cover's width disagrees with
    /// the input count.
    pub fn from_covers(
        inputs: &[String],
        outputs: &[(String, Cover)],
    ) -> Result<Network, VerifyError> {
        let mut net = Network::new();
        let fanins: Vec<NodeId> = inputs.iter().map(|n| net.add_input(n.clone())).collect();
        for (name, cover) in outputs {
            let id = net.add_cone(fanins.clone(), cover.clone(), false)?;
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
        let mut seen: HashMap<(bool, Vec<NodeId>, &Cover), NodeId> = HashMap::new();
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
                    let id = NodeId(kept.len() as u32);
                    let first = *seen
                        .entry((*complement, fanins.clone(), cover))
                        .or_insert(id);
                    if first == id {
                        kept.push(Node::Cone {
                            fanins,
                            cover: cover.clone(),
                            complement: *complement,
                        });
                    } else {
                        merged += 1;
                    }
                    remap.push(first);
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
}

/// Every node flattened to covers *over the primary inputs* (cover
/// position `i` is input `i`), one polarity at a time and only where
/// somebody asks: the ON phase of an uncomplemented cone is its cover
/// with each `1` literal replaced by the fanin's ON phase and each `0`
/// by its OFF phase, and it is only an OFF phase — of a `0` literal's
/// fanin, of a complemented cone's own cover, or of an output whose
/// failure wants a witness — that costs a cover complement. The two
/// phases of a node partition the input space.
pub(crate) struct Phases<'a> {
    net: &'a Network,
    /// Bound on any intermediate cover's cube count.
    cube_cap: usize,
    /// `[off, on]` of each node, once built.
    built: Vec<[Option<Cover>; 2]>,
    /// The complement of each cone's own cover, once some phase read it.
    local_off: Vec<Option<Cover>>,
    /// Cover complements taken so far.
    pub(crate) complements: u64,
}

impl<'a> Phases<'a> {
    pub(crate) fn new(net: &'a Network, cube_cap: usize) -> Phases<'a> {
        Phases {
            net,
            cube_cap,
            built: vec![[None, None]; net.nodes.len()],
            local_off: vec![None; net.nodes.len()],
            complements: 0,
        }
    }

    /// The phase of `node` that a `1` (`on`) or `0` literal reads.
    ///
    /// # Panics
    ///
    /// Panics unless [`Phases::demand`] was asked for it.
    pub(crate) fn get(&self, node: usize, on: bool) -> &Cover {
        self.built[node][usize::from(on)]
            .as_ref()
            .expect("phase was demanded")
    }

    /// Builds the named `(node, on)` phases and whatever they read: one
    /// sweep down the topological order to mark, one up to compose.
    ///
    /// # Errors
    ///
    /// [`VerifyError::TooLarge`] when a composition exceeds the cube cap.
    pub(crate) fn demand(&mut self, roots: &[(usize, bool)]) -> Result<(), VerifyError> {
        let net = self.net;
        let n = net.input_names.len();
        let mut wanted = vec![[false; 2]; net.nodes.len()];
        for &(node, on) in roots {
            wanted[node][usize::from(on)] = true;
        }
        for (idx, node) in net.nodes.iter().enumerate().rev() {
            let Node::Cone {
                fanins,
                cover,
                complement,
            } = node
            else {
                continue;
            };
            for on in [false, true] {
                if !wanted[idx][usize::from(on)] || self.built[idx][usize::from(on)].is_some() {
                    continue;
                }
                if on == *complement && self.local_off[idx].is_none() {
                    self.local_off[idx] = Some(complement_cover(cover));
                    self.complements += 1;
                }
                let local = self.local(idx, cover, on != *complement);
                for (pos, one) in local.cubes().iter().flat_map(Cube::bound) {
                    wanted[fanins[pos].index()][usize::from(one)] = true;
                }
            }
        }
        for (idx, node) in net.nodes.iter().enumerate() {
            for on in [false, true] {
                if !wanted[idx][usize::from(on)] || self.built[idx][usize::from(on)].is_some() {
                    continue;
                }
                let phase = match node {
                    Node::Input(input) => {
                        let lit = if on { Lit::One } else { Lit::Zero };
                        let cube = Cube::universe(n).with_lit(*input, lit);
                        Cover::from_cubes(n, vec![cube]).expect("width matches")
                    }
                    Node::Cone {
                        fanins,
                        cover,
                        complement,
                    } => {
                        let local = self.local(idx, cover, on != *complement);
                        compose(local, fanins, &self.built, n, self.cube_cap)?
                    }
                };
                self.built[idx][usize::from(on)] = Some(phase);
            }
        }
        Ok(())
    }

    /// Cone `idx`'s own cover, or its complement once taken.
    fn local<'c>(&'c self, idx: usize, cover: &'c Cover, plain: bool) -> &'c Cover {
        if plain {
            cover
        } else {
            self.local_off[idx].as_ref().expect("complement was taken")
        }
    }
}

/// Evaluates `cover` over 64 packed vectors: `word(pos)` is the word
/// feeding cover position `pos`. A product term is an AND of (possibly
/// negated) words, the cover the OR of its terms.
pub(crate) fn cover_word(cover: &Cover, word: impl Fn(usize) -> u64) -> u64 {
    let literal = |product, (pos, one)| product & if one { word(pos) } else { !word(pos) };
    let products = cover
        .cubes()
        .iter()
        .map(|c| c.bound().fold(u64::MAX, literal));
    products.fold(0, |sum, product| sum | product)
}

/// Substitutes fanin phase covers into `cover`'s product terms: a `1`
/// literal contributes the fanin's ON cover, a `0` its OFF cover, and
/// the term becomes the cross-product intersection of those covers.
fn compose(
    cover: &Cover,
    fanins: &[NodeId],
    phases: &[[Option<Cover>; 2]],
    n: usize,
    cube_cap: usize,
) -> Result<Cover, VerifyError> {
    let too_large = |cubes: usize| VerifyError::TooLarge {
        cubes,
        cap: cube_cap,
    };
    let mut result: Vec<Cube> = Vec::new();
    let (mut term, mut next): (Vec<Cube>, Vec<Cube>) = (Vec::new(), Vec::new());
    for cube in cover.cubes() {
        term.clear();
        term.push(Cube::universe(n));
        for (pos, one) in cube.bound() {
            let substitute = phases[fanins[pos].index()][usize::from(one)]
                .as_ref()
                .expect("fanin phases are built first");
            next.clear();
            for a in &term {
                for b in substitute.cubes() {
                    next.extend(a.intersect(b));
                    if next.len() > cube_cap {
                        return Err(too_large(next.len()));
                    }
                }
            }
            std::mem::swap(&mut term, &mut next);
            if term.is_empty() {
                break;
            }
        }
        result.append(&mut term);
        if result.len() > cube_cap {
            return Err(too_large(result.len()));
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
    let first_bound = |c: &Cube| c.bound().next().map(|(i, _)| i);
    let Some(var) = cover
        .cubes()
        .iter()
        .map(first_bound)
        .min()
        .expect("not empty")
    else {
        return Cover::empty(n);
    };
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

    /// Complements against minterm enumeration at up to 12 inputs; then
    /// the same functions over two to four words of mostly unused inputs,
    /// where the complement must be the narrow one, cube for cube, moved
    /// to the same columns.
    #[test]
    fn complement_is_exact() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        const LITS: [Lit; 3] = [Lit::Zero, Lit::One, Lit::DontCare];
        let spread = |cover: &Cover, width: usize, columns: &[usize]| {
            let place = |c: &Cube| {
                let mut wide = Cube::universe(width);
                for (i, one) in c.bound() {
                    wide.set_lit(columns[i], if one { Lit::One } else { Lit::Zero });
                }
                wide
            };
            Cover::from_cubes(width, cover.cubes().iter().map(place).collect()).unwrap()
        };
        let mut rng = StdRng::seed_from_u64(24);
        for round in 0..200 {
            let n = 1 + round % 12;
            let dashes = 3 + rng.gen_range(0..n);
            let mut cube =
                || Cube::from_lits((0..n).map(|_| LITS[rng.gen_range(0..dashes).min(2)]));
            let cubes = (0..1 + round % 7).map(|_| cube()).collect();
            let cover = Cover::from_cubes(n, cubes).unwrap();
            let neg = complement_cover(&cover);
            for m in 0..1u64 << n {
                assert_eq!(cover.eval(m), !neg.eval(m), "{cover}, minterm {m}");
            }
            for width in [70, 129, 200] {
                let columns: Vec<usize> = (0..n).map(|i| i * (width - 1) / n.max(2)).collect();
                let wide = complement_cover(&spread(&cover, width, &columns));
                assert_eq!(wide, spread(&neg, width, &columns), "{cover}");
            }
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
        let mut phases = Phases::new(&net, 10_000);
        phases
            .demand(&[(g.index(), true), (g.index(), false)])
            .unwrap();
        // One complement a cone: the NAND's ON phase and `g`'s OFF phase
        // each compose the complement of the cone's own cover.
        assert_eq!(phases.complements, 2);
        let (on, off) = (phases.get(g.index(), true), phases.get(g.index(), false));
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
