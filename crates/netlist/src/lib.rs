//! # silc-netlist — structural descriptions
//!
//! The paper names three descriptions key to hardware design: structural,
//! behavioral and physical. This crate is the **structural** one: a
//! [`Netlist`] of module instances wired together by nets.
//!
//! The behavioral compiler (`silc-synth`) emits netlists; the layout
//! extractor (`silc-extract`) recovers netlists from mask geometry; and
//! [`Netlist::isomorphic_signature`] lets the two be compared (LVS), which
//! closes the loop between the physical and structural hierarchies that
//! the Mead–Conway style tries to keep unified.
//!
//! # Example
//!
//! ```
//! use silc_netlist::Netlist;
//!
//! let mut n = Netlist::new("latch");
//! let d = n.add_net("d");
//! let q = n.add_net("q");
//! let clk = n.add_net("clk");
//! n.add_instance("pass0", "pass", &[("gate", clk), ("src", d), ("drn", q)])?;
//! assert_eq!(n.instances().len(), 1);
//! assert_eq!(n.fanout(clk), 1);
//! # Ok::<(), silc_netlist::NetlistError>(())
//! ```

use silc_geom::{Dec, DecodeError, Fingerprint, Fp, FpHasher, Persist};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Opaque handle to a net within a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(u32);

impl NetId {
    /// Raw index (stable within one netlist).
    pub const fn raw(self) -> u32 {
        self.0
    }
}

/// Opaque handle to an instance within a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstanceId(u32);

impl InstanceId {
    /// Raw index (stable within one netlist).
    pub const fn raw(self) -> u32 {
        self.0
    }
}

/// A wired instance of some module kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance {
    /// Instance name, unique within the netlist.
    pub name: String,
    /// The module kind (e.g. `"nand2"`, `"register"`, `"enh"`), opaque to
    /// this crate.
    pub kind: String,
    /// Port-to-net bindings, in declaration order.
    pub connections: Vec<(String, NetId)>,
}

/// A net (electrical node).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Net {
    /// Net name, unique within the netlist.
    pub name: String,
}

/// Error produced by netlist construction.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetlistError {
    /// An instance or net name was reused.
    DuplicateName {
        /// The colliding name.
        name: String,
    },
    /// A connection referenced a net id from another netlist.
    UnknownNet {
        /// The dangling id.
        id: NetId,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::DuplicateName { name } => write!(f, "name `{name}` already used"),
            NetlistError::UnknownNet { id } => write!(f, "unknown net id {}", id.raw()),
        }
    }
}

impl std::error::Error for NetlistError {}

/// A flat structural netlist.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Netlist {
    name: String,
    nets: Vec<Net>,
    instances: Vec<Instance>,
    net_names: HashMap<String, NetId>,
    instance_names: HashMap<String, InstanceId>,
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new(name: impl Into<String>) -> Netlist {
        Netlist {
            name: name.into(),
            ..Netlist::default()
        }
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a net; if the name exists, returns the existing id (nets are
    /// merge-by-name, the convenient behaviour for generators).
    pub fn add_net(&mut self, name: impl Into<String>) -> NetId {
        let name = name.into();
        if let Some(&id) = self.net_names.get(&name) {
            return id;
        }
        let id = NetId(self.nets.len() as u32);
        self.net_names.insert(name.clone(), id);
        self.nets.push(Net { name });
        id
    }

    /// Adds an instance with its port bindings.
    ///
    /// # Errors
    ///
    /// * [`NetlistError::DuplicateName`] when the instance name is taken.
    /// * [`NetlistError::UnknownNet`] when a binding references a foreign
    ///   net id.
    pub fn add_instance(
        &mut self,
        name: impl Into<String>,
        kind: impl Into<String>,
        connections: &[(&str, NetId)],
    ) -> Result<InstanceId, NetlistError> {
        self.push_instance(Instance {
            name: name.into(),
            kind: kind.into(),
            connections: connections
                .iter()
                .map(|&(p, n)| (p.to_string(), n))
                .collect(),
        })
    }

    /// Adds an instance it owns, refused as [`Netlist::add_instance`]
    /// refuses one.
    fn push_instance(&mut self, inst: Instance) -> Result<InstanceId, NetlistError> {
        if self.instance_names.contains_key(&inst.name) {
            return Err(NetlistError::DuplicateName { name: inst.name });
        }
        for &(_, id) in &inst.connections {
            if id.raw() as usize >= self.nets.len() {
                return Err(NetlistError::UnknownNet { id });
            }
        }
        let id = InstanceId(self.instances.len() as u32);
        self.instance_names.insert(inst.name.clone(), id);
        self.instances.push(inst);
        Ok(id)
    }

    /// All nets.
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// All instances.
    pub fn instances(&self) -> &[Instance] {
        &self.instances
    }

    /// Looks up a net by name.
    pub fn net_by_name(&self, name: &str) -> Option<NetId> {
        self.net_names.get(name).copied()
    }

    /// Looks up an instance by name.
    pub fn instance_by_name(&self, name: &str) -> Option<InstanceId> {
        self.instance_names.get(name).copied()
    }

    /// The net's name.
    ///
    /// # Panics
    ///
    /// Panics on a foreign id.
    pub fn net_name(&self, id: NetId) -> &str {
        &self.nets[id.raw() as usize].name
    }

    /// Number of instance pins attached to `net`.
    pub fn fanout(&self, net: NetId) -> usize {
        self.instances
            .iter()
            .flat_map(|i| &i.connections)
            .filter(|(_, n)| *n == net)
            .count()
    }

    /// A canonical signature for structural comparison (LVS-lite): labels
    /// nets and instances by iterated neighbourhood refinement **to a
    /// fixpoint** and returns the sorted multiset of instance labels, each
    /// a fingerprint. Two netlists with equal signatures are structurally
    /// identical up to renaming for all practical layouts (the refinement
    /// is not a complete isomorphism test, but distinguishes everything
    /// the extractor produces, including long chains whose ends a
    /// fixed-round refinement cannot see).
    pub fn isomorphic_signature(&self) -> Vec<Fp> {
        self.refined_signature(None)
    }

    /// Label refinement driving [`isomorphic_signature`]. A label is the
    /// fingerprint of a tuple, so its length prefixes keep the parts
    /// apart: a net starts as its sorted `(kind, port)` pins; each round
    /// an instance becomes `(previous label, kind, sorted (port, net
    /// label))` and then a net `(previous label, sorted (port, instance
    /// label))`. Chaining the previous label means classes only ever
    /// split, and each net's pins are listed once, up front, so round
    /// cost stays linear. With `rounds: None` refinement runs until the
    /// partition stops splitting (at most `nets + instances` rounds);
    /// `Some(k)` stops after exactly `k` rounds (used by tests to pin the
    /// shallow-refinement failure mode).
    ///
    /// [`isomorphic_signature`]: Netlist::isomorphic_signature
    fn refined_signature(&self, rounds: Option<usize>) -> Vec<Fp> {
        let pins = self.pins_per_net();
        let mut net_labels: Vec<Fp> = pins
            .iter()
            .map(|on_net| {
                let mut kinds: Vec<(&str, &str)> = on_net
                    .iter()
                    .map(|&(ii, p)| (self.instances[ii].kind.as_str(), p))
                    .collect();
                kinds.sort_unstable();
                kinds.fingerprint()
            })
            .collect();
        let max_rounds = rounds.unwrap_or(self.nets.len() + self.instances.len() + 1);
        let mut inst_labels = vec![Fp::from_raw(0); self.instances.len()];
        let mut parts: Vec<(&str, Fp)> = Vec::new();
        let class_count = |labels: &[Fp]| labels.iter().collect::<HashSet<_>>().len();
        let mut prev_classes = 0;
        for _ in 0..max_rounds {
            for (label, inst) in inst_labels.iter_mut().zip(&self.instances) {
                parts.clear();
                parts.extend(
                    inst.connections
                        .iter()
                        .map(|(p, n)| (p.as_str(), net_labels[n.raw() as usize])),
                );
                parts.sort_unstable();
                *label = (*label, inst.kind.as_str(), &*parts).fingerprint();
            }
            for (label, on_net) in net_labels.iter_mut().zip(&pins) {
                parts.clear();
                parts.extend(on_net.iter().map(|&(ii, p)| (p, inst_labels[ii])));
                parts.sort_unstable();
                *label = (*label, &*parts).fingerprint();
            }
            if rounds.is_none() {
                // Chained labels mean classes only split; an unchanged
                // count is therefore a stable partition, and a stable
                // round can never be followed by a splitting one.
                let classes = class_count(&inst_labels) + class_count(&net_labels);
                if classes == prev_classes {
                    break;
                }
                prev_classes = classes;
            }
        }
        inst_labels.sort_unstable();
        inst_labels
    }

    /// Each net's pins as `(instance index, port)`, in instance order.
    fn pins_per_net(&self) -> Vec<Vec<(usize, &str)>> {
        let mut pins = vec![Vec::new(); self.nets.len()];
        for (ii, inst) in self.instances.iter().enumerate() {
            for (p, n) in &inst.connections {
                pins[n.raw() as usize].push((ii, p.as_str()));
            }
        }
        pins
    }

    /// Structural equality up to renaming, via
    /// [`isomorphic_signature`](Netlist::isomorphic_signature).
    pub fn structurally_matches(&self, other: &Netlist) -> bool {
        self.instances.len() == other.instances.len()
            && self.nets_with_pins() == other.nets_with_pins()
            && self.isomorphic_signature() == other.isomorphic_signature()
    }

    fn nets_with_pins(&self) -> usize {
        let mut used = vec![false; self.nets.len()];
        for (_, n) in self.instances.iter().flat_map(|i| &i.connections) {
            used[n.raw() as usize] = true;
        }
        used.into_iter().filter(|&u| u).count()
    }
}

impl Fingerprint for Netlist {
    fn fp_hash(&self, h: &mut FpHasher) {
        h.write_str(&self.name);
        h.write_len(self.nets.len());
        for net in &self.nets {
            h.write_str(&net.name);
        }
        h.write_len(self.instances.len());
        for inst in &self.instances {
            h.write_str(&inst.name);
            h.write_str(&inst.kind);
            h.write_len(inst.connections.len());
            for (port, net) in &inst.connections {
                h.write_str(port);
                h.write_u32(net.raw());
            }
        }
    }
}

/// The fingerprint stream read back through the constructors, so bytes
/// no netlist hashes to (a net name twice, a connection past the last
/// net, an instance name twice) are refused rather than merged.
impl Persist for Netlist {
    fn decode(d: &mut Dec<'_>) -> Result<Netlist, DecodeError> {
        let mut netlist = Netlist::new(String::decode(d)?);
        for name in Vec::<String>::decode(d)? {
            if netlist.net_names.contains_key(&name) {
                return Err(NetlistError::DuplicateName { name }.to_string());
            }
            netlist.add_net(name);
        }
        // Each instance: its name and kind, then its `(port, net id)` pins.
        for ((name, kind), pins) in Vec::<((String, String), Vec<(String, u32)>)>::decode(d)? {
            let connections = pins.into_iter().map(|(p, n)| (p, NetId(n))).collect();
            netlist
                .push_instance(Instance {
                    name,
                    kind,
                    connections,
                })
                .map_err(|e| e.to_string())?;
        }
        Ok(netlist)
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "netlist {} ({} instances, {} nets)",
            self.name,
            self.instances.len(),
            self.nets.len()
        )?;
        for inst in &self.instances {
            write!(f, "  {} {}(", inst.name, inst.kind)?;
            for (i, (p, n)) in inst.connections.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{p}={}", self.net_name(*n))?;
            }
            writeln!(f, ")")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn inverter_pair(names: [&str; 4]) -> Netlist {
        // Two chained inverters built from pull-up/pull-down pairs.
        let mut n = Netlist::new("buf");
        let a = n.add_net(names[0]);
        let mid = n.add_net(names[1]);
        let q = n.add_net(names[2]);
        let vdd = n.add_net(names[3]);
        n.add_instance("pu1", "pullup", &[("out", mid), ("vdd", vdd)])
            .unwrap();
        n.add_instance("pd1", "enh", &[("gate", a), ("drn", mid)])
            .unwrap();
        n.add_instance("pu2", "pullup", &[("out", q), ("vdd", vdd)])
            .unwrap();
        n.add_instance("pd2", "enh", &[("gate", mid), ("drn", q)])
            .unwrap();
        n
    }

    #[test]
    fn nets_merge_by_name() {
        let mut n = Netlist::new("t");
        let a = n.add_net("a");
        let a2 = n.add_net("a");
        assert_eq!(a, a2);
        assert_eq!(n.nets().len(), 1);
    }

    #[test]
    fn duplicate_instance_rejected() {
        let mut n = Netlist::new("t");
        let a = n.add_net("a");
        n.add_instance("i1", "inv", &[("in", a)]).unwrap();
        assert!(matches!(
            n.add_instance("i1", "inv", &[("in", a)]),
            Err(NetlistError::DuplicateName { .. })
        ));
    }

    #[test]
    fn foreign_net_rejected() {
        let mut other = Netlist::new("other");
        let foreign = other.add_net("x");
        let _ = foreign;
        let mut n = Netlist::new("t");
        // NetId from `other` with raw index 0 is valid here only if n has
        // a net; n has none.
        assert!(matches!(
            n.add_instance("i", "inv", &[("in", foreign)]),
            Err(NetlistError::UnknownNet { .. })
        ));
    }

    #[test]
    fn fanout_counts_pins() {
        let n = inverter_pair(["a", "mid", "q", "vdd"]);
        // mid carries pu1.out, pd1.drn and pd2.gate.
        let mid = n.net_by_name("mid").unwrap();
        assert_eq!(n.fanout(mid), 3);
        let vdd = n.net_by_name("vdd").unwrap();
        assert_eq!(n.fanout(vdd), 2);
    }

    #[test]
    fn isomorphism_ignores_names() {
        let a = inverter_pair(["a", "mid", "q", "vdd"]);
        let b = inverter_pair(["x", "y", "z", "power"]);
        assert!(a.structurally_matches(&b));
        assert_eq!(a.isomorphic_signature(), b.isomorphic_signature());
    }

    #[test]
    fn isomorphism_detects_differences() {
        let a = inverter_pair(["a", "mid", "q", "vdd"]);
        // Same instance counts, but rewire: second gate driven by input
        // instead of mid — structurally different.
        let mut b = Netlist::new("buf");
        let x = b.add_net("a");
        let mid = b.add_net("mid");
        let q = b.add_net("q");
        let vdd = b.add_net("vdd");
        b.add_instance("pu1", "pullup", &[("out", mid), ("vdd", vdd)])
            .unwrap();
        b.add_instance("pd1", "enh", &[("gate", x), ("drn", mid)])
            .unwrap();
        b.add_instance("pu2", "pullup", &[("out", q), ("vdd", vdd)])
            .unwrap();
        b.add_instance("pd2", "enh", &[("gate", x), ("drn", q)])
            .unwrap();
        assert!(!a.structurally_matches(&b));
    }

    /// Two disjoint chains of `buf` instances: `in -> b0 -> ... -> out`
    /// per length in `lens`.
    fn buf_chains(lens: &[usize]) -> Netlist {
        let mut n = Netlist::new("chains");
        for (ci, &len) in lens.iter().enumerate() {
            let mut prev = n.add_net(format!("c{ci}_n0"));
            for i in 0..len {
                let next = n.add_net(format!("c{ci}_n{}", i + 1));
                n.add_instance(format!("c{ci}_b{i}"), "buf", &[("a", prev), ("y", next)])
                    .unwrap();
                prev = next;
            }
        }
        n
    }

    #[test]
    fn fixpoint_distinguishes_what_shallow_refinement_conflates() {
        // 10+10 vs 8+12: same instance count (20), same pinned-net count
        // (22), and identical radius-4 neighbourhood multisets, so a
        // refinement cut off after 3 rounds (the old behaviour) calls
        // them isomorphic. Run to a fixpoint they differ: only the 12
        // chain has instances 5 hops from the nearest end.
        let a = buf_chains(&[10, 10]);
        let b = buf_chains(&[8, 12]);
        assert_eq!(a.instances().len(), b.instances().len());
        assert_eq!(a.nets_with_pins(), b.nets_with_pins());
        assert_eq!(
            a.refined_signature(Some(3)),
            b.refined_signature(Some(3)),
            "pair must reproduce the shallow-refinement conflation"
        );
        assert_ne!(a.isomorphic_signature(), b.isomorphic_signature());
        assert!(!a.structurally_matches(&b));
    }

    #[test]
    fn fixpoint_still_matches_isomorphic_chains() {
        let a = buf_chains(&[8, 12]);
        let b = buf_chains(&[12, 8]);
        assert!(a.structurally_matches(&b));
    }

    /// The reference refinement: every net looks through every
    /// instance's connections, once per round, and a label is the hex
    /// digest of text joined with separators. Its labels are not
    /// `refined_signature`'s, so the two are compared by verdict, never
    /// by label value.
    fn scanned_signature(n: &Netlist, rounds: Option<usize>) -> Vec<String> {
        let digest = |raw: &str| raw.fingerprint().to_string();
        let distinct = |labels: &[String]| labels.iter().collect::<BTreeSet<_>>().len();
        let mut net_labels: Vec<String> = vec![String::new(); n.nets.len()];
        for (ni, label) in net_labels.iter_mut().enumerate() {
            let mut pins: Vec<String> = n
                .instances
                .iter()
                .flat_map(|inst| {
                    inst.connections
                        .iter()
                        .filter(|(_, net)| net.raw() as usize == ni)
                        .map(|(p, _)| format!("{}:{}", inst.kind, p))
                })
                .collect();
            pins.sort();
            *label = digest(&pins.join(","));
        }
        let max_rounds = rounds.unwrap_or(n.nets.len() + n.instances.len() + 1);
        let mut inst_labels: Vec<String> = vec![String::new(); n.instances.len()];
        let mut prev_classes = 0;
        for _ in 0..max_rounds {
            for (ii, inst) in n.instances.iter().enumerate() {
                let mut parts: Vec<String> = inst
                    .connections
                    .iter()
                    .map(|(p, net)| format!("{p}={}", net_labels[net.raw() as usize]))
                    .collect();
                parts.sort();
                let raw = format!("{}|{}({})", inst_labels[ii], inst.kind, parts.join(";"));
                inst_labels[ii] = digest(&raw);
            }
            let mut next_nets = net_labels.clone();
            for (ni, label) in next_nets.iter_mut().enumerate() {
                let mut pins: Vec<String> = Vec::new();
                for (ii, inst) in n.instances.iter().enumerate() {
                    for (p, net) in &inst.connections {
                        if net.raw() as usize == ni {
                            pins.push(format!("{}@{}", p, inst_labels[ii]));
                        }
                    }
                }
                pins.sort();
                *label = digest(&format!("{}|{}", net_labels[ni], pins.join(",")));
            }
            net_labels = next_nets;
            if rounds.is_none() {
                let classes = distinct(&inst_labels) + distinct(&net_labels);
                if classes == prev_classes {
                    break;
                }
                prev_classes = classes;
            }
        }
        inst_labels.sort();
        inst_labels
    }

    fn scanned_nets_with_pins(n: &Netlist) -> usize {
        (0..n.nets.len())
            .filter(|&ni| n.fanout(NetId(ni as u32)) > 0)
            .count()
    }

    /// A seeded draw below its argument (SplitMix64).
    fn rng(seed: u64) -> impl FnMut(u64) -> u64 {
        let mut state = seed;
        move |below: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % below
        }
    }

    /// A random netlist: some nets unused, some pins sharing a net with
    /// another pin of the same instance.
    fn seeded_netlist(seed: u64) -> Netlist {
        let mut next = rng(seed);
        let mut n = Netlist::new(format!("seed{seed}"));
        let nets: Vec<NetId> = (0..1 + next(24))
            .map(|i| n.add_net(format!("n{i}")))
            .collect();
        for i in 0..1 + next(40) {
            let kind = ["enh", "dep", "buf", "pullup"][next(4) as usize];
            let pins: Vec<(&str, NetId)> = ["gate", "src", "drn", "out"][..1 + next(4) as usize]
                .iter()
                .map(|&p| (p, nets[next(nets.len() as u64) as usize]))
                .collect();
            n.add_instance(format!("i{i}"), kind, &pins).unwrap();
        }
        n
    }

    /// `n` with every net and instance renamed, the nets and the
    /// instances in a shuffled order and each instance's pins reversed:
    /// the same structure.
    fn renamed(n: &Netlist, seed: u64) -> Netlist {
        let mut next = rng(!seed);
        let mut shuffled = |len: usize| {
            let mut order: Vec<usize> = (0..len).collect();
            for i in (1..len).rev() {
                order.swap(i, next(i as u64 + 1) as usize);
            }
            order
        };
        let mut out = Netlist::new("renamed");
        let mut ids = vec![NetId(0); n.nets.len()];
        for (k, old) in shuffled(n.nets.len()).into_iter().enumerate() {
            ids[old] = out.add_net(format!("r{k}"));
        }
        for (k, old) in shuffled(n.instances.len()).into_iter().enumerate() {
            let inst = &n.instances[old];
            let pins: Vec<(&str, NetId)> = inst
                .connections
                .iter()
                .rev()
                .map(|(p, id)| (p.as_str(), ids[id.raw() as usize]))
                .collect();
            out.add_instance(format!("q{k}"), inst.kind.as_str(), &pins)
                .unwrap();
        }
        out
    }

    /// Copies of `n` with one edit each, at one seeded pin: its
    /// instance's kind renamed, its port renamed, and (when `n` has two
    /// nets) the pin moved to another net.
    fn edited(n: &Netlist, seed: u64) -> Vec<Netlist> {
        let mut next = rng(seed.rotate_left(32));
        let ii = next(n.instances.len() as u64) as usize;
        let pin = next(n.instances[ii].connections.len() as u64) as usize;
        let mut out = vec![n.clone(); 3];
        out[0].instances[ii].kind.push('\'');
        out[1].instances[ii].connections[pin].0.push('\'');
        let nets = n.nets.len() as u64;
        if nets < 2 {
            out.pop();
        } else {
            let net = &mut out[2].instances[ii].connections[pin].1;
            *net = NetId(((u64::from(net.raw()) + 1 + next(nets - 1)) % nets) as u32);
        }
        out
    }

    /// Whether `other`'s signature after `rounds` equals `n`'s, read by
    /// the refinement and by the oracle.
    fn verdicts(n: &Netlist, rounds: Option<usize>) -> impl Fn(&Netlist) -> [bool; 2] {
        let (ours, oracle) = (n.refined_signature(rounds), scanned_signature(n, rounds));
        move |other| {
            [
                ours == other.refined_signature(rounds),
                oracle == scanned_signature(other, rounds),
            ]
        }
    }

    #[test]
    fn pins_listed_once_label_as_the_per_net_scan_does() {
        let mut told_apart = [0; 3];
        for seed in 0..200 {
            let n = seeded_netlist(seed);
            assert_eq!(
                n.nets_with_pins(),
                scanned_nets_with_pins(&n),
                "seed {seed}"
            );
            let same = renamed(&n, seed);
            let edits = edited(&n, seed);
            for rounds in [None, Some(0), Some(1), Some(3)] {
                let against = verdicts(&n, rounds);
                assert_eq!(against(&same), [true; 2], "seed {seed}, rounds {rounds:?}");
                for (e, edit) in edits.iter().enumerate() {
                    let [ours, oracle] = against(edit);
                    assert_eq!(ours, oracle, "seed {seed}, rounds {rounds:?}, edit {e}");
                    told_apart[e] += usize::from(!ours);
                }
            }
        }
        // An edit is seen from the first round on in most draws (a kind
        // or a port in every one), and never by `Some(0)`, which labels no
        // instance.
        assert!(told_apart.iter().all(|&t| t >= 500), "{told_apart:?}");
        // A long chain refines for about half its length before the
        // partition settles; the quadratic oracle runs a few rounds.
        let chain = buf_chains(&[2000]);
        assert_eq!(chain.nets_with_pins(), scanned_nets_with_pins(&chain));
        let same = renamed(&chain, 1);
        let moved = edited(&chain, 1).pop().unwrap();
        for rounds in [Some(1), Some(4)] {
            let against = verdicts(&chain, rounds);
            assert_eq!(against(&same), [true; 2]);
            assert_eq!(against(&moved), [false; 2]);
        }
    }

    #[test]
    fn netlist_fingerprint_tracks_content() {
        let a = inverter_pair(["a", "mid", "q", "vdd"]);
        let b = inverter_pair(["a", "mid", "q", "vdd"]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let renamed = inverter_pair(["a2", "mid", "q", "vdd"]);
        assert_ne!(a.fingerprint(), renamed.fingerprint());
    }

    fn decode(bytes: &[u8]) -> Result<Netlist, DecodeError> {
        let mut d = Dec::new(bytes);
        let netlist = Netlist::decode(&mut d)?;
        assert!(d.is_done(), "decode left trailing bytes");
        Ok(netlist)
    }

    #[test]
    fn decoding_reads_back_the_netlist_and_its_fingerprint() {
        for seed in 0..200 {
            let n = seeded_netlist(seed);
            let mut e = silc_geom::Enc::new();
            n.encode(&mut e);
            let bytes = e.into_bytes();
            let back = decode(&bytes).unwrap();
            assert_eq!(back, n, "seed {seed}");
            assert_eq!(back.fingerprint(), n.fingerprint(), "seed {seed}");
            if seed < 4 {
                for cut in 0..bytes.len() {
                    assert!(decode(&bytes[..cut]).is_err(), "seed {seed}, cut {cut}");
                }
            }
        }
    }

    /// The stream of a netlist `t` with `nets`, and one `enh` instance
    /// per `(name, net id)` whose gate is that net.
    fn stream(nets: &[&str], instances: &[(&str, u32)]) -> Vec<u8> {
        let mut h = FpHasher::buffer();
        h.write_str("t");
        h.write_len(nets.len());
        nets.iter().for_each(|n| h.write_str(n));
        h.write_len(instances.len());
        for (name, net) in instances {
            h.write_str(name);
            h.write_str("enh");
            h.write_len(1);
            h.write_str("gate");
            h.write_u32(*net);
        }
        h.into_bytes()
    }

    #[test]
    fn streams_no_netlist_writes_are_refused() {
        assert!(decode(&stream(&["a", "b"], &[("i", 1), ("j", 0)])).is_ok());
        let refused = [
            (stream(&["a", "a"], &[]), "name `a` already used"),
            (stream(&["a"], &[("i", 1)]), "unknown net id 1"),
            (
                stream(&["a"], &[("i", u32::MAX)]),
                "unknown net id 4294967295",
            ),
            (
                stream(&["a"], &[("i", 0), ("i", 0)]),
                "name `i` already used",
            ),
        ];
        for (bytes, error) in refused {
            assert_eq!(decode(&bytes).unwrap_err(), error);
        }
    }

    #[test]
    fn display_dumps_connections() {
        let n = inverter_pair(["a", "mid", "q", "vdd"]);
        let s = n.to_string();
        assert!(s.contains("pd1 enh(gate=a, drn=mid)"));
        assert!(s.contains("4 instances"));
    }
}
