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

use silc_geom::{Fingerprint, FpHasher};
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
        let name = name.into();
        if self.instance_names.contains_key(&name) {
            return Err(NetlistError::DuplicateName { name });
        }
        for &(_, net) in connections {
            if net.raw() as usize >= self.nets.len() {
                return Err(NetlistError::UnknownNet { id: net });
            }
        }
        let id = InstanceId(self.instances.len() as u32);
        self.instance_names.insert(name.clone(), id);
        self.instances.push(Instance {
            name,
            kind: kind.into(),
            connections: connections
                .iter()
                .map(|&(p, n)| (p.to_string(), n))
                .collect(),
        });
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
    /// fixpoint** and returns the sorted multiset of instance labels. Two
    /// netlists with equal signatures are structurally identical up to
    /// renaming for all practical layouts (the refinement is not a
    /// complete isomorphism test, but distinguishes everything the
    /// extractor produces, including long chains whose ends a
    /// fixed-round refinement cannot see).
    pub fn isomorphic_signature(&self) -> Vec<String> {
        self.refined_signature(None)
    }

    /// Label refinement driving [`isomorphic_signature`]. Each round
    /// relabels instances from their nets' labels and nets from their
    /// instances' labels, chaining the previous label so classes only
    /// ever split; labels are compressed to fixed-size content hashes so
    /// round cost stays linear. With `rounds: None` refinement runs until
    /// the partition stops splitting (at most `nets + instances` rounds);
    /// `Some(k)` stops after exactly `k` rounds (used by tests to pin the
    /// shallow-refinement failure mode).
    ///
    /// [`isomorphic_signature`]: Netlist::isomorphic_signature
    fn refined_signature(&self, rounds: Option<usize>) -> Vec<String> {
        fn compress(raw: &str) -> String {
            let mut h = FpHasher::new();
            h.write_str(raw);
            h.finish().to_hex()
        }
        fn class_count(labels: &[String]) -> usize {
            labels.iter().collect::<HashSet<_>>().len()
        }
        // Initial net labels: sorted multiset of (kind, port) pins.
        let mut net_labels: Vec<String> = vec![String::new(); self.nets.len()];
        for (ni, label) in net_labels.iter_mut().enumerate() {
            let mut pins: Vec<String> = self
                .instances
                .iter()
                .flat_map(|inst| {
                    inst.connections
                        .iter()
                        .filter(|(_, n)| n.raw() as usize == ni)
                        .map(|(p, _)| format!("{}:{}", inst.kind, p))
                })
                .collect();
            pins.sort();
            *label = compress(&pins.join(","));
        }
        let max_rounds = rounds.unwrap_or(self.nets.len() + self.instances.len() + 1);
        let mut inst_labels: Vec<String> = vec![String::new(); self.instances.len()];
        let mut prev_classes = 0;
        for _ in 0..max_rounds {
            for (ii, inst) in self.instances.iter().enumerate() {
                let mut parts: Vec<String> = inst
                    .connections
                    .iter()
                    .map(|(p, n)| format!("{p}={}", net_labels[n.raw() as usize]))
                    .collect();
                parts.sort();
                let raw = format!("{}|{}({})", inst_labels[ii], inst.kind, parts.join(";"));
                inst_labels[ii] = compress(&raw);
            }
            let mut next_nets = net_labels.clone();
            for (ni, label) in next_nets.iter_mut().enumerate() {
                let mut pins: Vec<String> = Vec::new();
                for (ii, inst) in self.instances.iter().enumerate() {
                    for (p, n) in &inst.connections {
                        if n.raw() as usize == ni {
                            pins.push(format!("{}@{}", p, inst_labels[ii]));
                        }
                    }
                }
                pins.sort();
                *label = compress(&format!("{}|{}", net_labels[ni], pins.join(",")));
            }
            net_labels = next_nets;
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
        inst_labels.sort();
        inst_labels
    }

    /// Structural equality up to renaming, via
    /// [`isomorphic_signature`](Netlist::isomorphic_signature).
    pub fn structurally_matches(&self, other: &Netlist) -> bool {
        self.instances.len() == other.instances.len()
            && self.nets_with_pins() == other.nets_with_pins()
            && self.isomorphic_signature() == other.isomorphic_signature()
    }

    fn nets_with_pins(&self) -> usize {
        (0..self.nets.len())
            .filter(|&ni| self.fanout(NetId(ni as u32)) > 0)
            .count()
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

    #[test]
    fn netlist_fingerprint_tracks_content() {
        let a = inverter_pair(["a", "mid", "q", "vdd"]);
        let b = inverter_pair(["a", "mid", "q", "vdd"]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let renamed = inverter_pair(["a2", "mid", "q", "vdd"]);
        assert_ne!(a.fingerprint(), renamed.fingerprint());
    }

    #[test]
    fn display_dumps_connections() {
        let n = inverter_pair(["a", "mid", "q", "vdd"]);
        let s = n.to_string();
        assert!(s.contains("pd1 enh(gate=a, drn=mid)"));
        assert!(s.contains("4 instances"));
    }
}
