//! Transistor netlist → cube network: recovers the logic function of a
//! ratioed nMOS netlist by pulldown-path enumeration.
//!
//! The model matches the compiler's cell vocabulary (`silc-pnr` leaf
//! cells, `silc-extract` recovered netlists): a net with a depletion
//! pullup is a *logic node* whose value is the complement of its
//! pulldown network — 1 unless some series path of conducting
//! enhancement transistors reaches `gnd`. Each path contributes one
//! product term (the AND of the gate nets along it); parallel paths sum;
//! the depletion load complements. That is exactly a complemented
//! [`Cover`] cone, so the whole netlist lowers to a [`Network`] and the
//! standard decision engine applies.
//!
//! Primary inputs are nets that only drive gates; `vdd`/`gnd` are
//! recognised by name, the names the cells' rail ports give their nets.
//! Every pulled-up net becomes an output (extraction preserves net names
//! through place-and-route, so both sides of an LVS-style comparison
//! expose the same names).

use crate::network::{Network, NodeId};
use crate::VerifyError;
use silc_logic::{Cover, Cube, Lit};
use silc_netlist::{NetId, Netlist};
use std::collections::{BTreeMap, HashMap};

/// Power rail names recognised in netlists.
const VDD: &str = "vdd";
const GND: &str = "gnd";

/// Caps the number of pulldown paths enumerated per logic node.
const MAX_PATHS: usize = 4096;

struct Transistor {
    gate: NetId,
    src: NetId,
    drn: NetId,
}

/// Lowers a ratioed nMOS transistor netlist to a cube network.
///
/// # Errors
///
/// * [`VerifyError::Malformed`] — an instance is not an `enh`/`dep`
///   transistor with `gate`/`src`/`drn` pins, a rail is missing, or a
///   depletion load is wired to neither rail convention;
/// * [`VerifyError::Unsupported`] — the logic is cyclic (feedback);
/// * [`VerifyError::TooLarge`] — a pulldown network exceeds the path
///   cap.
pub fn network_from_netlist(netlist: &Netlist) -> Result<Network, VerifyError> {
    let vdd = netlist.net_by_name(VDD);
    let gnd = netlist
        .net_by_name(GND)
        .ok_or_else(|| VerifyError::Malformed {
            detail: format!("netlist `{}` has no `{GND}` net", netlist.name()),
        })?;

    let pin = |inst: &silc_netlist::Instance, port: &str| -> Result<NetId, VerifyError> {
        inst.connections
            .iter()
            .find(|(p, _)| p == port)
            .map(|&(_, id)| id)
            .ok_or_else(|| VerifyError::Malformed {
                detail: format!("instance `{}` has no `{port}` pin", inst.name),
            })
    };

    // Partition devices: enhancement pulldowns vs depletion loads.
    let mut enh: Vec<Transistor> = Vec::new();
    let mut pulled_up: BTreeMap<NetId, String> = BTreeMap::new();
    for inst in netlist.instances() {
        match inst.kind.as_str() {
            "enh" => enh.push(Transistor {
                gate: pin(inst, "gate")?,
                src: pin(inst, "src")?,
                drn: pin(inst, "drn")?,
            }),
            "dep" => {
                // A load connects the output between src/drn, the other
                // terminal on vdd (gate is tied back to the output).
                let src = pin(inst, "src")?;
                let drn = pin(inst, "drn")?;
                let out = if Some(drn) == vdd {
                    src
                } else if Some(src) == vdd {
                    drn
                } else {
                    return Err(VerifyError::Malformed {
                        detail: format!("depletion load `{}` touches no `{VDD}` rail", inst.name),
                    });
                };
                pulled_up.insert(out, netlist.net_name(out).to_string());
            }
            other => {
                return Err(VerifyError::Malformed {
                    detail: format!(
                        "instance `{}` has kind `{other}`, expected a transistor",
                        inst.name
                    ),
                })
            }
        }
    }

    // Adjacency over enhancement channels.
    let mut channels: HashMap<NetId, Vec<usize>> = HashMap::new();
    for (i, t) in enh.iter().enumerate() {
        channels.entry(t.src).or_default().push(i);
        channels.entry(t.drn).or_default().push(i);
    }

    // Primary inputs: nets observed only at gates (never pulled up,
    // never a rail, never in a channel path), in net order.
    let mut inputs: Vec<NetId> = enh.iter().map(|t| t.gate).collect();
    inputs.sort_unstable();
    inputs.dedup();
    inputs.retain(|&id| {
        let is_rail = Some(id) == vdd || id == gnd;
        !is_rail && !channels.contains_key(&id) && !pulled_up.contains_key(&id)
    });

    let mut net = Network::new();
    let mut node_of: HashMap<NetId, NodeId> = HashMap::new();
    for &id in &inputs {
        let node = net.add_input(netlist.net_name(id).to_string());
        node_of.insert(id, node);
    }

    // Build cones bottom-up with an explicit visit stack for cycle
    // detection.
    let mut in_progress: Vec<NetId> = Vec::new();
    let outputs: Vec<NetId> = pulled_up.keys().copied().collect();
    for &out in &outputs {
        build_node(
            out,
            netlist,
            &enh,
            &channels,
            gnd,
            vdd,
            &pulled_up,
            &mut net,
            &mut node_of,
            &mut in_progress,
        )?;
    }
    for &out in &outputs {
        net.mark_output(netlist.net_name(out).to_string(), node_of[&out]);
    }
    Ok(net)
}

/// One enumerated pulldown path: the gate nets in series along it.
type Path = Vec<NetId>;

#[allow(clippy::too_many_arguments)]
fn build_node(
    target: NetId,
    netlist: &Netlist,
    enh: &[Transistor],
    channels: &HashMap<NetId, Vec<usize>>,
    gnd: NetId,
    vdd: Option<NetId>,
    pulled_up: &BTreeMap<NetId, String>,
    net: &mut Network,
    node_of: &mut HashMap<NetId, NodeId>,
    in_progress: &mut Vec<NetId>,
) -> Result<NodeId, VerifyError> {
    if let Some(&id) = node_of.get(&target) {
        return Ok(id);
    }
    if in_progress.contains(&target) {
        return Err(VerifyError::Unsupported {
            detail: format!(
                "combinational cycle through net `{}`",
                netlist.net_name(target)
            ),
        });
    }
    in_progress.push(target);

    // Enumerate series paths from the output to gnd.
    let mut paths: Vec<Path> = Vec::new();
    let mut visited: Vec<NetId> = vec![target];
    walk_paths(
        target,
        gnd,
        vdd,
        enh,
        channels,
        &mut visited,
        &mut Vec::new(),
        &mut vec![false; enh.len()],
        &mut paths,
    )?;

    // Distinct gate nets, stable order of first appearance, become the
    // cone's fanins; gates tied to rails fold into constants.
    let mut fanin_nets: Vec<NetId> = Vec::new();
    for path in &paths {
        for &g in path {
            if !fanin_nets.contains(&g) {
                fanin_nets.push(g);
            }
        }
    }
    let mut fanins: Vec<NodeId> = Vec::with_capacity(fanin_nets.len());
    for &g in &fanin_nets {
        let id = if pulled_up.contains_key(&g) {
            build_node(
                g,
                netlist,
                enh,
                channels,
                gnd,
                vdd,
                pulled_up,
                net,
                node_of,
                in_progress,
            )?
        } else {
            node_of
                .get(&g)
                .copied()
                .ok_or_else(|| VerifyError::Malformed {
                    detail: format!(
                        "net `{}` drives a gate but is neither an input nor a logic node",
                        netlist.net_name(g)
                    ),
                })?
        };
        fanins.push(id);
    }

    let width = fanin_nets.len();
    let mut cubes: Vec<Cube> = Vec::new();
    for path in &paths {
        let mut cube = Cube::universe(width);
        for &g in path {
            let pos = fanin_nets.iter().position(|&f| f == g).expect("collected");
            cube = cube.with_lit(pos, Lit::One);
        }
        cubes.push(cube);
    }
    let mut cover = Cover::from_cubes(width, cubes).map_err(|e| VerifyError::Malformed {
        detail: e.to_string(),
    })?;
    cover.remove_single_cube_contained();
    // value = NOT (some path conducts): the depletion load wins only
    // when the pulldown network is open.
    let id = net.add_cone(fanins, cover, true)?;

    in_progress.pop();
    node_of.insert(target, id);
    Ok(id)
}

/// Depth-first series-path enumeration from `from` toward `gnd` over
/// enhancement channels. `gates` accumulates the gate nets of the
/// devices along the current path; a gate tied to `vdd` is always
/// conducting (dropped from the product), one tied to `gnd` kills the
/// path.
#[allow(clippy::too_many_arguments)]
fn walk_paths(
    from: NetId,
    gnd: NetId,
    vdd: Option<NetId>,
    enh: &[Transistor],
    channels: &HashMap<NetId, Vec<usize>>,
    visited: &mut Vec<NetId>,
    gates: &mut Vec<NetId>,
    used: &mut Vec<bool>,
    paths: &mut Vec<Path>,
) -> Result<(), VerifyError> {
    if from == gnd {
        paths.push(gates.clone());
        if paths.len() > MAX_PATHS {
            return Err(VerifyError::TooLarge {
                cubes: paths.len(),
                cap: MAX_PATHS,
            });
        }
        return Ok(());
    }
    let Some(device_ids) = channels.get(&from) else {
        return Ok(());
    };
    for &d in device_ids {
        if used[d] {
            continue;
        }
        let t = &enh[d];
        let next = if t.src == from { t.drn } else { t.src };
        if Some(next) == vdd || (next != gnd && visited.contains(&next)) {
            continue;
        }
        if t.gate == gnd {
            continue; // never conducts
        }
        used[d] = true;
        let pushed_gate = Some(t.gate) != vdd; // vdd gate: always on
        if pushed_gate {
            gates.push(t.gate);
        }
        visited.push(next);
        walk_paths(next, gnd, vdd, enh, channels, visited, gates, used, paths)?;
        visited.pop();
        if pushed_gate {
            gates.pop();
        }
        used[d] = false;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{check_equivalence_traced, Options};
    use silc_trace::Tracer;

    fn inverter() -> Netlist {
        let mut n = Netlist::new("inv");
        let (inn, out) = (n.add_net("in"), n.add_net("out"));
        let (vdd, gnd) = (n.add_net("vdd"), n.add_net("gnd"));
        n.add_instance("pu", "dep", &[("gate", out), ("src", out), ("drn", vdd)])
            .unwrap();
        n.add_instance("pd", "enh", &[("gate", inn), ("src", gnd), ("drn", out)])
            .unwrap();
        n
    }

    #[test]
    fn inverter_recovers_not() {
        let net = network_from_netlist(&inverter()).unwrap();
        assert_eq!(net.input_names(), ["in"]);
        assert_eq!(net.outputs().len(), 1);
        let v = net.eval64(&[0b10]);
        let out = v[net.outputs()[0].1.index()];
        assert_eq!(out & 0b11, 0b01);
    }

    #[test]
    fn nor2_and_series_nand() {
        // NOR: two parallel pulldowns. NAND: two in series.
        let mut n = Netlist::new("gates");
        let a = n.add_net("a");
        let b = n.add_net("b");
        let nor = n.add_net("nor");
        let nand = n.add_net("nand");
        let mid = n.add_net("mid");
        let vdd = n.add_net("vdd");
        let gnd = n.add_net("gnd");
        n.add_instance("l1", "dep", &[("gate", nor), ("src", nor), ("drn", vdd)])
            .unwrap();
        n.add_instance("p1", "enh", &[("gate", a), ("src", gnd), ("drn", nor)])
            .unwrap();
        n.add_instance("p2", "enh", &[("gate", b), ("src", gnd), ("drn", nor)])
            .unwrap();
        n.add_instance("l2", "dep", &[("gate", nand), ("src", nand), ("drn", vdd)])
            .unwrap();
        n.add_instance("s1", "enh", &[("gate", a), ("src", mid), ("drn", nand)])
            .unwrap();
        n.add_instance("s2", "enh", &[("gate", b), ("src", gnd), ("drn", mid)])
            .unwrap();
        let net = network_from_netlist(&n).unwrap();
        assert_eq!(net.input_names(), ["a", "b"]);
        assert_eq!(net.outputs().len(), 2);
        for m in 0..4u64 {
            let (a_v, b_v) = (m & 2 != 0, m & 1 != 0);
            let values = net.eval64(&[u64::from(a_v), u64::from(b_v)]);
            for (name, id) in net.outputs() {
                let want = match name.as_str() {
                    "nor" => !(a_v || b_v),
                    "nand" => !(a_v && b_v),
                    other => panic!("unexpected output `{other}`"),
                };
                let got = values[id.index()] & 1 == 1;
                assert_eq!(got, want, "net {name} at a={a_v} b={b_v}");
            }
        }
    }

    #[test]
    fn chained_gates_build_multilevel_cones() {
        // inv(a) feeding a NOR with b: out = !(!a + b) = a·!b.
        let mut n = Netlist::new("chain");
        let a = n.add_net("a");
        let b = n.add_net("b");
        let na = n.add_net("na");
        let out = n.add_net("out");
        let vdd = n.add_net("vdd");
        let gnd = n.add_net("gnd");
        n.add_instance("l1", "dep", &[("gate", na), ("src", na), ("drn", vdd)])
            .unwrap();
        n.add_instance("t1", "enh", &[("gate", a), ("src", gnd), ("drn", na)])
            .unwrap();
        n.add_instance("l2", "dep", &[("gate", out), ("src", out), ("drn", vdd)])
            .unwrap();
        n.add_instance("t2", "enh", &[("gate", na), ("src", gnd), ("drn", out)])
            .unwrap();
        n.add_instance("t3", "enh", &[("gate", b), ("src", gnd), ("drn", out)])
            .unwrap();
        let net = network_from_netlist(&n).unwrap();
        for m in 0..4u64 {
            let a_v = m & 2 != 0;
            let b_v = m & 1 != 0;
            let words: Vec<u64> = net
                .input_names()
                .iter()
                .map(|name| u64::from(if name == "a" { a_v } else { b_v }))
                .collect();
            let values = net.eval64(&words);
            let (_, id) = net.outputs().iter().find(|(nm, _)| nm == "out").unwrap();
            assert_eq!(values[id.index()] & 1 == 1, a_v && !b_v, "a={a_v} b={b_v}");
        }
    }

    #[test]
    fn netlist_vs_itself_is_equivalent() {
        let net = network_from_netlist(&inverter()).unwrap();
        let r =
            check_equivalence_traced(&net, &net.clone(), &Options::default(), &Tracer::disabled())
                .unwrap();
        assert!(r.equivalent);
    }

    #[test]
    fn mutated_netlist_is_refuted() {
        // Reference inverter vs a "stuck" variant whose pulldown gate is
        // wired to gnd (output stuck at 1).
        let spec = network_from_netlist(&inverter()).unwrap();
        let mut broken = Netlist::new("inv");
        let inn = broken.add_net("in");
        let out = broken.add_net("out");
        let vdd = broken.add_net("vdd");
        let gnd = broken.add_net("gnd");
        broken
            .add_instance("pu", "dep", &[("gate", out), ("src", out), ("drn", vdd)])
            .unwrap();
        broken
            .add_instance("pd", "enh", &[("gate", gnd), ("src", gnd), ("drn", out)])
            .unwrap();
        // `in` no longer drives any gate: interfaces differ, which is
        // itself a detected mismatch (an error, not a false pass).
        let _ = inn;
        let got = network_from_netlist(&broken).unwrap();
        let err = check_equivalence_traced(&got, &spec, &Options::default(), &Tracer::disabled())
            .unwrap_err();
        assert!(matches!(err, VerifyError::InputMismatch { .. }));
    }

    #[test]
    fn missing_ground_rail_rejected() {
        // The inverter with its ground net named otherwise.
        let mut n = Netlist::new("inv");
        let (inn, out) = (n.add_net("in"), n.add_net("out"));
        let (vdd, vss) = (n.add_net("vdd"), n.add_net("vss"));
        n.add_instance("pu", "dep", &[("gate", out), ("src", out), ("drn", vdd)])
            .unwrap();
        n.add_instance("pd", "enh", &[("gate", inn), ("src", vss), ("drn", out)])
            .unwrap();
        let err = network_from_netlist(&n).unwrap_err();
        assert!(
            matches!(&err, VerifyError::Malformed { detail } if detail.contains("`gnd`")),
            "{err}"
        );
    }

    #[test]
    fn non_transistor_kind_rejected() {
        let mut n = Netlist::new("bad");
        let a = n.add_net("a");
        let gnd = n.add_net("gnd");
        n.add_instance("g", "nand2", &[("a", a), ("y", gnd)])
            .unwrap();
        let err = network_from_netlist(&n).unwrap_err();
        assert!(matches!(err, VerifyError::Malformed { .. }), "{err}");
    }
}
