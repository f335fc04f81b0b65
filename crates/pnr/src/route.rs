//! Per-net gridded maze routing with negotiated-congestion
//! rip-up-and-reroute.
//!
//! Because every route is built from via-pad-sized shapes centred on
//! track crossings at a pitch that clears every spacing rule, two nets
//! can only ever conflict by claiming the *same* crossing on the same
//! stack layer. Routing therefore reduces to node-disjoint path search
//! over the `(layer, col, row)` grid: cell geometry statically blocks
//! nodes (checked against the exact DRC predicates via the
//! [`ObstructionMap`]), while other nets' routes are *soft* obstacles —
//! usable at a congestion cost that escalates each round, plus a
//! history cost on every node that stays contested.
//!
//! Rounds proceed PathFinder-style: every net that is unrouted or
//! shares a node re-searches against the round-start usage map; the
//! round ends by recomputing sharing and deepening history on contested
//! nodes. The process converges when no node is shared. All bookkeeping
//! is in net-id order, so a netlist always routes to the same bytes.
//!
//! A net whose pins are disconnected by cell geometry alone fails its
//! search outright; a stuck negotiation runs out of rounds. Both
//! report [`PnrError::Unroutable`] with the net, layer and track where
//! routing gave up.

use crate::grid::ObstructionMap;
use crate::place::Placement;
use crate::stack::RouteStack;
use crate::PnrError;
use silc_geom::Rect;
use silc_layout::Layer;
use silc_trace::Tracer;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap};

/// Negotiation rounds allowed before routing is declared stuck.
pub const MAX_RIPUP_ROUNDS: u64 = 256;

/// The routing grid's node space: `(layer, col, row)` packed to `u32`.
#[derive(Debug, Clone, Copy)]
struct Grid {
    cols: i64,
    rows: i64,
    layers: usize,
}

impl Grid {
    fn len(&self) -> usize {
        self.layers * (self.cols * self.rows) as usize
    }
    fn idx(&self, l: usize, c: i64, r: i64) -> u32 {
        ((l as i64 * self.rows + r) * self.cols + c) as u32
    }
    fn decode(&self, idx: u32) -> (usize, i64, i64) {
        let idx = idx as i64;
        let c = idx % self.cols;
        let r = (idx / self.cols) % self.rows;
        let l = idx / (self.cols * self.rows);
        (l as usize, c, r)
    }
}

/// One net to route.
#[derive(Debug, Clone)]
struct NetTask {
    net: u32,
    name: String,
    /// Pin crossings, sorted.
    pins: Vec<(i64, i64)>,
    /// Stack layer the pins sit on (the metal layer).
    pin_layer: usize,
}

/// A complete routed tree for one net.
#[derive(Debug, Clone)]
struct NetRoute {
    /// One node path per pin-to-tree connection.
    segments: Vec<Vec<(usize, i64, i64)>>,
    /// Every node the tree occupies; via sites occupy both layers.
    nodes: BTreeSet<u32>,
    nodes_expanded: u64,
}

/// Where a failed search gave up (its most promising frontier node).
#[derive(Debug, Clone, Copy)]
struct FailInfo {
    layer: usize,
    col: i64,
    row: i64,
}

/// Routed tree geometry: per-mask-layer rects plus counters.
pub(crate) struct NetGeometry {
    pub rects: Vec<(Layer, Rect)>,
    pub wirelength: u64,
    pub vias: u64,
}

/// One routed path: (layer, col, row) steps on the track grid.
pub(crate) type RoutedPath = Vec<(usize, i64, i64)>;

/// Routing outcome over a whole placement.
pub(crate) struct RouteOutcome {
    /// Per net (id order): the segments routed for it.
    pub committed: BTreeMap<u32, Vec<RoutedPath>>,
    pub rounds: u64,
    pub ripup_rounds: u64,
    pub nodes_expanded: u64,
}

/// Renders one net's segments to mask geometry.
pub(crate) fn net_geometry(stack: &RouteStack, segments: &[Vec<(usize, i64, i64)>]) -> NetGeometry {
    let mut rects = Vec::new();
    let mut wirelength = 0u64;
    let mut vias = 0u64;
    for path in segments {
        // Maximal same-layer runs become wire rects.
        let mut start = 0usize;
        for i in 0..path.len() {
            let end_of_run = i + 1 == path.len() || path[i + 1].0 != path[i].0;
            if end_of_run {
                let (l, c1, r1) = path[start];
                let (_, c2, r2) = path[i];
                rects.push((stack.layers[l].layer, stack.run_rect(l, c1, r1, c2, r2)));
                start = i + 1;
            }
            if i + 1 < path.len() {
                let (la, ca, ra) = path[i];
                let (lb, cb, rb) = path[i + 1];
                if la != lb {
                    // Layer change: cut plus a landing pad on each layer.
                    vias += 1;
                    rects.push((stack.via.cut_layer, stack.cut_rect(ca, ra)));
                    for l in [la, lb] {
                        rects.push((stack.layers[l].layer, stack.pad_rect(ca, ra)));
                    }
                } else {
                    wirelength += (stack.pitch * ((ca - cb).abs() + (ra - rb).abs())) as u64;
                }
            }
        }
    }
    NetGeometry {
        rects,
        wirelength,
        vias,
    }
}

/// Per-round congestion state the searches read.
struct Congestion {
    /// Node → nets currently routed through it (id order).
    users: HashMap<u32, Vec<u32>>,
    /// Node → accumulated rounds it has spent contested.
    history: HashMap<u32, u64>,
    /// Escalating weight applied to present sharing this round.
    pressure: u64,
    /// Node → the only net allowed on it (forced pin accesses).
    reserved: HashMap<u32, u32>,
}

/// Whether `node` has any legal move leading somewhere other than
/// `pin` — i.e. whether it connects the pin to the rest of the grid
/// rather than dead-ending inside the cell (the node over the gate
/// between a cell's two contacts is legal for metal but leads
/// nowhere).
fn has_onward(
    grid: Grid,
    stack: &RouteStack,
    obs: &ObstructionMap,
    net: u32,
    node: u32,
    pin: u32,
) -> bool {
    let (l, c, r) = grid.decode(node);
    let (dc, dr) = match stack.layers[l].dir {
        crate::stack::Dir::Horiz => (1i64, 0i64),
        crate::stack::Dir::Vert => (0, 1),
    };
    for sign in [-1i64, 1] {
        let (nc, nr) = (c + dc * sign, r + dr * sign);
        if nc < 0 || nc >= grid.cols || nr < 0 || nr >= grid.rows {
            continue;
        }
        if grid.idx(l, nc, nr) != pin && obs.can_occupy(stack, l, nc, nr, net) {
            return true;
        }
    }
    if obs.can_via(stack, c, r, net) {
        for l2 in 0..grid.layers {
            if l2 != l && grid.idx(l2, c, r) != pin {
                return true;
            }
        }
    }
    false
}

/// Legal moves for `net` out of `cur`, skipping nodes already walked,
/// nodes reserved for other nets, and dead ends.
fn open_moves(
    grid: Grid,
    stack: &RouteStack,
    obs: &ObstructionMap,
    net: u32,
    cur: u32,
    visited: &BTreeSet<u32>,
    reserved: &HashMap<u32, u32>,
) -> Vec<u32> {
    let (l, c, r) = grid.decode(cur);
    let mut moves = Vec::new();
    let mut consider = |m: u32, legal: bool| {
        if legal
            && !visited.contains(&m)
            && reserved.get(&m).is_none_or(|&owner| owner == net)
            && has_onward(grid, stack, obs, net, m, cur)
        {
            moves.push(m);
        }
    };
    let (dc, dr) = match stack.layers[l].dir {
        crate::stack::Dir::Horiz => (1i64, 0i64),
        crate::stack::Dir::Vert => (0, 1),
    };
    for sign in [-1i64, 1] {
        let (nc, nr) = (c + dc * sign, r + dr * sign);
        if nc < 0 || nc >= grid.cols || nr < 0 || nr >= grid.rows {
            continue;
        }
        let legal = obs.can_occupy(stack, l, nc, nr, net);
        consider(grid.idx(l, nc, nr), legal);
    }
    if obs.can_via(stack, c, r, net) {
        for l2 in 0..grid.layers {
            if l2 != l {
                consider(grid.idx(l2, c, r), true);
            }
        }
    }
    moves
}

/// Reserves each pin's sole access node for its net.
///
/// A contact pin's crossing may be enterable by exactly one legal
/// move (source pins only from the west, drains only from the east:
/// the neighbouring gate pad and the diffusion under the contact
/// block everything else). Such a node is not negotiable — any other
/// net standing on it disconnects the pin outright, and a net camped
/// there traps congestion negotiation in a stable non-solution.
/// Reserving forced access nodes up front hard-blocks them for every
/// other net, the grid equivalent of a channel router's terminal
/// escapes. Returns the offending net and node on a double
/// reservation, which proves the placement unroutable.
fn reserve_pin_accesses(
    grid: Grid,
    stack: &RouteStack,
    obs: &ObstructionMap,
    tasks: &BTreeMap<u32, NetTask>,
) -> Result<HashMap<u32, u32>, (u32, FailInfo)> {
    let mut reserved: HashMap<u32, u32> = HashMap::new();
    // One net's forced chain can shrink another pin's choices to a
    // single move, so walk all pins repeatedly until nothing new is
    // claimed.
    loop {
        let mut changed = false;
        for task in tasks.values() {
            for &(c, r) in &task.pins {
                let pin = grid.idx(task.pin_layer, c, r);
                let mut visited = BTreeSet::from([pin]);
                let mut cur = pin;
                // Follow the chain of sole moves; a tree leaving this
                // pin must traverse every node on it.
                while let [only] =
                    open_moves(grid, stack, obs, task.net, cur, &visited, &reserved)[..]
                {
                    match reserved.insert(only, task.net) {
                        None => changed = true,
                        Some(prev) if prev != task.net => {
                            let (l, c, r) = grid.decode(only);
                            return Err((
                                task.net,
                                FailInfo {
                                    layer: l,
                                    col: c,
                                    row: r,
                                },
                            ));
                        }
                        Some(_) => {}
                    }
                    visited.insert(only);
                    cur = only;
                }
            }
        }
        if !changed {
            break;
        }
    }
    Ok(reserved)
}

impl Congestion {
    /// Congestion surcharge for `net` standing on `node`.
    fn penalty(&self, node: u32, net: u32) -> u64 {
        let others = self
            .users
            .get(&node)
            .map(|u| u.iter().filter(|&&n| n != net).count() as u64)
            .unwrap_or(0);
        let hist = self.history.get(&node).copied().unwrap_or(0);
        others * self.pressure + hist
    }

    /// Whether `net` may stand on `node` at all (reservation check).
    fn allows(&self, node: u32, net: u32) -> bool {
        self.reserved.get(&node).is_none_or(|&owner| owner == net)
    }
}

/// Multi-source A* from `tree` to `target` for `task.net`.
///
/// Moves are direction-legal steps along a layer's tracks plus vias at
/// crossings; every move is validated against the *static* obstruction
/// map (cell geometry), while other nets' routes only surcharge the
/// cost via [`Congestion::penalty`]. The heuristic (grid manhattan
/// distance plus one via if on the wrong layer) never exceeds the real
/// base cost, so it stays admissible under the surcharges.
#[allow(clippy::too_many_arguments)]
fn astar(
    grid: Grid,
    stack: &RouteStack,
    obs: &ObstructionMap,
    congestion: &Congestion,
    net: u32,
    tree: &BTreeSet<u32>,
    target: u32,
    expanded: &mut u64,
) -> Result<Vec<(usize, i64, i64)>, FailInfo> {
    const UNSEEN: u64 = u64::MAX;
    let via_cost = (stack.pitch + 5) as u64;
    let (tl, tc, tr) = grid.decode(target);
    let h = |l: usize, c: i64, r: i64| -> u64 {
        let manhattan = ((c - tc).abs() + (r - tr).abs()) as u64 * stack.pitch as u64;
        manhattan + if l != tl { via_cost } else { 0 }
    };

    let mut dist = vec![UNSEEN; grid.len()];
    let mut parent = vec![u32::MAX; grid.len()];
    // Static-legality caches: -1 unknown, else the answer.
    let mut occ_ok = vec![-1i8; grid.len()];
    let mut via_ok = vec![-1i8; (grid.cols * grid.rows) as usize];
    let mut can_occupy = |obs: &ObstructionMap, idx: u32| -> bool {
        let cached = occ_ok[idx as usize];
        if cached >= 0 {
            return cached == 1;
        }
        let (l, c, r) = grid.decode(idx);
        let ok = obs.can_occupy(stack, l, c, r, net);
        occ_ok[idx as usize] = ok as i8;
        ok
    };

    let mut heap: BinaryHeap<std::cmp::Reverse<(u64, u64, u32)>> = BinaryHeap::new();
    for &n in tree {
        let (l, c, r) = grid.decode(n);
        dist[n as usize] = 0;
        heap.push(std::cmp::Reverse((h(l, c, r), 0, n)));
    }

    // Most promising frontier node seen, for failure context.
    let mut best = (u64::MAX, tl, tc, tr);

    while let Some(std::cmp::Reverse((_, g, node))) = heap.pop() {
        if dist[node as usize] < g {
            continue;
        }
        if node == target {
            // Walk parents back to the tree.
            let mut path = vec![grid.decode(node)];
            let mut cur = node;
            while parent[cur as usize] != u32::MAX {
                cur = parent[cur as usize];
                path.push(grid.decode(cur));
            }
            path.reverse();
            return Ok(path);
        }
        *expanded += 1;
        let (l, c, r) = grid.decode(node);
        let hn = h(l, c, r);
        if hn < best.0 {
            best = (hn, l, c, r);
        }

        let relax = |heap: &mut BinaryHeap<std::cmp::Reverse<(u64, u64, u32)>>,
                     dist: &mut Vec<u64>,
                     parent: &mut Vec<u32>,
                     next: u32,
                     cost: u64| {
            let g2 = g + cost;
            if g2 < dist[next as usize] {
                dist[next as usize] = g2;
                parent[next as usize] = node;
                let (nl, nc, nr) = grid.decode(next);
                heap.push(std::cmp::Reverse((g2 + h(nl, nc, nr), g2, next)));
            }
        };

        // Track steps along the layer's direction.
        let (dc, dr) = match stack.layers[l].dir {
            crate::stack::Dir::Horiz => (1i64, 0i64),
            crate::stack::Dir::Vert => (0, 1),
        };
        for sign in [-1i64, 1] {
            let (nc, nr) = (c + dc * sign, r + dr * sign);
            if nc < 0 || nc >= grid.cols || nr < 0 || nr >= grid.rows {
                continue;
            }
            let next = grid.idx(l, nc, nr);
            if !can_occupy(obs, next) || !congestion.allows(next, net) {
                continue;
            }
            let cost = stack.pitch as u64 + congestion.penalty(next, net);
            relax(&mut heap, &mut dist, &mut parent, next, cost);
        }
        // Vias to adjacent stack layers. A via occupies the crossing on
        // both layers, but each node's surcharge is paid exactly once
        // along a path: entering charged this node, the transition
        // charges the partner only. (Charging the current node again
        // here would make every detour that vias next to a contested
        // node strictly pricier than routing through it, and
        // negotiation would never converge.)
        for l2 in [l.wrapping_sub(1), l + 1] {
            if l2 >= grid.layers {
                continue;
            }
            let flat = (r * grid.cols + c) as usize;
            let ok = if via_ok[flat] >= 0 {
                via_ok[flat] == 1
            } else {
                let ok = obs.can_via(stack, c, r, net);
                via_ok[flat] = ok as i8;
                ok
            };
            if !ok {
                continue;
            }
            let next = grid.idx(l2, c, r);
            if !congestion.allows(next, net) {
                continue;
            }
            let cost = via_cost + congestion.penalty(next, net);
            relax(&mut heap, &mut dist, &mut parent, next, cost);
        }
    }

    Err(FailInfo {
        layer: best.1,
        col: best.2,
        row: best.3,
    })
}

/// Routes one net completely: connects each pin in turn to the growing
/// tree.
fn route_net(
    grid: Grid,
    stack: &RouteStack,
    obs: &ObstructionMap,
    congestion: &Congestion,
    task: &NetTask,
) -> Result<NetRoute, FailInfo> {
    let mut nodes = BTreeSet::new();
    let first = grid.idx(task.pin_layer, task.pins[0].0, task.pins[0].1);
    nodes.insert(first);
    let mut segments = Vec::new();
    let mut expanded = 0u64;
    for &(pc, pr) in &task.pins[1..] {
        let target = grid.idx(task.pin_layer, pc, pr);
        if nodes.contains(&target) {
            continue;
        }
        let path = astar(
            grid,
            stack,
            obs,
            congestion,
            task.net,
            &nodes,
            target,
            &mut expanded,
        )?;
        for &(l, c, r) in &path {
            nodes.insert(grid.idx(l, c, r));
        }
        // Via sites occupy both layers even when the path only names
        // one: mark the partner node so sharing detection sees the
        // full footprint.
        for w in path.windows(2) {
            if w[0].0 != w[1].0 {
                for l in 0..grid.layers {
                    nodes.insert(grid.idx(l, w[0].1, w[0].2));
                }
            }
        }
        segments.push(path);
    }
    Ok(NetRoute {
        segments,
        nodes,
        nodes_expanded: expanded,
    })
}

/// Routes every multi-pin net of `netlist` over `placement`.
pub(crate) fn route_all(
    stack: &RouteStack,
    placement: &Placement,
    cell_rects: &[Vec<(Rect, u32)>],
    tracer: &Tracer,
) -> Result<RouteOutcome, PnrError> {
    let _span = tracer.span("pnr.route");
    let pin_layer = stack
        .layer_for_dir(crate::stack::Dir::Horiz)
        .ok_or_else(|| PnrError::BadStack {
            stack: stack.name.clone(),
            missing: "no horizontal routing layer for pins",
        })?;
    let grid = Grid {
        cols: placement.floorplan.grid_cols(),
        rows: placement.floorplan.grid_rows(),
        layers: stack.layers.len(),
    };

    // Gather pins per net.
    let mut pins_of: BTreeMap<u32, Vec<(i64, i64)>> = BTreeMap::new();
    let mut name_of: HashMap<u32, String> = HashMap::new();
    for cell in &placement.cells {
        for pin in &cell.pins {
            pins_of.entry(pin.net).or_default().push((pin.col, pin.row));
            name_of
                .entry(pin.net)
                .or_insert_with(|| pin.net_name.clone());
        }
    }
    let mut tasks: BTreeMap<u32, NetTask> = BTreeMap::new();
    for (net, mut pins) in pins_of {
        pins.sort_unstable();
        pins.dedup();
        if pins.len() < 2 {
            continue;
        }
        tasks.insert(
            net,
            NetTask {
                net,
                name: name_of[&net].clone(),
                pins,
                pin_layer,
            },
        );
    }

    // Cell geometry never changes during routing: one static map serves
    // every round.
    let obs = ObstructionMap::build(stack, cell_rects);
    let reserved = reserve_pin_accesses(grid, stack, &obs, &tasks)
        .map_err(|(net, fail)| unroutable(&tasks[&net], stack, fail, 0))?;

    let mut routes: BTreeMap<u32, NetRoute> = BTreeMap::new();
    let mut congestion = Congestion {
        users: HashMap::new(),
        history: HashMap::new(),
        pressure: 0,
        reserved,
    };
    let mut rounds = 1u64;
    let mut ripup_rounds = 0u64;
    let mut nodes_expanded = 0u64;

    // Round 1: every net searches against the empty usage map, and only
    // then are the routes committed. A failure here means cell geometry
    // alone disconnects the pins, which no amount of negotiation can fix.
    let results: Vec<_> = tasks
        .values()
        .map(|task| route_net(grid, stack, &obs, &congestion, task))
        .collect();
    for (task, result) in tasks.values().zip(results) {
        let route = result.map_err(|fail| unroutable(task, stack, fail, 0))?;
        nodes_expanded += route.nodes_expanded;
        for &n in &route.nodes {
            congestion.users.entry(n).or_default().push(task.net);
        }
        routes.insert(task.net, route);
    }

    // Negotiation rounds: serially re-route every net standing on a
    // contested node, updating the usage map immediately so each net
    // sees all earlier moves; then deepen history on nodes that are
    // still contested. Serial negotiation cannot oscillate in lockstep
    // the way simultaneous re-routing can.
    loop {
        let mut contested: Vec<u32> = routes
            .iter()
            .filter(|(_, r)| {
                r.nodes
                    .iter()
                    .any(|n| congestion.users.get(n).is_some_and(|u| u.len() > 1))
            })
            .map(|(&net, _)| net)
            .collect();
        if contested.is_empty() {
            break;
        }
        rounds += 1;
        if rounds > MAX_RIPUP_ROUNDS {
            // Negotiation is stuck: report the first contested net at
            // its first contested node.
            let task = &tasks[&contested[0]];
            let fail = routes[&contested[0]]
                .nodes
                .iter()
                .find(|n| congestion.users.get(n).is_some_and(|u| u.len() > 1))
                .map(|&n| {
                    let (l, c, r) = grid.decode(n);
                    FailInfo {
                        layer: l,
                        col: c,
                        row: r,
                    }
                })
                .unwrap_or(FailInfo {
                    layer: pin_layer,
                    col: task.pins[0].0,
                    row: task.pins[0].1,
                });
            return Err(unroutable(task, stack, fail, ripup_rounds));
        }
        ripup_rounds += 1;
        // Pressure (the price of standing on another net's node) ramps
        // up early rounds but is capped; history keeps growing without
        // bound. If both grew at the same rate a net camped on a
        // contested pinch point would never move — the detour through
        // someone else's territory stays proportionally as expensive as
        // camping forever. With pressure capped, the camped node's
        // history eventually dwarfs any finite detour and the tie
        // breaks.
        congestion.pressure = stack.pitch as u64 * rounds.min(16);
        // Rotate the re-route order every round. With a fixed order
        // the lowest-id contested net always moves first and vacates
        // the shared node before anyone else looks, so a net parked on
        // the victim's only corridor never feels the contention and
        // never concedes; rotation periodically makes the parked net
        // search while the corridor is still shared, and the
        // escalating pressure pushes it off.
        let shift = (rounds as usize) % contested.len();
        contested.rotate_left(shift);

        for net in contested {
            // Rip this net out of the usage map, re-search, put the new
            // route in.
            let old = routes.remove(&net).expect("contested nets are routed");
            for n in &old.nodes {
                if let Some(users) = congestion.users.get_mut(n) {
                    users.retain(|&u| u != net);
                }
            }
            let task = &tasks[&net];
            match route_net(grid, stack, &obs, &congestion, task) {
                Ok(route) => {
                    nodes_expanded += route.nodes_expanded;
                    for &n in &route.nodes {
                        congestion.users.entry(n).or_default().push(net);
                    }
                    routes.insert(net, route);
                }
                Err(fail) => return Err(unroutable(task, stack, fail, ripup_rounds)),
            }
        }

        // Deepen history wherever sharing survived this round. Bumps
        // are per-node and independent, so map iteration order does
        // not matter.
        let contested_nodes: Vec<u32> = congestion
            .users
            .iter()
            .filter(|(_, u)| u.len() > 1)
            .map(|(&n, _)| n)
            .collect();
        for n in contested_nodes {
            *congestion.history.entry(n).or_insert(0) += stack.pitch as u64;
        }
    }

    let committed: BTreeMap<u32, Vec<RoutedPath>> = routes
        .into_iter()
        .map(|(net, route)| (net, route.segments))
        .collect();
    tracer.add("pnr.rounds", rounds);
    tracer.add("pnr.ripup_rounds", ripup_rounds);
    tracer.add("pnr.nodes_expanded", nodes_expanded);
    Ok(RouteOutcome {
        committed,
        rounds,
        ripup_rounds,
        nodes_expanded,
    })
}

fn unroutable(task: &NetTask, stack: &RouteStack, fail: FailInfo, ripups: u64) -> PnrError {
    PnrError::Unroutable {
        net: task.name.clone(),
        pins: task.pins.len(),
        layer: stack.layers[fail.layer].layer.to_string(),
        col: fail.col,
        row: fail.row,
        ripups,
    }
}
