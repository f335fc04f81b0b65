//! Per-net gridded maze routing with negotiated-congestion
//! rip-up-and-reroute.
//!
//! Because every route is built from via-pad-sized shapes centred on
//! track crossings at a pitch that clears every spacing rule, two nets
//! can only ever conflict by claiming the *same* crossing on the same
//! stack layer. Routing therefore reduces to node-disjoint path search
//! over the `(layer, col, row)` grid: cell geometry statically blocks
//! nodes (the [`Sites`] table, built once from the exact DRC
//! predicates), while other nets' routes are *soft* obstacles — usable
//! at a congestion cost that escalates each round, plus a history cost
//! on every node that stays contested.
//!
//! Rounds proceed PathFinder-style: every net that is unrouted or
//! shares a node re-searches against the round-start usage map; the
//! round ends by recomputing sharing and deepening history on contested
//! nodes. The process converges when no node is shared. All bookkeeping
//! is in net-id order, so a netlist always routes to the same bytes.
//! Congestion is one vector entry per node, and every search of a run
//! reuses one [`Search`] scratch.
//!
//! A net whose pins are disconnected by cell geometry alone fails its
//! search outright; a stuck negotiation runs out of rounds. Both
//! report [`PnrError::Unroutable`] with the net, layer and track where
//! routing gave up.

use crate::grid::{admits, Grid, Sites, FREE};
use crate::place::Placement;
use crate::stack::{Dir, RouteStack};
use crate::PnrError;
use silc_geom::Rect;
use silc_layout::Layer;
use silc_trace::Tracer;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// Negotiation rounds allowed before routing is declared stuck.
pub const MAX_RIPUP_ROUNDS: u64 = 256;

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
    /// Every node the tree occupies, sorted; via sites occupy both
    /// layers.
    nodes: Vec<u32>,
}

/// Where a failed search gave up (its most promising frontier node).
#[derive(Debug, Clone, Copy)]
struct FailInfo {
    layer: usize,
    col: i64,
    row: i64,
}

impl FailInfo {
    fn at(grid: Grid, node: u32) -> FailInfo {
        let (layer, col, row) = grid.decode(node);
        FailInfo { layer, col, row }
    }
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

/// Per-round congestion state the searches read, one entry per node.
struct Congestion {
    /// Nets currently routed through each node. A net is ripped out
    /// before it searches, so every user a search sees is another net.
    users: Vec<u32>,
    /// Accumulated rounds each node has spent contested.
    history: Vec<u64>,
    /// Escalating weight applied to present sharing this round.
    pressure: u64,
    /// The only net allowed on each node (forced pin accesses), or
    /// [`FREE`].
    reserved: Vec<u32>,
}

impl Congestion {
    /// Congestion surcharge for standing on `node`.
    fn penalty(&self, node: u32) -> u64 {
        self.users[node as usize] as u64 * self.pressure + self.history[node as usize]
    }

    /// Whether `net` may stand on `node` at all (reservation check).
    fn allows(&self, node: u32, net: u32) -> bool {
        admits(self.reserved[node as usize], net)
    }

    /// Whether more than one net stands on `node`.
    fn shared(&self, node: u32) -> bool {
        self.users[node as usize] > 1
    }
}

/// The in-grid nodes one track step from `(l, c, r)` along the layer's
/// direction, west/south first, with their column and row.
fn track_steps(
    grid: Grid,
    stack: &RouteStack,
    l: usize,
    c: i64,
    r: i64,
) -> impl Iterator<Item = (u32, i64, i64)> {
    let (dc, dr) = match stack.layers[l].dir {
        Dir::Horiz => (1i64, 0i64),
        Dir::Vert => (0, 1),
    };
    [-1i64, 1].into_iter().filter_map(move |sign| {
        let (nc, nr) = (c + dc * sign, r + dr * sign);
        let inside = (0..grid.cols).contains(&nc) && (0..grid.rows).contains(&nr);
        inside.then(|| (grid.idx(l, nc, nr), nc, nr))
    })
}

/// Whether `node` has any legal move leading somewhere other than
/// `pin` — i.e. whether it connects the pin to the rest of the grid
/// rather than dead-ending inside the cell (the node over the gate
/// between a cell's two contacts is legal for metal but leads
/// nowhere).
fn has_onward(
    grid: Grid,
    stack: &RouteStack,
    sites: &Sites,
    net: u32,
    node: u32,
    pin: u32,
) -> bool {
    let (l, c, r) = grid.decode(node);
    track_steps(grid, stack, l, c, r).any(|(m, _, _)| m != pin && sites.occupy(m, net))
        || sites.via(grid, node, net)
            && (0..grid.layers).any(|l2| l2 != l && grid.idx(l2, c, r) != pin)
}

/// Legal moves for `net` out of `cur`, skipping nodes already walked,
/// nodes reserved for other nets, and dead ends.
fn open_moves(
    grid: Grid,
    stack: &RouteStack,
    sites: &Sites,
    net: u32,
    cur: u32,
    visited: &[u32],
    reserved: &[u32],
) -> Vec<u32> {
    let (l, c, r) = grid.decode(cur);
    let steps = track_steps(grid, stack, l, c, r)
        .map(|(m, _, _)| m)
        .filter(|&m| sites.occupy(m, net));
    let vias = (0..grid.layers)
        .filter(|&l2| l2 != l && sites.via(grid, cur, net))
        .map(|l2| grid.idx(l2, c, r));
    steps
        .chain(vias)
        .filter(|&m| {
            !visited.contains(&m)
                && admits(reserved[m as usize], net)
                && has_onward(grid, stack, sites, net, m, cur)
        })
        .collect()
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
    sites: &Sites,
    tasks: &BTreeMap<u32, NetTask>,
) -> Result<Vec<u32>, (u32, FailInfo)> {
    let mut reserved = vec![FREE; grid.len()];
    // One net's forced chain can shrink another pin's choices to a
    // single move, so walk all pins repeatedly until nothing new is
    // claimed.
    loop {
        let mut changed = false;
        for task in tasks.values() {
            for &(c, r) in &task.pins {
                let pin = grid.idx(task.pin_layer, c, r);
                let mut visited = vec![pin];
                let mut cur = pin;
                // Follow the chain of sole moves; a tree leaving this
                // pin must traverse every node on it.
                while let [only] =
                    open_moves(grid, stack, sites, task.net, cur, &visited, &reserved)[..]
                {
                    let owner = &mut reserved[only as usize];
                    if *owner == FREE {
                        *owner = task.net;
                        changed = true;
                    } else if *owner != task.net {
                        return Err((task.net, FailInfo::at(grid, only)));
                    }
                    visited.push(only);
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

/// One node's search state, live only while `stamp` is the current
/// search's.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    stamp: u32,
    parent: u32,
    dist: u64,
}

/// The buffers every search of one run shares: slots and tree
/// membership are validated by generation stamps instead of being
/// refilled, and the heap is cleared, not rebuilt.
struct Search {
    slots: Vec<Slot>,
    stamp: u32,
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    /// The found path, target first, before it is decoded.
    chain: Vec<u32>,
    /// Per node, the stamp of the last tree that took it.
    tree: Vec<u32>,
    tree_stamp: u32,
    searches: u64,
    expanded: u64,
}

impl Search {
    fn new(len: usize) -> Search {
        Search {
            slots: vec![Slot::default(); len],
            stamp: 0,
            heap: BinaryHeap::new(),
            chain: Vec::new(),
            tree: vec![0; len],
            tree_stamp: 0,
            searches: 0,
            expanded: 0,
        }
    }

    /// Whether `node` is on the tree being grown.
    fn in_tree(&self, node: u32) -> bool {
        self.tree[node as usize] == self.tree_stamp
    }

    /// Puts `node` on the tree being grown; false if it already was.
    fn grow(&mut self, node: u32) -> bool {
        let fresh = !self.in_tree(node);
        self.tree[node as usize] = self.tree_stamp;
        fresh
    }

    /// Multi-source A* from `tree` to `target` for `net`.
    ///
    /// Moves are direction-legal steps along a layer's tracks plus vias
    /// at crossings; every move is validated against the static
    /// [`Sites`] table (cell geometry), while other nets' routes only
    /// surcharge the cost via [`Congestion::penalty`]. The heuristic
    /// (grid manhattan distance plus one via if on the wrong layer)
    /// never exceeds the real base cost, so it stays admissible under
    /// the surcharges. Heap entries are `(f, g, node)`, a total order,
    /// so the pop sequence does not depend on push order.
    #[allow(clippy::too_many_arguments)]
    fn astar(
        &mut self,
        grid: Grid,
        stack: &RouteStack,
        sites: &Sites,
        congestion: &Congestion,
        net: u32,
        tree: &[u32],
        target: u32,
    ) -> Result<Vec<(usize, i64, i64)>, FailInfo> {
        self.stamp += 1;
        self.searches += 1;
        let Search {
            slots,
            stamp,
            heap,
            chain,
            expanded,
            ..
        } = self;
        let stamp = *stamp;
        heap.clear();
        let via_cost = (stack.pitch + 5) as u64;
        let (tl, tc, tr) = grid.decode(target);
        let h = |l: usize, c: i64, r: i64| -> u64 {
            let manhattan = ((c - tc).abs() + (r - tr).abs()) as u64 * stack.pitch as u64;
            manhattan + if l != tl { via_cost } else { 0 }
        };

        for &n in tree {
            slots[n as usize] = Slot {
                stamp,
                parent: u32::MAX,
                dist: 0,
            };
            let (l, c, r) = grid.decode(n);
            heap.push(Reverse((h(l, c, r), 0, n)));
        }

        // Most promising frontier node seen, for failure context.
        let mut best = (u64::MAX, target);

        while let Some(Reverse((_, g, node))) = heap.pop() {
            if slots[node as usize].dist < g {
                continue;
            }
            if node == target {
                // Walk parents back to the tree.
                chain.clear();
                chain.push(node);
                let mut cur = node;
                while slots[cur as usize].parent != u32::MAX {
                    cur = slots[cur as usize].parent;
                    chain.push(cur);
                }
                return Ok(chain.iter().rev().map(|&n| grid.decode(n)).collect());
            }
            *expanded += 1;
            let (l, c, r) = grid.decode(node);
            let hn = h(l, c, r);
            if hn < best.0 {
                best = (hn, node);
            }

            let mut relax = |next: u32, (nl, nc, nr), cost: u64| {
                let g2 = g + cost;
                let slot = &mut slots[next as usize];
                if slot.stamp != stamp || g2 < slot.dist {
                    *slot = Slot {
                        stamp,
                        parent: node,
                        dist: g2,
                    };
                    heap.push(Reverse((g2 + h(nl, nc, nr), g2, next)));
                }
            };

            // Track steps along the layer's direction.
            for (next, nc, nr) in track_steps(grid, stack, l, c, r) {
                if sites.occupy(next, net) && congestion.allows(next, net) {
                    let cost = stack.pitch as u64 + congestion.penalty(next);
                    relax(next, (l, nc, nr), cost);
                }
            }
            // Vias to adjacent stack layers. A via occupies the crossing
            // on both layers, but each node's surcharge is paid exactly
            // once along a path: entering charged this node, the
            // transition charges the partner only. (Charging the current
            // node again here would make every detour that vias next to
            // a contested node strictly pricier than routing through it,
            // and negotiation would never converge.)
            if !sites.via(grid, node, net) {
                continue;
            }
            for l2 in [l.wrapping_sub(1), l + 1] {
                if l2 >= grid.layers {
                    continue;
                }
                let next = grid.idx(l2, c, r);
                if congestion.allows(next, net) {
                    relax(next, (l2, c, r), via_cost + congestion.penalty(next));
                }
            }
        }

        Err(FailInfo::at(grid, best.1))
    }
}

/// Routes one net completely: connects each pin in turn to the growing
/// tree.
fn route_net(
    grid: Grid,
    stack: &RouteStack,
    sites: &Sites,
    congestion: &Congestion,
    search: &mut Search,
    task: &NetTask,
) -> Result<NetRoute, FailInfo> {
    search.tree_stamp += 1;
    let first = grid.idx(task.pin_layer, task.pins[0].0, task.pins[0].1);
    search.grow(first);
    let mut nodes = vec![first];
    let mut segments = Vec::new();
    for &(pc, pr) in &task.pins[1..] {
        let target = grid.idx(task.pin_layer, pc, pr);
        if search.in_tree(target) {
            continue;
        }
        let path = search.astar(grid, stack, sites, congestion, task.net, &nodes, target)?;
        // Via sites occupy both layers even when the path only names
        // one: mark the partner node so sharing detection sees the
        // full footprint.
        let vias = path.windows(2).filter(|w| w[0].0 != w[1].0);
        let partners = vias.flat_map(|w| (0..grid.layers).map(move |l| (l, w[0].1, w[0].2)));
        for (l, c, r) in path.iter().copied().chain(partners) {
            let n = grid.idx(l, c, r);
            if search.grow(n) {
                nodes.push(n);
            }
        }
        segments.push(path);
    }
    nodes.sort_unstable();
    Ok(NetRoute { segments, nodes })
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
        .layer_for_dir(Dir::Horiz)
        .ok_or_else(|| PnrError::BadStack {
            stack: stack.name.clone(),
            missing: "no horizontal routing layer for pins",
        })?;
    let grid = Grid {
        cols: placement.floorplan.grid_cols(),
        rows: placement.floorplan.grid_rows(),
        layers: stack.layers.len(),
    };

    // Gather pins per net; a net is named by its first pin.
    let mut tasks: BTreeMap<u32, NetTask> = BTreeMap::new();
    for pin in placement.cells.iter().flat_map(|cell| &cell.pins) {
        let task = tasks.entry(pin.net).or_insert_with(|| NetTask {
            net: pin.net,
            name: pin.net_name.clone(),
            pins: Vec::new(),
            pin_layer,
        });
        task.pins.push((pin.col, pin.row));
    }
    tasks.retain(|_, task| {
        task.pins.sort_unstable();
        task.pins.dedup();
        task.pins.len() >= 2
    });

    // Cell geometry never changes during routing: one static table
    // serves every round.
    let sites = {
        let _span = tracer.span("pnr.sites");
        Sites::build(stack, grid, cell_rects)
    };
    let reserved = reserve_pin_accesses(grid, stack, &sites, &tasks)
        .map_err(|(net, fail)| unroutable(&tasks[&net], stack, fail, 0))?;

    let mut congestion = Congestion {
        users: vec![0; grid.len()],
        history: vec![0; grid.len()],
        pressure: 0,
        reserved,
    };
    let mut search = Search::new(grid.len());
    let mut rounds = 1u64;
    let mut ripup_rounds = 0u64;

    // Round 1: every net searches against the empty usage map, and only
    // then are the routes committed. A failure here means cell geometry
    // alone disconnects the pins, which no amount of negotiation can fix.
    let first: Vec<NetRoute> = tasks
        .values()
        .map(|task| {
            route_net(grid, stack, &sites, &congestion, &mut search, task)
                .map_err(|fail| unroutable(task, stack, fail, 0))
        })
        .collect::<Result<_, _>>()?;
    let mut routes: BTreeMap<u32, NetRoute> = BTreeMap::new();
    for (&net, route) in tasks.keys().zip(first) {
        for &n in &route.nodes {
            congestion.users[n as usize] += 1;
        }
        routes.insert(net, route);
    }

    // Negotiation rounds: serially re-route every net standing on a
    // contested node, updating the usage map immediately so each net
    // sees all earlier moves; then deepen history on nodes that are
    // still contested. Serial negotiation cannot oscillate in lockstep
    // the way simultaneous re-routing can.
    loop {
        let mut contested: Vec<u32> = routes
            .iter()
            .filter(|(_, r)| r.nodes.iter().any(|&n| congestion.shared(n)))
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
                .find(|&&n| congestion.shared(n))
                .map(|&n| FailInfo::at(grid, n))
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
            for &n in &old.nodes {
                congestion.users[n as usize] -= 1;
            }
            let task = &tasks[&net];
            let route = route_net(grid, stack, &sites, &congestion, &mut search, task)
                .map_err(|fail| unroutable(task, stack, fail, ripup_rounds))?;
            for &n in &route.nodes {
                congestion.users[n as usize] += 1;
            }
            routes.insert(net, route);
        }

        // Deepen history wherever sharing survived this round.
        for (history, &users) in congestion.history.iter_mut().zip(&congestion.users) {
            if users > 1 {
                *history += stack.pitch as u64;
            }
        }
    }

    let committed: BTreeMap<u32, Vec<RoutedPath>> = routes
        .into_iter()
        .map(|(net, route)| (net, route.segments))
        .collect();
    tracer.add("pnr.rounds", rounds);
    tracer.add("pnr.ripup_rounds", ripup_rounds);
    tracer.add("pnr.searches", search.searches);
    tracer.add("pnr.nodes_expanded", search.expanded);
    Ok(RouteOutcome {
        committed,
        rounds,
        ripup_rounds,
        nodes_expanded: search.expanded,
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
