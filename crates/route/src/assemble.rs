use crate::{channel_route, river_route, ChannelProblem, RouteError};
use silc_geom::{Coord, Path, Point, Transform};
use silc_layout::{Cell, CellId, CellStats, Element, Instance, Layer, Library, Port};

/// One element of a vertical assembly stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slice {
    /// The cell to place.
    pub cell: CellId,
    /// Horizontal offset applied to the cell (for aligning port columns).
    pub dx: Coord,
}

impl Slice {
    /// A slice at horizontal offset zero.
    pub fn new(cell: CellId) -> Slice {
        Slice { cell, dx: 0 }
    }
}

/// Measurements of an assembly — the numbers experiment E3 sweeps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssemblyStats {
    /// Assembled bounding-box width in lambda.
    pub width: Coord,
    /// Assembled bounding-box height in lambda.
    pub height: Coord,
    /// Total routed wire length in lambda.
    pub wire_length: Coord,
    /// Tracks used by each inter-slice channel, bottom to top.
    pub channel_tracks: Vec<usize>,
    /// Signals connected in each channel.
    pub nets_per_channel: Vec<usize>,
}

/// Stacks `slices` bottom-to-top, routing each gap between the lower
/// cell's top-edge ports and the upper cell's bottom-edge ports (matched
/// by name). Port edges are determined from each cell's bounding box: a
/// port on the top edge of the lower cell faces the channel, likewise the
/// bottom edge of the upper cell.
///
/// If the matched ports appear in the same left-to-right order on both
/// sides, the gap is **river-routed** on `wire_layer` (single layer,
/// abutment style); otherwise the **channel router** is used (trunks on
/// `wire_layer`, branches too — a single-layer simplification of the
/// two-layer channel).
///
/// Returns the assembled cell and its statistics.
///
/// # Errors
///
/// * Router errors propagate ([`RouteError::VerticalConstraintCycle`],
///   terminal ordering);
/// * [`RouteError::Layout`] when the assembled cell cannot be added.
pub fn stack_assemble(
    lib: &mut Library,
    slices: &[Slice],
    wire_layer: Layer,
    wire_width: Coord,
    pitch: Coord,
    name: &str,
) -> Result<(CellId, AssemblyStats), RouteError> {
    let mut assembled = Cell::new(name);
    let mut y_cursor: Coord = 0;
    let mut wire_length: Coord = 0;
    let mut channel_tracks: Vec<usize> = Vec::new();
    let mut nets_per_channel: Vec<usize> = Vec::new();

    // Per-slice geometry info.
    struct Placed {
        top_ports: Vec<(String, Coord)>, // (name, absolute x), sorted by x
        top_y: Coord,
        bottom_ports: Vec<(String, Coord)>,
        bottom_y: Coord,
        height: Coord,
    }
    let mut infos: Vec<Placed> = Vec::new();
    for slice in slices {
        let stats =
            CellStats::compute(lib, slice.cell).map_err(|e| RouteError::Layout(e.to_string()))?;
        let bbox = stats
            .bbox
            .ok_or_else(|| RouteError::Layout("cannot stack an empty cell".into()))?;
        let cell = lib.cell(slice.cell).expect("stats computed");
        let mut top_ports: Vec<(String, Coord)> = cell
            .ports()
            .iter()
            .filter(|p| p.at.y == bbox.top())
            .map(|p| (p.name.clone(), p.at.x + slice.dx))
            .collect();
        top_ports.sort_by_key(|&(_, x)| x);
        let mut bottom_ports: Vec<(String, Coord)> = cell
            .ports()
            .iter()
            .filter(|p| p.at.y == bbox.bottom())
            .map(|p| (p.name.clone(), p.at.x + slice.dx))
            .collect();
        bottom_ports.sort_by_key(|&(_, x)| x);
        infos.push(Placed {
            top_ports,
            top_y: bbox.top(),
            bottom_ports,
            bottom_y: bbox.bottom(),
            height: bbox.height(),
        });
    }

    for (i, slice) in slices.iter().enumerate() {
        // Place this slice so its bbox bottom sits at y_cursor.
        let offset_y = y_cursor - infos[i].bottom_y;
        assembled.push_instance(Instance::place(
            slice.cell,
            Transform::translate(Point::new(slice.dx, offset_y)),
        ));
        y_cursor += infos[i].height;

        // Route to the next slice, if any.
        if i + 1 < slices.len() {
            let lower = &infos[i];
            let upper = &infos[i + 1];
            // Match by name.
            let matched: Vec<(&str, Coord, Coord)> = lower
                .top_ports
                .iter()
                .filter_map(|(n, x)| {
                    upper
                        .bottom_ports
                        .iter()
                        .find(|(un, _)| un == n)
                        .map(|(_, ux)| (n.as_str(), *x, *ux))
                })
                .collect();
            nets_per_channel.push(matched.len());

            let channel_y = y_cursor - infos[i].top_y + lower.top_y; // == y_cursor
            let bottom_xs: Vec<Coord> = matched.iter().map(|&(_, x, _)| x).collect();
            let top_xs: Vec<Coord> = matched.iter().map(|&(_, _, x)| x).collect();

            // Same order on both sides? Then river-route.
            let mut sorted_top = top_xs.clone();
            sorted_top.sort_unstable();
            let same_order = sorted_top == top_xs;
            let (paths, tracks, height): (Vec<Vec<Point>>, usize, Coord) = if matched.is_empty() {
                // Nothing to connect: leave one pitch of clearance between
                // the slices without invoking a router (an empty problem
                // is a `RouteError::EmptyChannel`).
                (Vec::new(), 0, pitch)
            } else if same_order {
                let r = river_route(&bottom_xs, &top_xs, pitch)?;
                wire_length += r.wire_length;
                (r.paths, r.tracks, r.height)
            } else {
                // Build a channel problem on a pitch grid.
                let min_x = bottom_xs.iter().chain(&top_xs).copied().min().unwrap_or(0);
                let max_x = bottom_xs.iter().chain(&top_xs).copied().max().unwrap_or(0);
                let cols = ((max_x - min_x) / pitch + 1) as usize;
                let mut top_row: Vec<Option<u32>> = vec![None; cols];
                let mut bottom_row: Vec<Option<u32>> = vec![None; cols];
                for (k, &(_, bx, tx)) in matched.iter().enumerate() {
                    let id = k as u32;
                    bottom_row[((bx - min_x) / pitch) as usize] = Some(id);
                    top_row[((tx - min_x) / pitch) as usize] = Some(id);
                }
                let r = channel_route(&ChannelProblem {
                    top: top_row,
                    bottom: bottom_row,
                    pitch,
                })?;
                wire_length += r.wire_length;
                let paths = r
                    .segments
                    .into_iter()
                    .map(|(_, pts)| {
                        pts.into_iter()
                            .map(|p| Point::new(p.x + min_x, p.y))
                            .collect()
                    })
                    .collect();
                (paths, r.tracks, r.height)
            };
            channel_tracks.push(tracks);

            // Emit the wires at the channel's absolute position.
            for path in paths {
                let pts: Vec<Point> = path
                    .iter()
                    .map(|p| Point::new(p.x, p.y + channel_y))
                    .collect();
                if pts.len() >= 2 && pts.first() != pts.last() {
                    let wire = Path::new(wire_width, pts)
                        .map_err(|e| RouteError::Layout(e.to_string()))?;
                    assembled.push_element(Element::new(wire_layer, wire));
                }
            }
            y_cursor += height;
        }
    }

    // Expose the unmatched outer ports (bottom of first slice, top of
    // last) on the assembled cell.
    if let Some(first) = infos.first() {
        for (n, x) in &first.bottom_ports {
            assembled.push_port(Port::new(n.clone(), wire_layer, Point::new(*x, 0)));
        }
    }
    if let Some(last) = infos.last() {
        for (n, x) in &last.top_ports {
            assembled.push_port(Port::new(n.clone(), wire_layer, Point::new(*x, y_cursor)));
        }
    }

    let id = lib
        .add_cell(assembled)
        .map_err(|e| RouteError::Layout(e.to_string()))?;
    let stats = CellStats::compute(lib, id).map_err(|e| RouteError::Layout(e.to_string()))?;
    let bbox = stats.bbox.expect("assembly has geometry");
    Ok((
        id,
        AssemblyStats {
            width: bbox.width(),
            height: bbox.height(),
            wire_length,
            channel_tracks,
            nets_per_channel,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use silc_geom::Rect;
    use silc_layout::{Element, Layer};

    /// A test cell: a metal box with ports on top and bottom edges.
    fn block(
        lib: &mut Library,
        name: &str,
        width: Coord,
        height: Coord,
        bottom: &[(&str, Coord)],
        top: &[(&str, Coord)],
    ) -> CellId {
        let mut c = Cell::new(name);
        c.push_element(Element::rect(
            Layer::Metal,
            Rect::new(Point::new(0, 0), Point::new(width, height)).unwrap(),
        ));
        for &(n, x) in bottom {
            c.push_port(Port::new(n, Layer::Metal, Point::new(x, 0)));
        }
        for &(n, x) in top {
            c.push_port(Port::new(n, Layer::Metal, Point::new(x, height)));
        }
        lib.add_cell(c).unwrap()
    }

    #[test]
    fn straight_stack_connects() {
        let mut lib = Library::new();
        let a = block(&mut lib, "a", 40, 10, &[], &[("x", 10), ("y", 20)]);
        let b = block(&mut lib, "b", 40, 10, &[("x", 10), ("y", 20)], &[]);
        let (id, stats) = stack_assemble(
            &mut lib,
            &[Slice::new(a), Slice::new(b)],
            Layer::Metal,
            3,
            6,
            "asm",
        )
        .unwrap();
        assert!(lib.cell(id).is_some());
        assert_eq!(stats.nets_per_channel, vec![2]);
        assert_eq!(stats.channel_tracks, vec![0]); // straight wires
        assert_eq!(stats.height, 10 + 6 + 10);
        assert!(stats.wire_length > 0);
    }

    #[test]
    fn shifted_ports_use_tracks() {
        let mut lib = Library::new();
        let a = block(
            &mut lib,
            "a",
            60,
            10,
            &[],
            &[("p", 6), ("q", 12), ("r", 18)],
        );
        let b = block(
            &mut lib,
            "b",
            60,
            10,
            &[("p", 36), ("q", 42), ("r", 48)],
            &[],
        );
        let (_, stats) = stack_assemble(
            &mut lib,
            &[Slice::new(a), Slice::new(b)],
            Layer::Metal,
            3,
            6,
            "asm",
        )
        .unwrap();
        assert!(stats.channel_tracks[0] >= 1);
        assert!(stats.height > 20);
    }

    #[test]
    fn crossed_ports_fall_back_to_channel_router() {
        let mut lib = Library::new();
        // Order changes between the edges (p before q below, q before p
        // above) without forming a vertical-constraint cycle: not
        // river-routable, but channel-routable.
        let a = block(&mut lib, "a", 60, 10, &[], &[("p", 6), ("q", 18)]);
        let b = block(&mut lib, "b", 60, 10, &[("p", 30), ("q", 6)], &[]);
        let (_, stats) = stack_assemble(
            &mut lib,
            &[Slice::new(a), Slice::new(b)],
            Layer::Metal,
            3,
            6,
            "asm",
        )
        .unwrap();
        assert_eq!(stats.nets_per_channel, vec![2]);
        assert!(stats.channel_tracks[0] >= 1);
    }

    #[test]
    fn unmatched_ports_are_ignored_but_exposed() {
        let mut lib = Library::new();
        let a = block(
            &mut lib,
            "a",
            40,
            10,
            &[("in", 8)],
            &[("x", 10), ("extra", 30)],
        );
        let b = block(&mut lib, "b", 40, 10, &[("x", 10)], &[("out", 20)]);
        let (id, stats) = stack_assemble(
            &mut lib,
            &[Slice::new(a), Slice::new(b)],
            Layer::Metal,
            3,
            6,
            "asm",
        )
        .unwrap();
        assert_eq!(stats.nets_per_channel, vec![1]);
        let cell = lib.cell(id).unwrap();
        assert!(cell.port("in").is_some());
        assert!(cell.port("out").is_some());
    }

    #[test]
    fn three_slice_stack() {
        let mut lib = Library::new();
        let a = block(&mut lib, "a", 40, 8, &[], &[("s", 10)]);
        let b = block(&mut lib, "b", 40, 8, &[("s", 10)], &[("t", 14)]);
        let c = block(&mut lib, "c", 40, 8, &[("t", 22)], &[]);
        let (_, stats) = stack_assemble(
            &mut lib,
            &[Slice::new(a), Slice::new(b), Slice::new(c)],
            Layer::Metal,
            3,
            6,
            "asm",
        )
        .unwrap();
        assert_eq!(stats.channel_tracks.len(), 2);
        assert_eq!(stats.nets_per_channel, vec![1, 1]);
    }

    #[test]
    fn slice_dx_aligns_columns() {
        let mut lib = Library::new();
        let a = block(&mut lib, "a", 40, 10, &[], &[("x", 30)]);
        let b = block(&mut lib, "b", 40, 10, &[("x", 10)], &[]);
        // Shift b right by 20 so the ports line up exactly.
        let (_, stats) = stack_assemble(
            &mut lib,
            &[Slice::new(a), Slice { cell: b, dx: 20 }],
            Layer::Metal,
            3,
            6,
            "asm",
        )
        .unwrap();
        assert_eq!(stats.channel_tracks, vec![0]);
    }

    #[test]
    fn portless_gap_leaves_one_pitch_without_routing() {
        let mut lib = Library::new();
        // No port name is shared between the facing edges: the gap has
        // nothing to route and must not be treated as a router problem.
        let a = block(&mut lib, "a", 40, 10, &[], &[("x", 10)]);
        let b = block(&mut lib, "b", 40, 10, &[("y", 10)], &[]);
        let (_, stats) = stack_assemble(
            &mut lib,
            &[Slice::new(a), Slice::new(b)],
            Layer::Metal,
            3,
            6,
            "asm",
        )
        .unwrap();
        assert_eq!(stats.nets_per_channel, vec![0]);
        assert_eq!(stats.channel_tracks, vec![0]);
        assert_eq!(stats.height, 10 + 6 + 10);
        assert_eq!(stats.wire_length, 0);
    }

    #[test]
    fn empty_cell_rejected() {
        let mut lib = Library::new();
        let empty = lib.add_cell(Cell::new("void")).unwrap();
        assert!(matches!(
            stack_assemble(&mut lib, &[Slice::new(empty)], Layer::Metal, 3, 6, "asm"),
            Err(RouteError::Layout(_))
        ));
    }
}
