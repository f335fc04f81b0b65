use crate::RouteError;
use silc_geom::{Coord, Interval, IntervalSet, Point};
use std::collections::{BTreeMap, BTreeSet};

/// A net identifier in a channel problem. Any value is a legal net —
/// including 0. Emptiness is expressed with `Option<NetId>`, never with a
/// reserved sentinel value.
pub type NetId = u32;

/// A channel routing problem: two facing rows of pins on a common column
/// grid. `top[c]` / `bottom[c]` give the net at column `c`, with `None`
/// meaning no pin there. Net ids are otherwise arbitrary — net 0 is as
/// valid as any other (an earlier encoding reserved 0 as the "empty"
/// marker, which silently dropped legitimately-numbered nets).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelProblem {
    /// Pins along the top edge (`None` = no pin at that column).
    pub top: Vec<Option<NetId>>,
    /// Pins along the bottom edge (`None` = no pin at that column).
    pub bottom: Vec<Option<NetId>>,
    /// Column pitch in lambda.
    pub pitch: Coord,
}

/// The result of channel routing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelRoute {
    /// Track index (0 = nearest the top) per net id.
    pub track_of_net: BTreeMap<NetId, usize>,
    /// Number of horizontal tracks used.
    pub tracks: usize,
    /// Channel height in lambda.
    pub height: Coord,
    /// Total wire length (trunks plus branches).
    pub wire_length: Coord,
    /// Centre-line polylines per net (trunk plus one branch per pin).
    pub segments: Vec<(NetId, Vec<Point>)>,
}

/// Lower bound on any routing: the maximum number of distinct nets whose
/// horizontal spans cross a single column boundary.
pub fn channel_density(problem: &ChannelProblem) -> usize {
    let spans = net_spans(problem);
    let cols = problem.top.len().max(problem.bottom.len());
    let mut best = 0;
    for c in 0..cols {
        let crossing = spans
            .values()
            .filter(|&&(lo, hi)| lo <= c && c <= hi && lo != hi)
            .count();
        best = best.max(crossing);
    }
    // Columns where a net has both pins also occupy the channel.
    best.max(usize::from(spans.values().any(|&(lo, hi)| lo == hi)))
}

fn net_spans(problem: &ChannelProblem) -> BTreeMap<NetId, (usize, usize)> {
    let mut spans: BTreeMap<NetId, (usize, usize)> = BTreeMap::new();
    let mut note = |c: usize, pin: Option<NetId>| {
        if let Some(net) = pin {
            let e = spans.entry(net).or_insert((c, c));
            e.0 = e.0.min(c);
            e.1 = e.1.max(c);
        }
    };
    for (c, &pin) in problem.top.iter().enumerate() {
        note(c, pin);
    }
    for (c, &pin) in problem.bottom.iter().enumerate() {
        note(c, pin);
    }
    spans
}

/// The pin at column `c` of `row`, if any (`None` past the row's end).
fn pin(row: &[Option<NetId>], c: usize) -> Option<NetId> {
    row.get(c).copied().flatten()
}

/// Routes a channel with the classic constrained left-edge algorithm:
///
/// 1. build the **vertical constraint graph** — at any column with both a
///    top pin and a bottom pin of different nets, the top net's trunk
///    must lie above the bottom net's;
/// 2. repeatedly fill tracks top-to-bottom: a net is eligible for the
///    current track when all nets that must be above it are already
///    placed; eligible nets pack left-to-right (left-edge greedy) without
///    span overlap.
///
/// Dogleg-free routing cannot break VCG cycles; those return
/// [`RouteError::VerticalConstraintCycle`], faithfully reproducing the
/// historical limitation.
///
/// # Errors
///
/// * [`RouteError::VerticalConstraintCycle`] — see above.
///
/// # Example
///
/// ```
/// use silc_route::{channel_route, ChannelProblem};
/// let problem = ChannelProblem {
///     top:    vec![Some(1), Some(2), None, Some(3)],
///     bottom: vec![None, Some(1), Some(2), Some(3)],
///     pitch: 7,
/// };
/// let route = channel_route(&problem)?;
/// assert!(route.tracks >= 2);
/// # Ok::<(), silc_route::RouteError>(())
/// ```
pub fn channel_route(problem: &ChannelProblem) -> Result<ChannelRoute, RouteError> {
    let spans = net_spans(problem);
    let pitch = problem.pitch.max(1);
    if spans.is_empty() {
        return Ok(ChannelRoute {
            track_of_net: BTreeMap::new(),
            tracks: 0,
            height: pitch,
            wire_length: 0,
            segments: Vec::new(),
        });
    }

    // Vertical constraints: above -> below.
    let mut below: BTreeMap<NetId, BTreeSet<NetId>> = BTreeMap::new(); // net -> nets that must be below it
    let mut blockers: BTreeMap<NetId, usize> = BTreeMap::new(); // net -> count of nets that must be above it
    for net in spans.keys() {
        below.entry(*net).or_default();
        blockers.entry(*net).or_insert(0);
    }
    let cols = problem.top.len().max(problem.bottom.len());
    for c in 0..cols {
        if let (Some(t), Some(b)) = (pin(&problem.top, c), pin(&problem.bottom, c)) {
            if t != b && below.get_mut(&t).expect("seen").insert(b) {
                *blockers.get_mut(&b).expect("seen") += 1;
            }
        }
    }

    // Left-edge with VCG, tracks from the top.
    let mut track_of_net: BTreeMap<NetId, usize> = BTreeMap::new();
    let mut placed: BTreeSet<NetId> = BTreeSet::new();
    let mut track = 0usize;
    while placed.len() < spans.len() {
        // Eligible: unplaced nets with no unplaced net required above.
        let mut eligible: Vec<NetId> = spans
            .keys()
            .filter(|n| !placed.contains(n) && blockers[n] == 0)
            .copied()
            .collect();
        if eligible.is_empty() {
            // Cycle: report the remaining nets.
            let nets: Vec<NetId> = spans
                .keys()
                .filter(|n| !placed.contains(n))
                .copied()
                .collect();
            return Err(RouteError::VerticalConstraintCycle { nets, track });
        }
        // Left-edge: sort by left end, pack greedily without overlap.
        eligible.sort_by_key(|n| spans[n].0);
        let mut occupied = IntervalSet::new();
        let mut put_this_track: Vec<NetId> = Vec::new();
        for net in eligible {
            let (lo, hi) = spans[&net];
            let iv = Interval::new(lo as Coord, hi as Coord).expect("lo <= hi");
            if !occupied.overlaps(iv) {
                occupied.insert(Interval::new(lo as Coord, (hi + 1) as Coord).expect("non-empty"));
                put_this_track.push(net);
            }
        }
        for net in put_this_track {
            track_of_net.insert(net, track);
            placed.insert(net);
            for &b in &below[&net] {
                if !placed.contains(&b) {
                    *blockers.get_mut(&b).expect("seen") -= 1;
                }
            }
        }
        track += 1;
    }

    let tracks = track;
    let height = (tracks as Coord + 1) * pitch;
    let track_y = |t: usize| height - (t as Coord + 1) * pitch;

    // Geometry and wire length.
    let mut segments: Vec<(NetId, Vec<Point>)> = Vec::new();
    let mut wire_length = 0;
    for (&net, &(lo, hi)) in &spans {
        let y = track_y(track_of_net[&net]);
        let x0 = lo as Coord * pitch;
        let x1 = hi as Coord * pitch;
        if x1 > x0 {
            segments.push((net, vec![Point::new(x0, y), Point::new(x1, y)]));
            wire_length += x1 - x0;
        }
        for c in 0..cols {
            let x = c as Coord * pitch;
            if pin(&problem.top, c) == Some(net) {
                segments.push((net, vec![Point::new(x, y), Point::new(x, height)]));
                wire_length += height - y;
            }
            if pin(&problem.bottom, c) == Some(net) {
                segments.push((net, vec![Point::new(x, y), Point::new(x, 0)]));
                wire_length += y;
            }
        }
    }

    Ok(ChannelRoute {
        track_of_net,
        tracks,
        height,
        wire_length,
        segments,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Test shorthand: build a pin row from integers, 0 = empty, n = net
    /// n-1 (so net id 0 is reachable through value 1).
    fn row(vals: &[u32]) -> Vec<Option<NetId>> {
        vals.iter()
            .map(|&v| if v == 0 { None } else { Some(v - 1) })
            .collect()
    }

    /// Convenience for tests written against 1-based net ids.
    fn p(top: &[u32], bottom: &[u32], pitch: Coord) -> ChannelProblem {
        ChannelProblem {
            top: top.iter().map(|&v| (v != 0).then_some(v)).collect(),
            bottom: bottom.iter().map(|&v| (v != 0).then_some(v)).collect(),
            pitch,
        }
    }

    #[test]
    fn trivial_channel() {
        let r = channel_route(&p(&[1, 0], &[0, 1], 7)).unwrap();
        assert_eq!(r.tracks, 1);
        assert_eq!(r.track_of_net[&1], 0);
    }

    #[test]
    fn net_zero_is_a_real_net() {
        // Regression: the old `Vec<u32>` encoding used 0 as the "empty"
        // sentinel, so a legitimate net numbered 0 was silently dropped
        // from the route. With explicit `Option` pins it must be routed
        // like any other net.
        let problem = ChannelProblem {
            top: vec![Some(0), None, Some(0)],
            bottom: vec![None, Some(0), None],
            pitch: 7,
        };
        assert_eq!(net_spans(&problem).len(), 1);
        let r = channel_route(&problem).unwrap();
        assert_eq!(r.tracks, 1);
        assert_eq!(r.track_of_net[&0], 0);
        // Trunk spanning columns 0..2 plus three branches.
        let segs: Vec<_> = r.segments.iter().filter(|(n, _)| *n == 0).collect();
        assert_eq!(segs.len(), 4);
        assert!(r.wire_length > 0);

        // Net 0 interacts with other nets through vertical constraints
        // exactly like any other id: top pin of net 0 above bottom pin of
        // net 5 forces track(0) above track(5).
        let problem = ChannelProblem {
            top: vec![Some(0), Some(0), None],
            bottom: vec![None, Some(5), Some(5)],
            pitch: 7,
        };
        let r = channel_route(&problem).unwrap();
        assert!(r.track_of_net[&0] < r.track_of_net[&5]);
    }

    #[test]
    fn independent_nets_share_a_track() {
        // Nets 1 and 2 occupy disjoint column ranges.
        let r = channel_route(&p(&[1, 1, 0, 2, 2], &[0, 0, 0, 0, 0], 7)).unwrap();
        assert_eq!(r.tracks, 1);
        assert_eq!(r.track_of_net[&1], r.track_of_net[&2]);
    }

    #[test]
    fn overlapping_nets_stack() {
        let r = channel_route(&p(&[1, 2, 0, 0], &[0, 0, 1, 2], 7)).unwrap();
        assert_eq!(r.tracks, 2);
    }

    #[test]
    fn vertical_constraints_respected() {
        // Column 1: top pin of net 2 above bottom pin of net 1 -> track(2)
        // above track(1).
        let r = channel_route(&p(&[2, 2, 0], &[0, 1, 1], 7)).unwrap();
        assert!(r.track_of_net[&2] < r.track_of_net[&1]);
    }

    #[test]
    fn classic_cycle_detected() {
        // Net 1 above 2 at column 0; net 2 above 1 at column 1.
        let e = channel_route(&p(&[1, 2], &[2, 1], 7)).unwrap_err();
        assert!(matches!(
            e,
            RouteError::VerticalConstraintCycle { ref nets, track: 0 } if nets == &[1, 2]
        ));
        // The message names the stuck nets and the fill round.
        let msg = e.to_string();
        assert!(msg.contains("[1, 2]"), "{msg}");
        assert!(msg.contains("track 0"), "{msg}");
    }

    #[test]
    fn density_lower_bound_holds() {
        let problem = p(&[1, 2, 3, 0, 0, 0], &[0, 0, 0, 1, 2, 3], 7);
        let d = channel_density(&problem);
        let r = channel_route(&problem).unwrap();
        assert!(r.tracks >= d);
        assert_eq!(d, 3);
    }

    #[test]
    fn empty_channel() {
        let problem = ChannelProblem {
            top: vec![None, None],
            bottom: vec![None, None],
            pitch: 7,
        };
        let r = channel_route(&problem).unwrap();
        assert_eq!(r.tracks, 0);
        assert!(net_spans(&problem).is_empty());
    }

    #[test]
    fn branches_reach_pins() {
        let r = channel_route(&p(&[1, 0, 1], &[0, 1, 0], 5)).unwrap();
        // Trunk from column 0 to 2 plus three branches.
        let segs: Vec<_> = r.segments.iter().filter(|(n, _)| *n == 1).collect();
        assert_eq!(segs.len(), 4);
        // One branch reaches the bottom edge, two the top.
        let to_bottom = segs
            .iter()
            .filter(|(_, pts)| pts.iter().any(|p| p.y == 0))
            .count();
        assert_eq!(to_bottom, 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn routed_channels_respect_constraints(
            top_v in prop::collection::vec(0u32..6, 2..14),
            bottom_v in prop::collection::vec(0u32..6, 2..14),
        ) {
            // `row` maps 1 -> net 0, so the once-reserved id is exercised
            // by the random problems too.
            let p = ChannelProblem { top: row(&top_v), bottom: row(&bottom_v), pitch: 7 };
            match channel_route(&p) {
                Ok(r) => {
                    // Tracks at least density.
                    prop_assert!(r.tracks >= channel_density(&p)
                        || net_spans(&p).is_empty());
                    // Every net present in the problem got a track.
                    let spans = net_spans(&p);
                    prop_assert_eq!(r.track_of_net.len(), spans.len());
                    // No two nets on one track overlap in span.
                    for (a, &(alo, ahi)) in &spans {
                        for (b, &(blo, bhi)) in &spans {
                            if a < b && r.track_of_net[a] == r.track_of_net[b] {
                                prop_assert!(ahi < blo || bhi < alo,
                                    "nets {a} and {b} overlap on track");
                            }
                        }
                    }
                    // Vertical constraints hold.
                    let cols = p.top.len().max(p.bottom.len());
                    for c in 0..cols {
                        if let (Some(t), Some(b)) = (pin(&p.top, c), pin(&p.bottom, c)) {
                            if t != b {
                                prop_assert!(r.track_of_net[&t] < r.track_of_net[&b]);
                            }
                        }
                    }
                }
                Err(RouteError::VerticalConstraintCycle { .. }) => {} // legal outcome
                Err(other) => return Err(TestCaseError::fail(other.to_string())),
            }
        }
    }
}
