//! The router's failure census: of the random netlists at each size,
//! how many route with a design-rule violation and how many run out of
//! rip-up rounds. ROADMAP's "A router that closes" must take these
//! counts to zero; until it does they are pinned, so a change that moves
//! one, either way, is seen.

use silc_drc::{check_flat, RuleSet};
use silc_layout::Layer;
use silc_pnr::{
    gen::random_netlist, place_and_route, Floorplan, PnrError, RouteStack, MAX_RIPUP_ROUNDS,
};

#[derive(Debug, PartialEq, Eq)]
struct Census {
    /// Routed, with at least one design-rule violation.
    dirty: u64,
    /// Still contested when the rip-up rounds ran out.
    out_of_rounds: u64,
}

/// The census of `cells`-cell netlists from generator seeds `0..seeds`,
/// each on the squarish floorplan every front-end uses. Any other
/// failure is a bug of its own and panics.
fn census(cells: usize, seeds: u64) -> Census {
    let stack = RouteStack::mead_conway_nmos();
    let rules = RuleSet::mead_conway_nmos();
    let mut found = Census {
        dirty: 0,
        out_of_rounds: 0,
    };
    for seed in 0..seeds {
        let netlist = random_netlist(seed, cells);
        match place_and_route(&netlist, &stack, &Floorplan::squarish(cells), false) {
            Ok(out) => {
                let cell = out.library.cell(out.root).expect("root exists");
                let mut layers = vec![Vec::new(); Layer::ALL.len()];
                for e in cell.elements() {
                    layers[e.layer.index()].extend(e.shape.to_rects());
                }
                found.dirty += u64::from(!check_flat(&layers, &rules).is_clean());
            }
            Err(PnrError::Unroutable { ripups, .. }) if ripups == MAX_RIPUP_ROUNDS - 1 => {
                found.out_of_rounds += 1;
            }
            Err(e) => panic!("({cells}, {seed}): {e}"),
        }
    }
    found
}

fn assert_census(seeds: u64, pinned: &[(usize, u64, u64)]) {
    for &(cells, dirty, out_of_rounds) in pinned {
        let want = Census {
            dirty,
            out_of_rounds,
        };
        assert_eq!(census(cells, seeds), want, "{cells} cells, {seeds} seeds");
    }
}

/// The tier-1 subset: `(24, 21)` and `(24, 41)` are the dirty ones.
#[test]
fn failures_of_fifty_seeds_are_pinned() {
    assert_census(50, &[(8, 0, 0), (16, 0, 0), (24, 2, 0)]);
}

#[test]
#[ignore = "a minute and a half optimised; CI runs it with --release"]
fn failures_of_six_hundred_seeds_are_pinned() {
    assert_census(
        600,
        &[
            (8, 6, 0),
            (16, 6, 0),
            (24, 6, 0),
            (32, 5, 0),
            (40, 18, 24),
            (48, 12, 172),
        ],
    );
}
