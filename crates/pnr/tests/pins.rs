//! Place-and-route output, byte for byte, on seeded netlists from 8 to
//! 48 cells. `pins.txt` was written by the router this crate had before
//! the site-access table, dense congestion state and reused search
//! buffers: per netlist, the FNV-1a/128 digest of the report (search
//! effort included) and the CIF, or the error text. A search that pops in
//! a different order, or a site answered differently, moves a line of it.

use silc_cif::CifWriter;
use silc_geom::FpHasher;
use silc_pnr::{gen::random_netlist, place_and_route, Floorplan, RouteStack};

/// `(cells, generator seed)`: three netlists a size, one a size that
/// routes with a design-rule violation ((24, 21) among them), (32, 0),
/// which needs more than 64 rip-up rounds, and two that run out of
/// rounds, (40, 499) and (48, 144).
const PINNED: [(usize, u64); 25] = [
    (8, 0),
    (8, 1),
    (8, 2),
    (8, 244),
    (16, 0),
    (16, 1),
    (16, 2),
    (16, 350),
    (24, 0),
    (24, 1),
    (24, 2),
    (24, 21),
    (32, 0),
    (32, 1),
    (32, 2),
    (32, 317),
    (40, 0),
    (40, 1),
    (40, 2),
    (40, 98),
    (40, 499),
    (48, 0),
    (48, 2),
    (48, 411),
    (48, 144),
];

/// FNV-1a/128 of `bytes`, the digest these pins were taken with before
/// fingerprints moved to MurmurHash3: kept here so a pin still proves
/// that no byte stream moved.
fn fnv1a_128(bytes: &[u8]) -> String {
    let digest = bytes
        .iter()
        .fold(0x6c62272e07bb014262b821756295c58d_u128, |h, &b| {
            (h ^ u128::from(b)).wrapping_mul(0x0000000001000000000000000000013b)
        });
    format!("{digest:032x}")
}

#[test]
fn the_reference_is_fnv_1a_128() {
    assert_eq!(fnv1a_128(b"a"), "d228cb696f1a8caf78912b704e4a8964");
}

/// What routing `(cells, seed)` on the squarish floorplan every
/// front-end uses comes to.
fn outcome(cells: usize, seed: u64) -> String {
    let netlist = random_netlist(seed, cells);
    let stack = RouteStack::mead_conway_nmos();
    match place_and_route(&netlist, &stack, &Floorplan::squarish(cells), false) {
        Ok(out) => {
            let cif = CifWriter::new()
                .write_to_string(&out.library, out.root)
                .expect("routed layouts write");
            let mut h = FpHasher::buffer();
            h.write_str(&format!("{:?}", out.report));
            h.write_str(&cif);
            fnv1a_128(&h.into_bytes())
        }
        Err(e) => e.to_string(),
    }
}

#[test]
fn routes_and_errors_are_pinned() {
    let mut pinned = include_str!("pins.txt").lines();
    for (cells, seed) in PINNED {
        let line = format!("{cells} {seed} {}", outcome(cells, seed));
        assert_eq!(pinned.next(), Some(line.as_str()));
    }
    assert_eq!(pinned.next(), None);
}
