//! Cache keys and payload digests pinned at the last format-1 commit
//! (this file printed them there). A moved key orphans every cache
//! directory in the field; a payload may move only with `FORMAT_VERSION`,
//! and format 2 moved exactly one: a `Design` lost the four-byte raw id
//! it used to write before each cell. Format 3 moved only the `extract`
//! payload: it holds the netlist (384 bytes of signature before).
//!
//! Format 4 moved every key and no payload: fingerprints became
//! MurmurHash3 x64_128 digests, so the keys were pinned again, once. The
//! payloads are still pinned as the FNV-1a/128 digests of their stored
//! bytes, which is what proves that no byte stream moved with the hash.

use silc_drc::RuleSet;
use silc_exec::SimEngine;
use silc_geom::Fingerprint;
use silc_incr::{
    compile_sil, extract_netlist, pla_products, pnr_products, sim_results, synth_allocation,
    verify_pla, CompileOptions, Enc, Engine, JobStats, Persist, FORMAT_VERSION,
};
use silc_pnr::{gen::random_netlist, Floorplan, RouteStack};

const SIL: &str = "cell bit() {
    box diff (0,0) (2,12);
    box poly (-2,3) (4,5);
    box metal (4,0) (7,12);
    wire metal 3 (4,14) (20,14) (20,20);
    port q metal (5,1);
}
cell row(n) { array bit() at (0,0) step (12,0) count n; }
place row(8) at (0, 0);
place bit() at (0, 40) rot 90;
box metal (0, 60) (8, 62);";

const ISL: &str = "machine counter {
  reg a[4];
  port output lights[4];
  state s0 {
    lights := a;
    if a == 3 { halt; } else { a := a + 1; goto s0; }
  }
}";

const PLA: &str = ".i 3\n.o 2\n.ilb a b c\n.ob x y\n11- 10\n1-1 10\n-11 01\n000 01\n";

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

/// Length and FNV-1a/128 digest of a value's stored bytes.
fn payload<T: Persist>(value: &T) -> (usize, String) {
    let mut e = Enc::new();
    value.encode(&mut e);
    let bytes = e.into_bytes();
    (bytes.len(), fnv1a_128(&bytes))
}

#[test]
fn keys_and_payloads_are_the_parents_but_for_the_design() {
    assert_eq!(FORMAT_VERSION, 4);
    let engine = Engine::in_memory();
    let stats = &mut JobStats::default();
    let out = compile_sil(&engine, SIL, &CompileOptions::default(), stats).unwrap();
    let machine = silc_rtl::parse(ISL).unwrap();
    let netlist = random_netlist(7, 6);
    let stack = RouteStack::mead_conway_nmos();
    let floorplan = Floorplan::squarish(netlist.instances().len());
    let keys = [
        (
            (SIL, silc_lang::PRELUDE).fingerprint(),
            "b565950742968587efc8e19666fe0a3a",
        ),
        (out.design.fingerprint(), "7b8b836571968e82b2cbdb960357bef9"),
        (
            RuleSet::mead_conway_nmos().fingerprint(),
            "1d52e659e669b093414547b374073984",
        ),
        // The stack's key is its deck's.
        (stack.fingerprint(), "1d52e659e669b093414547b374073984"),
        (netlist.fingerprint(), "4b717aa14d4349688c7a6b49e90ec14c"),
        (machine.fingerprint(), "2062a87b0a121820f59f1e53d3e309f6"),
        // The SIM key as a whole, its engine tag included.
        (
            (&machine, 100u64, SimEngine::Compiled.tag()).fingerprint(),
            "61cdadd97acca3dd7830e24712159a7c",
        ),
    ];
    for (key, pinned) in keys {
        assert_eq!(key.to_hex(), pinned);
    }

    // Format 1 stored 496 bytes for these three cells: a raw id each.
    assert_eq!(out.design.library.len(), 3);
    assert_eq!(payload(&*out.design).0, 496 - 4 * 3);
    let drc = out.drc.as_ref().unwrap();
    assert_eq!(drc.violations.len(), 9);
    let extract = extract_netlist(&engine, &out.design, stats).unwrap();
    let sim = sim_results(&engine, &machine, 100, stats).unwrap();
    let synth = synth_allocation(&engine, &machine, stats).unwrap();
    let pla = pla_products(&engine, PLA, false, stats).unwrap();
    let verify = verify_pla(&engine, PLA, stats).unwrap();
    let pnr = pnr_products(&engine, &netlist, &stack, &floorplan, false, stats).unwrap();
    let payloads = [
        // The die summary has no format-1 ancestor: pinned when added.
        (payload(&*out.die), 41, "1211dc274b1c9a14364d217d599bc6eb"),
        (payload(&**drc), 426, "29f5d4c5937b69a80724042168e6159a"),
        (payload(&*extract), 998, "ac15a1a3e91a8f32410718b5d5117c72"),
        (payload(&*sim), 74, "41b1ff2c49c849a410c7be48860f6302"),
        (payload(&*synth), 237, "043ab953df11fe2b2ccc1ba62da2a381"),
        (payload(&*pla), 1106, "845293dc25193a45693857f905c1ba5e"),
        (payload(&*verify), 60, "34a5d9628b63b0fac8d120c88ae925b8"),
        (payload(&*pnr), 2456, "1f2320a5219f8f869039bf3fd4eb2035"),
    ];
    for (got, len, hex) in payloads {
        assert_eq!(got, (len, hex.to_string()));
    }
}
