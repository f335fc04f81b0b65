//! Cache keys and payload digests pinned at the last format-1 commit
//! (this file printed them there). A moved key orphans every cache
//! directory in the field; a payload may move only with `FORMAT_VERSION`,
//! and format 2 moved exactly one: a `Design` lost the four-byte raw id
//! it used to write before each cell.

use silc_drc::RuleSet;
use silc_exec::SimEngine;
use silc_geom::{Fingerprint, FpHasher};
use silc_incr::{
    compile_sil, extract_signature, pla_products, pnr_products, sim_results, synth_allocation,
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

/// Length and FNV-128 of a value's stored bytes.
fn payload<T: Persist>(value: &T) -> (usize, String) {
    let mut e = Enc::new();
    value.encode(&mut e);
    let bytes = e.into_bytes();
    let mut h = FpHasher::new();
    h.write(&bytes);
    (bytes.len(), h.finish().to_hex())
}

#[test]
fn keys_and_payloads_are_the_parents_but_for_the_design() {
    assert_eq!(FORMAT_VERSION, 2);
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
            "216d38f4edb9b87a4dae540870ef6b7c",
        ),
        (out.design.fingerprint(), "b6bb75d3e6fcc0207f669da5a911eb6b"),
        (
            RuleSet::mead_conway_nmos().fingerprint(),
            "3855b449014b61f864b238418d5ab44f",
        ),
        (stack.fingerprint(), "3edd1efb315da0ceadaefa89ffbccced"),
        (netlist.fingerprint(), "698b8e8fe17ad05861af19452e68228e"),
        (machine.fingerprint(), "6b2eebbceb50093d011be6e2150660db"),
        // The SIM key as a whole, its engine tag included.
        (
            (&machine, 100u64, SimEngine::Compiled.tag()).fingerprint(),
            "f0b5f999098c4e22815b309054c76e65",
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
    let extract = extract_signature(&engine, &out.design, stats).unwrap();
    let sim = sim_results(&engine, &machine, 100, stats).unwrap();
    let synth = synth_allocation(&engine, &machine, stats).unwrap();
    let pla = pla_products(&engine, PLA, false, stats).unwrap();
    let verify = verify_pla(&engine, PLA, stats).unwrap();
    let pnr = pnr_products(&engine, &netlist, &stack, &floorplan, false, stats).unwrap();
    let payloads = [
        (
            payload(&*out.flat),
            1577,
            "8725096b38e045053271e281a13df2e0",
        ),
        (payload(&**drc), 426, "29f5d4c5937b69a80724042168e6159a"),
        (payload(&*extract), 384, "c08bac8ce0fcde88c656b9c8111f0737"),
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
