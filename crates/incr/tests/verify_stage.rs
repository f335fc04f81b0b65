//! The `Stage::VERIFY` contract: every front-end check answers through
//! one memoized query, both verdicts cache, and a warm re-verify is a
//! pure cache hit — in memory and across engines via the disk tier.

use silc_incr::{
    verify_against, verify_isl, verify_pla, verify_sil, Engine, EngineConfig, JobStats,
};
use silc_trace::Tracer;

const PLA: &str = ".i 3\n.o 2\n.ilb a b c\n.ob x y\n11- 10\n1-1 10\n-11 01\n000 01\n";

const ISL: &str = "machine counter {
  reg a[4];
  state s0 {
    if a == 3 { halt; } else { a := a + 1; goto s0; }
  }
}";

/// One prelude inverter with root-level ports naming the rails, so
/// extraction (and pnr's extract-back) recover `vdd`/`gnd` by name.
const SIL: &str = "place std_inv() at (0, 0);
port inp poly (-4, 9);
port out metal (12, 15);
port gnd diff (2, 0);
port vdd diff (2, 30);";

#[test]
fn pla_verify_is_equivalent_and_warm_verify_is_a_pure_hit() {
    let engine = Engine::in_memory();
    let mut cold = JobStats::default();
    let snap = verify_pla(&engine, PLA, &mut cold).expect("verifies");
    assert!(snap.equivalent, "{:?}", snap.mismatches);
    assert_eq!(snap.check, "pla");
    assert!(cold.misses >= 1);

    let mut warm = JobStats::default();
    let again = verify_pla(&engine, PLA, &mut warm).expect("verifies");
    assert_eq!(*again, *snap);
    assert_eq!(warm.misses, 0, "warm verify recomputed");
    assert_eq!(warm.hits, 1);
}

#[test]
fn isl_verify_confirms_the_synthesized_control_store() {
    let engine = Engine::in_memory();
    let mut stats = JobStats::default();
    let snap = verify_isl(&engine, ISL, &mut stats).expect("verifies");
    assert!(snap.equivalent, "{:?}", snap.mismatches);
    assert_eq!(snap.check, "isl");
    assert!(snap.outputs >= 1);

    // A formatting-only edit hits the cache: the key is the machine.
    let spaced = ISL.replace("  ", "    ");
    let mut warm = JobStats::default();
    let again = verify_isl(&engine, &spaced, &mut warm).expect("verifies");
    assert_eq!(*again, *snap);
    assert_eq!(warm.misses, 0, "formatting edit missed the cache");
}

#[test]
fn sil_verify_proves_the_routed_layout_functionally_equivalent() {
    let engine = Engine::in_memory();
    let mut stats = JobStats::default();
    let snap = verify_sil(&engine, SIL, &mut stats).expect("verifies");
    assert!(snap.equivalent, "{:?}", snap.mismatches);
    assert_eq!(snap.check, "sil");

    let mut warm = JobStats::default();
    let again = verify_sil(&engine, SIL, &mut warm).expect("verifies");
    assert_eq!(*again, *snap);
    assert_eq!(warm.misses, 0, "warm sil verify recomputed");
}

#[test]
fn against_catches_a_mutated_table_without_erroring() {
    let engine = Engine::in_memory();
    let mut stats = JobStats::default();
    let clean = verify_against(&engine, PLA, PLA, &mut stats).expect("verifies");
    assert!(clean.equivalent, "{:?}", clean.mismatches);
    assert_eq!(clean.check, "against");

    // Flip one output bit: the verdict is NOT equivalent, but the query
    // succeeds — inequivalence is an answer, not an error.
    let mutated = PLA.replace("-11 01", "-11 11");
    let caught = verify_against(&engine, &mutated, PLA, &mut stats).expect("verifies");
    assert!(!caught.equivalent);
    assert!(
        caught.mismatches.iter().any(|m| m.contains('x')),
        "mismatch names the output: {:?}",
        caught.mismatches
    );

    // Both verdicts are cached — the failing one included.
    let mut warm = JobStats::default();
    let again = verify_against(&engine, &mutated, PLA, &mut warm).expect("verifies");
    assert_eq!(*again, *caught);
    assert_eq!(warm.misses, 0, "failing verdict was not cached");
}

#[test]
fn verify_snapshots_round_trip_through_the_disk_cache() {
    let dir = std::env::temp_dir().join(format!("silc-verify-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let persistent = || {
        Engine::new(EngineConfig {
            cache_dir: Some(dir.clone()),
            tracer: Tracer::disabled(),
            ..EngineConfig::default()
        })
        .expect("cache dir")
    };

    let mut cold = JobStats::default();
    let snap = verify_pla(&persistent(), PLA, &mut cold).expect("verifies");

    // A brand-new engine over the same directory answers from disk,
    // proving the snapshot's Persist codec round-trips.
    let mut warm = JobStats::default();
    let again = verify_pla(&persistent(), PLA, &mut warm).expect("verifies");
    assert_eq!(*again, *snap);
    assert_eq!(warm.misses, 0, "disk tier was not used");

    let _ = std::fs::remove_dir_all(&dir);
}
