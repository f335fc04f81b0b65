//! The decision engine: structural hashing, simulation-guided partition
//! refinement, and exact cube-cover containment.
//!
//! Both entry points state what they want proved as a list of
//! *obligations* `lo ⊆ f ⊆ hi`, one per output — a spec *node* gives
//! `lo = hi =` that node, a truth-table column gives `lo = ON ∖ DC`,
//! `hi = ON ∪ DC` — and hand it to one three-tier procedure, `decide`:
//!
//! 1. **Structural hashing** — the two sides are spliced into one
//!    network over shared primary inputs and [`Network::strash`]ed;
//!    an output that collapses onto its spec node is equivalent with no
//!    further work.
//! 2. **Simulation refinement** — rounds of 64-lane bit-packed random
//!    vectors evaluate every node; an output whose word ever leaves
//!    `[lo, hi]` is *refuted*, and the offending lane is decoded into a
//!    concrete counterexample. Rounds stop early once nothing more can
//!    be told apart.
//! 3. **Exact fallback** — outputs still unrefuted are decided by two
//!    containments between ON covers over the primary inputs, neither of
//!    which needs a complement: `(f ∪ dc) ⊇ on` and `(on ∪ dc) ⊇ f` for a
//!    table, [`Cover::covers`] both ways for a node. Phases are flattened
//!    per `(node, polarity)` on demand, so an OFF phase is built only
//!    where a `0` literal or a complemented cone reads it — or where an
//!    obligation failed and its report wants a witness cube. Simulation
//!    can only refute; this tier is what makes a *pass* a proof.
//!
//! There is no SAT solver anywhere: the exact tier is the same cube
//! calculus (`cofactor`-until-tautology) that `minimize` is built on.

use crate::network::{complement_cover, cover_word, Network, NodeId, Phases};
use crate::{Report, VerifyError};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use silc_logic::{Cover, Cube, Scratch, TruthTable};
use silc_trace::{span, Tracer};
use std::collections::HashMap;

/// Tuning knobs for the decision engine.
#[derive(Debug, Clone)]
pub struct Options {
    /// Maximum rounds of 64-lane random simulation (the engine stops
    /// early when the candidate partition is stable).
    pub sim_rounds: usize,
    /// Seed for the random vectors. Fixed by default so verdicts are
    /// deterministic and therefore cacheable.
    pub seed: u64,
    /// Cube-count cap on any cover built during exact flattening.
    pub cube_cap: usize,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            sim_rounds: 8,
            seed: 0x511C_0DE5,
            cube_cap: 20_000,
        }
    }
}

/// Exhaustive-within-64-lanes input patterns: input `i < 6` toggles
/// with period `2^(i+1)`, so any 6 inputs sweep all 64 combinations in
/// one word. Inputs beyond 6 get random words.
const WALSH: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

fn input_words(num_inputs: usize, round: usize, rng: &mut StdRng) -> Vec<u64> {
    (0..num_inputs)
        .map(|i| {
            if round == 0 && i < WALSH.len() {
                WALSH[i]
            } else {
                rng.next_u64()
            }
        })
        .collect()
}

/// Renders lane `lane` of the input words as `a=0 b=1 …`.
fn render_lane(names: &[String], words: &[u64], lane: u32) -> String {
    names
        .iter()
        .zip(words)
        .map(|(n, w)| format!("{n}={}", (w >> lane) & 1))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Renders a witness cube (`1-0` over named inputs) as `a=1 c=0`.
fn render_cube(names: &[String], cube: &Cube) -> String {
    let bound: Vec<String> = cube
        .bound()
        .map(|(i, one)| format!("{}={}", names[i], u8::from(one)))
        .collect();
    if bound.is_empty() {
        "any input".to_string()
    } else {
        bound.join(" ")
    }
}

/// What an implementation output `f` must satisfy: `lo ⊆ f ⊆ hi`.
enum Spec {
    /// `lo = hi =` this output of the combined network: the other side
    /// of an equivalence, spliced in beside the implementation.
    Node(usize),
    /// One truth-table column over the primary inputs: `lo = on ∖ dc`,
    /// `hi = on ∪ dc`. A minterm listed both ON and DC counts as a
    /// don't-care — the same convention `minimize` uses (its IRREDUNDANT
    /// step may drop any cube inside the DC set).
    Table { on: Cover, dc: Cover },
}

/// One proof obligation: output `f` of the combined network (an index
/// into [`Network::outputs`], so it survives strash renumbering)
/// against its specification.
struct Obligation {
    name: String,
    f: usize,
    spec: Spec,
}

/// Splices `spec` into `impl_net` over shared primary inputs (matched
/// by name) and returns the combined network plus the spec outputs'
/// node ids in the combined id space.
fn splice(
    impl_net: &Network,
    spec: &Network,
) -> Result<(Network, Vec<(String, NodeId)>), VerifyError> {
    let mut combined = impl_net.clone();
    // Spec inputs must be exactly the impl inputs (any order).
    let mut missing: Vec<&str> = Vec::new();
    let mut input_map = Vec::with_capacity(spec.input_names().len());
    for name in spec.input_names() {
        match impl_net.input_names().iter().position(|n| n == name) {
            Some(i) => input_map.push(i),
            None => missing.push(name),
        }
    }
    if !missing.is_empty() {
        return Err(VerifyError::InputMismatch {
            detail: format!("spec inputs not in impl: {}", missing.join(", ")),
        });
    }
    if let Some(extra) = impl_net
        .input_names()
        .iter()
        .find(|n| !spec.input_names().contains(n))
    {
        return Err(VerifyError::InputMismatch {
            detail: format!("impl input `{extra}` not in spec"),
        });
    }
    let spec_outputs = combined.splice_nodes(spec, &input_map)?;
    Ok((combined, spec_outputs))
}

/// Pairs every output the `side` (`spec` or `table`) names with the
/// implementation output of the same name, as an index into
/// `impl_net.outputs()`; both sides must expose the same name set.
fn pair_outputs(
    impl_net: &Network,
    names: &[String],
    side: &str,
) -> Result<Vec<usize>, VerifyError> {
    let mut paired = Vec::with_capacity(names.len());
    for name in names {
        let f = impl_net.outputs().iter().position(|(n, _)| n == name);
        paired.push(f.ok_or_else(|| VerifyError::InputMismatch {
            detail: format!("{side} output `{name}` has no impl counterpart"),
        })?);
    }
    if let Some((extra, _)) = impl_net.outputs().iter().find(|(n, _)| !names.contains(n)) {
        return Err(VerifyError::InputMismatch {
            detail: format!("impl output `{extra}` has no {side} counterpart"),
        });
    }
    Ok(paired)
}

/// Checks two completely specified networks for functional equivalence,
/// output by output. Outputs are paired by name; both sides must expose
/// the same output and input name sets.
///
/// # Errors
///
/// [`VerifyError::InputMismatch`] when the interfaces disagree,
/// [`VerifyError::TooLarge`] when exact flattening exceeds the cube
/// cap. An *inequivalence* is not an error: it comes back in
/// [`Report::mismatches`].
pub fn check_equivalence_traced(
    impl_net: &Network,
    spec_net: &Network,
    options: &Options,
    tracer: &Tracer,
) -> Result<Report, VerifyError> {
    let (mut combined, spec_outputs) = splice(impl_net, spec_net)?;
    let names: Vec<String> = spec_outputs.iter().map(|(n, _)| n.clone()).collect();
    let paired = pair_outputs(impl_net, &names, "spec")?;
    let mut obligations = Vec::with_capacity(paired.len());
    for (f, (name, node)) in paired.into_iter().zip(spec_outputs) {
        // An unnamed output keeps the spec node live through strash.
        let spec = Spec::Node(combined.outputs().len());
        combined.mark_output("", node);
        obligations.push(Obligation { name, f, spec });
    }
    decide(combined, &obligations, options, tracer)
}

/// Checks an implementation network against a [`TruthTable`]
/// specification with don't-cares: for every output, the implementation
/// must sit between ON ∖ DC and ON ∪ DC. A fully specified table (no
/// `-` outputs) degenerates to plain equivalence.
///
/// # Errors
///
/// As [`check_equivalence_traced`]; the table's input/output names must
/// match the network's.
pub fn check_against_table_traced(
    impl_net: &Network,
    table: &TruthTable,
    options: &Options,
    tracer: &Tracer,
) -> Result<Report, VerifyError> {
    if impl_net.input_names() != table.input_names() {
        return Err(VerifyError::InputMismatch {
            detail: format!(
                "impl inputs [{}] do not match table inputs [{}]",
                impl_net.input_names().join(", "),
                table.input_names().join(", ")
            ),
        });
    }
    let paired = pair_outputs(impl_net, table.output_names(), "table")?;
    let mut obligations = Vec::with_capacity(paired.len());
    for (o, (name, f)) in table.output_names().iter().zip(paired).enumerate() {
        let (on, dc) = (table.on_cover(o)?, table.dc_cover(o)?);
        obligations.push(Obligation {
            name: name.clone(),
            f,
            spec: Spec::Table { on, dc },
        });
    }
    decide(impl_net.clone(), &obligations, options, tracer)
}

/// The decision procedure: strash, simulate, decide exactly, report.
/// `combined` holds every node any obligation names.
fn decide(
    mut combined: Network,
    obligations: &[Obligation],
    options: &Options,
    tracer: &Tracer,
) -> Result<Report, VerifyError> {
    let strash_merged = {
        let mut s = span!(tracer, "verify.strash");
        let merged = combined.strash();
        s.attr("merged", merged as u64);
        merged
    };
    let node = |output: usize| combined.outputs()[output].1.index();
    let names = combined.input_names();

    // Tier 2: word-parallel refutation. Candidate-equivalence classes
    // only mean something when some spec is itself a node; then rounds
    // stop once the partition is stable. Against tables alone they stop
    // once nothing is left to refute.
    let refine = obligations
        .iter()
        .any(|ob| matches!(ob.spec, Spec::Node(_)));
    let mut rng = StdRng::seed_from_u64(options.seed);
    let mut refuted: Vec<Option<String>> = vec![None; obligations.len()];
    let mut classes: Vec<u32> = vec![0; combined.len()];
    let mut class_count = 1usize;
    let mut rounds = 0usize;
    {
        let mut s = span!(tracer, "verify.sim");
        for round in 0..options.sim_rounds {
            rounds = round + 1;
            let words = input_words(names.len(), round, &mut rng);
            let values = combined.eval64(&words);
            for (ob, verdict) in obligations.iter().zip(&mut refuted) {
                if verdict.is_some() {
                    continue;
                }
                let f = values[node(ob.f)];
                let (lo, hi) = match &ob.spec {
                    Spec::Node(spec) => (values[node(*spec)], values[node(*spec)]),
                    Spec::Table { on, dc } => {
                        let on = cover_word(on, |i| words[i]);
                        let dc = cover_word(dc, |i| words[i]);
                        (on & !dc, on | dc)
                    }
                };
                let bad = (lo & !f) | (f & !hi);
                if bad != 0 {
                    // In a bad lane the spec demands the opposite bit.
                    let lane = bad.trailing_zeros();
                    let bit = (f >> lane) & 1;
                    *verdict = Some(format!(
                        "output `{}`: impl={bit} spec={} under {}",
                        ob.name,
                        bit ^ 1,
                        render_lane(names, &words, lane)
                    ));
                }
            }
            let settled = if refine {
                // Nodes stay together only while their signatures agree.
                let mut next: HashMap<(u32, u64), u32> = HashMap::new();
                let mut changed = false;
                for (class, &v) in classes.iter_mut().zip(&values) {
                    let len = next.len() as u32;
                    let refined = *next.entry((*class, v)).or_insert(len);
                    changed |= refined != *class;
                    *class = refined;
                }
                class_count = next.len();
                !changed && round > 0
            } else {
                refuted.iter().all(Option::is_some)
            };
            if settled {
                break;
            }
        }
        s.attr("rounds", rounds as u64);
        if refine {
            s.attr("classes", class_count as u64);
        }
    }
    let sim_refuted = refuted.iter().flatten().count();
    tracer.add("verify.sim_refuted", sim_refuted as u64);

    // Tier 3: exact containment for whatever simulation could not
    // refute and strash did not already merge with its spec.
    let undecided: Vec<&Obligation> = obligations
        .iter()
        .zip(&refuted)
        .filter(|(ob, refuted)| {
            refuted.is_none() && !matches!(ob.spec, Spec::Node(spec) if node(spec) == node(ob.f))
        })
        .map(|(ob, _)| ob)
        .collect();
    let mut mismatches: Vec<String> = refuted.iter().flatten().cloned().collect();
    if !undecided.is_empty() {
        let mut s = span!(tracer, "verify.exact");
        let mut phases = Phases::new(&combined, options.cube_cap);
        let mut scratch = Scratch::default();
        // Complements taken here, all of them to word a failure.
        let mut complements = 0;
        for ob in &undecided {
            let f = node(ob.f);
            // A failure is a cube where `f` leaves `[lo, hi]`. Whether
            // there is one takes two containments and no complement; the
            // OFF phases and complements are for finding the cube.
            let failure = match &ob.spec {
                Spec::Node(spec) => {
                    let g = node(*spec);
                    phases.demand(&[(f, true), (g, true)])?;
                    let (f_on, on) = (phases.get(f, true), phases.get(g, true));
                    if scratch.covers(f_on, on) && scratch.covers(on, f_on) {
                        None
                    } else {
                        phases.demand(&[(f, false), (g, false)])?;
                        let cube = witness(phases.get(f, true), phases.get(g, false))
                            .or_else(|| witness(phases.get(f, false), phases.get(g, true)));
                        Some(("impl and spec differ", cube))
                    }
                }
                Spec::Table { on, dc } => {
                    phases.demand(&[(f, true)])?;
                    let hi = on.union(dc)?;
                    if !scratch.covers(&phases.get(f, true).union(dc)?, on) {
                        phases.demand(&[(f, false)])?;
                        complements += 1;
                        let lo = intersect_covers(on, &complement_cover(dc));
                        let cube = witness(&lo, phases.get(f, false));
                        Some(("impl drops required ON-set", cube))
                    } else if !scratch.covers(&hi, phases.get(f, true)) {
                        complements += 1;
                        let cube = witness(phases.get(f, true), &complement_cover(&hi));
                        Some(("impl asserts outside ON \u{222a} DC", cube))
                    } else {
                        None
                    }
                }
            };
            if let Some((what, cube)) = failure {
                let place = cube.map_or_else(
                    || "unknown input".to_string(),
                    |cube| render_cube(names, &cube),
                );
                mismatches.push(format!("output `{}`: {what} (e.g. under {place})", ob.name));
            }
        }
        s.attr("decided", undecided.len() as u64);
        s.attr("tautology_calls", scratch.questions());
        s.attr("complements", phases.complements + complements);
    }

    mismatches.sort();
    tracer.add("verify.outputs", obligations.len() as u64);
    tracer.add("verify.strash_merged", strash_merged as u64);
    tracer.add("verify.exact_decided", undecided.len() as u64);
    tracer.add("verify.mismatches", mismatches.len() as u64);
    Ok(Report {
        equivalent: mismatches.is_empty(),
        outputs: obligations.len(),
        strash_merged,
        sim_rounds: rounds,
        sim_refuted,
        exact_decided: undecided.len(),
        mismatches,
    })
}

/// Pairwise cube intersection of two covers (the AND of the functions).
fn intersect_covers(a: &Cover, b: &Cover) -> Cover {
    let n = a.num_inputs();
    let cubes = a
        .cubes()
        .iter()
        .flat_map(|x| b.cubes().iter().filter_map(move |y| x.intersect(y)))
        .collect();
    Cover::from_cubes(n, cubes).expect("widths agree")
}

/// Some cube inside both `a` and `b`, if they meet.
fn witness(a: &Cover, b: &Cover) -> Option<Cube> {
    intersect_covers(a, b).cubes().first().cloned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use silc_logic::TruthTable;

    fn table_network(table: &TruthTable) -> Network {
        let outputs: Vec<(String, Cover)> = table
            .output_names()
            .iter()
            .enumerate()
            .map(|(o, n)| (n.clone(), table.on_cover(o).unwrap()))
            .collect();
        Network::from_covers(table.input_names(), &outputs).unwrap()
    }

    #[test]
    fn identical_tables_are_equivalent() {
        let t =
            TruthTable::parse_pla(".i 3\n.o 2\n.ilb a b c\n.ob f g\n1-0 10\n-11 01\n.e\n").unwrap();
        let net = table_network(&t);
        let r =
            check_equivalence_traced(&net, &net.clone(), &Options::default(), &Tracer::disabled())
                .unwrap();
        assert!(r.equivalent, "{:?}", r.mismatches);
        assert_eq!(r.outputs, 2);
        // Identical cones collapse structurally.
        assert!(r.strash_merged >= 2);
    }

    #[test]
    fn single_cube_mutation_is_refuted() {
        let spec =
            TruthTable::parse_pla(".i 3\n.o 1\n.ilb a b c\n.ob f\n1-0 1\n011 1\n.e\n").unwrap();
        let broken =
            TruthTable::parse_pla(".i 3\n.o 1\n.ilb a b c\n.ob f\n1-0 1\n010 1\n.e\n").unwrap();
        let r = check_equivalence_traced(
            &table_network(&broken),
            &table_network(&spec),
            &Options::default(),
            &Tracer::disabled(),
        )
        .unwrap();
        assert!(!r.equivalent);
        assert_eq!(r.mismatches.len(), 1);
        assert!(
            r.mismatches[0].contains("output `f`"),
            "{}",
            r.mismatches[0]
        );
    }

    #[test]
    fn dont_cares_permit_either_phase() {
        // Spec: f is ON at 11, DC at 10, OFF elsewhere.
        let spec = TruthTable::parse_pla(".i 2\n.o 1\n.ilb a b\n.ob f\n11 1\n10 -\n.e\n").unwrap();
        // Impl 1: f = a·b (DC resolved low).
        let low = Network::from_covers(
            &["a".into(), "b".into()],
            &[(
                "f".into(),
                Cover::from_cubes(2, vec![Cube::parse("11").unwrap()]).unwrap(),
            )],
        )
        .unwrap();
        // Impl 2: f = a (DC resolved high).
        let high = Network::from_covers(
            &["a".into(), "b".into()],
            &[(
                "f".into(),
                Cover::from_cubes(2, vec![Cube::parse("1-").unwrap()]).unwrap(),
            )],
        )
        .unwrap();
        // Impl 3: f = a + b (asserts at 01, outside ON ∪ DC).
        let wrong = Network::from_covers(
            &["a".into(), "b".into()],
            &[(
                "f".into(),
                Cover::from_cubes(
                    2,
                    vec![Cube::parse("1-").unwrap(), Cube::parse("-1").unwrap()],
                )
                .unwrap(),
            )],
        )
        .unwrap();
        let opts = Options::default();
        let t = Tracer::disabled();
        assert!(
            check_against_table_traced(&low, &spec, &opts, &t)
                .unwrap()
                .equivalent
        );
        assert!(
            check_against_table_traced(&high, &spec, &opts, &t)
                .unwrap()
                .equivalent
        );
        let r = check_against_table_traced(&wrong, &spec, &opts, &t).unwrap();
        assert!(!r.equivalent);
        assert!(r.mismatches[0].contains("f"), "{}", r.mismatches[0]);
    }

    /// With simulation off every output reaches the exact tier, whose
    /// three mismatch texts front-ends print verbatim.
    #[test]
    fn exact_tier_mismatch_texts_are_pinned() {
        let net = |cubes: &[&str]| {
            let cubes = cubes.iter().map(|c| Cube::parse(c).unwrap()).collect();
            let f = Cover::from_cubes(2, cubes).unwrap();
            Network::from_covers(&["a".into(), "b".into()], &[("f".into(), f)]).unwrap()
        };
        let exact = Options {
            sim_rounds: 0,
            ..Options::default()
        };
        let t = Tracer::disabled();
        let r = check_equivalence_traced(&net(&["11"]), &net(&["1-"]), &exact, &t).unwrap();
        assert_eq!((r.sim_rounds, r.exact_decided), (0, 1));
        assert_eq!(
            r.mismatches,
            ["output `f`: impl and spec differ (e.g. under a=1 b=0)"]
        );
        let spec = TruthTable::parse_pla(".i 2\n.o 1\n.ilb a b\n.ob f\n11 1\n10 -\n.e\n").unwrap();
        let r = check_against_table_traced(&net(&["0-"]), &spec, &exact, &t).unwrap();
        assert_eq!(
            r.mismatches,
            ["output `f`: impl drops required ON-set (e.g. under a=1 b=1)"]
        );
        let r = check_against_table_traced(&net(&["1-", "-1"]), &spec, &exact, &t).unwrap();
        assert_eq!(
            r.mismatches,
            ["output `f`: impl asserts outside ON \u{222a} DC (e.g. under a=0 b=1)"]
        );
    }

    /// Whether `f` sits in `[lo, hi]` is two containments; a complement
    /// is taken only to find the cube a failure names.
    #[test]
    fn exact_tier_complements_only_to_word_a_failure() {
        let spec = TruthTable::parse_pla(
            ".i 4\n.o 2\n.ilb a b c d\n.ob f g\n11-- 10\n1-1- 1-\n-011 01\n0000 -1\n.e\n",
        )
        .unwrap();
        let exact = Options {
            sim_rounds: 0,
            ..Options::default()
        };
        let attrs = |net: &Network| {
            let tracer = Tracer::enabled();
            let report = check_against_table_traced(net, &spec, &exact, &tracer).unwrap();
            let spans = tracer.finish();
            let span = spans.spans().iter().find(|s| s.name == "verify.exact");
            let attr = |key| {
                span.unwrap()
                    .attrs
                    .iter()
                    .find(|(k, _)| *k == key)
                    .unwrap()
                    .1
            };
            (
                report.equivalent,
                attr("tautology_calls"),
                attr("complements"),
            )
        };
        let (equivalent, calls, complements) = attrs(&table_network(&spec));
        assert!(equivalent);
        // One question a cube: ON against f ∪ DC, then f against ON ∪ DC.
        assert_eq!((calls, complements), (2 + 2 + 2 + 2, 0));
        let broken = TruthTable::parse_pla(
            ".i 4\n.o 2\n.ilb a b c d\n.ob f g\n11-- 10\n1-1- 10\n-011 01\n0-0- 01\n.e\n",
        )
        .unwrap();
        let (equivalent, _, complements) = attrs(&table_network(&broken));
        assert!(!equivalent);
        // `f` stands; `g` asserts outside ON ∪ DC, and the complement of
        // that bound is where the witness is looked for.
        assert_eq!(complements, 1);
    }

    #[test]
    fn interface_mismatches_are_errors_not_verdicts() {
        let a = Network::from_covers(
            &["a".into()],
            &[(
                "f".into(),
                Cover::from_cubes(1, vec![Cube::parse("1").unwrap()]).unwrap(),
            )],
        )
        .unwrap();
        let b = Network::from_covers(
            &["b".into()],
            &[(
                "f".into(),
                Cover::from_cubes(1, vec![Cube::parse("1").unwrap()]).unwrap(),
            )],
        )
        .unwrap();
        let err =
            check_equivalence_traced(&a, &b, &Options::default(), &Tracer::disabled()).unwrap_err();
        assert!(matches!(err, VerifyError::InputMismatch { .. }), "{err}");
    }

    #[test]
    fn deep_networks_need_the_exact_tier() {
        // A 8-input parity chain vs its flat two-level form: random
        // simulation alone cannot *prove* these equal; the exact tier
        // must close it. (It can of course refute a mutation.)
        let n = 8usize;
        let xor2 = Cover::from_cubes(
            2,
            vec![Cube::parse("10").unwrap(), Cube::parse("01").unwrap()],
        )
        .unwrap();
        let mut chain = Network::new();
        let inputs: Vec<_> = (0..n).map(|i| chain.add_input(format!("x{i}"))).collect();
        let mut acc = inputs[0];
        for &x in &inputs[1..] {
            acc = chain.add_cone(vec![acc, x], xor2.clone(), false).unwrap();
        }
        chain.mark_output("p", acc);

        let names: Vec<String> = (0..n).map(|i| format!("x{i}")).collect();
        let flat_cover = Cover::from_minterms(
            n,
            &(0..(1u64 << n))
                .filter(|m| m.count_ones() % 2 == 1)
                .collect::<Vec<_>>(),
        );
        let flat = Network::from_covers(&names, &[("p".into(), flat_cover)]).unwrap();

        let r = check_equivalence_traced(&chain, &flat, &Options::default(), &Tracer::disabled())
            .unwrap();
        assert!(r.equivalent, "{:?}", r.mismatches);
        assert_eq!(r.exact_decided, 1);
    }
}
