use crate::{Cover, Cube, Lit, LogicError, Scratch};
use std::collections::HashSet;

/// Maximum input count accepted by the exact (minterm-enumerating)
/// algorithms.
const MAX_EXACT_INPUTS: usize = 14;

/// Computes all prime implicants of the function `on ∪ dc` that cover at
/// least one ON-set minterm, by the Quine–McCluskey iterated-consensus
/// procedure.
///
/// # Errors
///
/// Returns [`LogicError::TooWideForExact`] beyond 14 inputs.
///
/// # Example
///
/// ```
/// use silc_logic::{prime_implicants, Cover};
/// let on = Cover::from_minterms(2, &[0b01, 0b11, 0b10]);
/// let primes = prime_implicants(&on, &Cover::empty(2))?;
/// // Primes of a+b are exactly {1-, -1}.
/// assert_eq!(primes.len(), 2);
/// # Ok::<(), silc_logic::LogicError>(())
/// ```
pub fn prime_implicants(on: &Cover, dc: &Cover) -> Result<Vec<Cube>, LogicError> {
    let n = on.num_inputs();
    if n > MAX_EXACT_INPUTS {
        return Err(LogicError::TooWideForExact {
            inputs: n,
            max: MAX_EXACT_INPUTS,
        });
    }
    if n == 0 {
        return Ok(Vec::new());
    }
    let on_minterms: HashSet<u64> = on.minterms().into_iter().collect();
    let mut current: HashSet<Cube> = on_minterms
        .iter()
        .chain(dc.minterms().iter())
        .map(|&m| Cube::from_minterm(n, m))
        .collect();
    let mut primes: Vec<Cube> = Vec::new();

    while !current.is_empty() {
        let cubes: Vec<Cube> = current.iter().cloned().collect();
        let mut merged_flag = vec![false; cubes.len()];
        let mut next: HashSet<Cube> = HashSet::new();
        for i in 0..cubes.len() {
            for j in (i + 1)..cubes.len() {
                if let Some(m) = cubes[i].merge_adjacent(&cubes[j]) {
                    merged_flag[i] = true;
                    merged_flag[j] = true;
                    next.insert(m);
                }
            }
        }
        for (i, cube) in cubes.iter().enumerate() {
            if !merged_flag[i] {
                primes.push(cube.clone());
            }
        }
        current = next;
    }

    // Keep only primes that cover at least one ON minterm (pure-DC primes
    // are useless in a cover).
    primes.retain(|p| p.minterms().iter().any(|m| on_minterms.contains(m)));
    // Deduplicate (merging from different pairs can produce repeats).
    let mut seen = HashSet::new();
    primes.retain(|p| seen.insert(p.clone()));
    Ok(primes)
}

/// Exact two-level minimization: Quine–McCluskey primes followed by
/// branch-and-bound minimum covering. The result has the minimum possible
/// number of product terms (ties broken toward fewer literals).
///
/// `dc` lists don't-care minterms that the result may, but need not,
/// cover.
///
/// # Errors
///
/// Returns [`LogicError::TooWideForExact`] beyond 14 inputs.
pub fn minimize_exact(on: &Cover, dc: &Cover) -> Result<Cover, LogicError> {
    let n = on.num_inputs();
    let primes = prime_implicants(on, dc)?;
    let on_minterms: Vec<u64> = on.minterms();
    if on_minterms.is_empty() {
        return Ok(Cover::empty(n));
    }

    // Coverage sets: for each ON minterm, which primes cover it.
    let cover_sets: Vec<Vec<usize>> = on_minterms
        .iter()
        .map(|&m| {
            (0..primes.len())
                .filter(|&p| primes[p].covers_minterm(m))
                .collect()
        })
        .collect();

    let mut best: Option<Vec<usize>> = None;
    let mut chosen: Vec<usize> = Vec::new();
    branch(
        &cover_sets,
        &primes,
        &mut vec![false; on_minterms.len()],
        &mut chosen,
        &mut best,
    );
    // Every ON minterm is covered by at least one prime, so branch-and-
    // bound must find some selection; if it did not, an internal cover
    // invariant was violated and the caller gets a real error rather than
    // a worker-killing panic.
    let selection = best.ok_or_else(|| LogicError::CoverInvariant {
        detail: "exact covering found no selection: an ON minterm has no covering prime"
            .to_string(),
    })?;
    let cubes = selection.into_iter().map(|i| primes[i].clone()).collect();
    Cover::from_cubes(n, cubes)
}

/// Recursive branch-and-bound over the covering problem.
fn branch(
    cover_sets: &[Vec<usize>],
    primes: &[Cube],
    covered: &mut Vec<bool>,
    chosen: &mut Vec<usize>,
    best: &mut Option<Vec<usize>>,
) {
    // Prune: already no better than best.
    if let Some(b) = best {
        if chosen.len() >= b.len() {
            return;
        }
    }
    // Find first uncovered minterm.
    let next = match covered.iter().position(|&c| !c) {
        Some(i) => i,
        None => {
            let better = match best {
                Some(b) => {
                    chosen.len() < b.len()
                        || (chosen.len() == b.len()
                            && literal_cost(chosen, primes) < literal_cost(b, primes))
                }
                None => true,
            };
            if better {
                *best = Some(chosen.clone());
            }
            return;
        }
    };
    // Branch over every prime covering it (most-coverage first for better
    // early bounds).
    let mut candidates = cover_sets[next].clone();
    candidates.sort_by_key(|&p| {
        std::cmp::Reverse(
            cover_sets
                .iter()
                .zip(covered.iter())
                .filter(|(set, &cov)| !cov && set.contains(&p))
                .count(),
        )
    });
    for p in candidates {
        let newly: Vec<usize> = cover_sets
            .iter()
            .enumerate()
            .filter(|(i, set)| !covered[*i] && set.contains(&p))
            .map(|(i, _)| i)
            .collect();
        for &i in &newly {
            covered[i] = true;
        }
        chosen.push(p);
        branch(cover_sets, primes, covered, chosen, best);
        chosen.pop();
        for &i in &newly {
            covered[i] = false;
        }
    }
}

fn literal_cost(selection: &[usize], primes: &[Cube]) -> usize {
    selection.iter().map(|&i| primes[i].literal_count()).sum()
}

/// Espresso-style heuristic minimization: iterated EXPAND (free literals
/// while the enlarged cube stays inside `on ∪ dc`) and IRREDUNDANT (drop
/// cubes covered by the rest of the cover plus `dc`), until the term count
/// stops improving.
///
/// Unlike [`minimize_exact`] this never enumerates minterms, so it works
/// at any width; the result is a valid, irredundant (though not always
/// minimum) cover.
///
/// # Errors
///
/// Returns [`LogicError::WidthMismatch`] when `on` and `dc` widths differ.
///
/// # Example
///
/// ```
/// use silc_logic::{minimize_heuristic, Cover, Cube};
/// let on = Cover::from_cubes(2, vec![
///     Cube::parse("01")?, Cube::parse("11")?, Cube::parse("10")?,
/// ])?;
/// let min = minimize_heuristic(&on, &Cover::empty(2))?;
/// assert_eq!(min.len(), 2); // a + b
/// # Ok::<(), silc_logic::LogicError>(())
/// ```
pub fn minimize_heuristic(on: &Cover, dc: &Cover) -> Result<Cover, LogicError> {
    let n = on.num_inputs();
    if dc.num_inputs() != n {
        return Err(LogicError::WidthMismatch {
            expected: n,
            found: dc.num_inputs(),
        });
    }
    // The permissible function: anything inside on ∪ dc.
    let permitted = on.union(dc)?;
    let mut scratch = Scratch::default();

    let mut current = on.clone();
    current.remove_single_cube_contained();
    let mut last_len = usize::MAX;
    while current.len() < last_len {
        last_len = current.len();
        current = expand(&current, &permitted, &mut scratch);
        current = irredundant(&current, dc, &mut scratch);
        debug_assert!(current.union(dc)?.covers(on));
    }
    Ok(current)
}

/// EXPAND: grow each cube literal-by-literal while it remains inside the
/// permitted function, then drop cubes newly contained in a grown one.
fn expand(cover: &Cover, permitted: &Cover, scratch: &mut Scratch) -> Cover {
    let n = cover.num_inputs();
    let mut cubes: Vec<Cube> = cover.cubes().to_vec();
    // Expand small cubes first: they benefit most.
    cubes.sort_by_key(|c| std::cmp::Reverse(c.literal_count()));
    let mut out: Vec<Cube> = Vec::with_capacity(cubes.len());
    for mut grown in cubes {
        for i in 0..n {
            // The cube is inside already, so freeing a literal stays
            // inside exactly when the half it adds is.
            let (lit, other) = match grown.lit(i) {
                Lit::Zero => (Lit::Zero, Lit::One),
                Lit::One => (Lit::One, Lit::Zero),
                Lit::DontCare => continue,
            };
            grown.set_lit(i, other);
            let inside = scratch.covers_cube(permitted, &grown);
            grown.set_lit(i, if inside { Lit::DontCare } else { lit });
        }
        if !out.iter().any(|k: &Cube| k.covers_cube(&grown)) {
            out.retain(|k| !grown.covers_cube(k));
            out.push(grown);
        }
    }
    Cover::from_cubes(n, out).expect("widths preserved")
}

/// IRREDUNDANT: remove cubes that the rest of the cover plus the don't-care
/// set already covers. Scans cubes largest-first so big redundant cubes go
/// before the small ones they shadow.
fn irredundant(cover: &Cover, dc: &Cover, scratch: &mut Scratch) -> Cover {
    let mut cubes: Vec<Cube> = cover.cubes().to_vec();
    cubes.sort_by_key(Cube::literal_count);
    let mut keep = vec![true; cubes.len()];
    for i in 0..cubes.len() {
        // The cube is redundant only if removing it still covers it.
        keep[i] = false;
        let rest = cubes.iter().zip(&keep).filter(|(_, &k)| k).map(|(c, _)| c);
        keep[i] = !scratch.covered(rest.chain(dc.cubes()), &cubes[i]);
    }
    let mut keep = keep.into_iter();
    cubes.retain(|_| keep.next().expect("one flag a cube"));
    Cover::from_cubes(cover.num_inputs(), cubes).expect("widths preserved")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cover(n: usize, cubes: &[&str]) -> Cover {
        Cover::from_cubes(n, cubes.iter().map(|s| Cube::parse(s).unwrap()).collect()).unwrap()
    }

    #[test]
    fn primes_of_or() {
        let on = Cover::from_minterms(2, &[0b01, 0b10, 0b11]);
        let mut primes: Vec<String> = prime_implicants(&on, &Cover::empty(2))
            .unwrap()
            .iter()
            .map(|c| c.to_string())
            .collect();
        primes.sort();
        assert_eq!(primes, vec!["-1", "1-"]);
    }

    #[test]
    fn exact_minimizes_or() {
        let on = cover(2, &["01", "11", "10"]);
        let min = minimize_exact(&on, &Cover::empty(2)).unwrap();
        assert_eq!(min.len(), 2);
        assert!(min.equivalent(&cover(2, &["1-", "-1"])));
    }

    #[test]
    fn exact_uses_dont_cares() {
        // f on = {1}, dc = {3}: with dc the single cube -1 suffices.
        let on = Cover::from_minterms(2, &[0b01]);
        let dc = Cover::from_minterms(2, &[0b11]);
        let min = minimize_exact(&on, &dc).unwrap();
        assert_eq!(min.len(), 1);
        assert_eq!(min.cubes()[0].to_string(), "-1");
    }

    #[test]
    fn exact_on_empty_function() {
        let min = minimize_exact(&Cover::empty(3), &Cover::empty(3)).unwrap();
        assert!(min.is_empty());
    }

    #[test]
    fn exact_on_tautology() {
        let on = Cover::from_minterms(2, &[0, 1, 2, 3]);
        let min = minimize_exact(&on, &Cover::empty(2)).unwrap();
        assert_eq!(min.len(), 1);
        assert_eq!(min.cubes()[0].literal_count(), 0);
    }

    #[test]
    fn exact_classic_qm_example() {
        // The textbook example: f(a,b,c,d) = Σ(4,8,10,11,12,15), dc(9,14).
        let on = Cover::from_minterms(4, &[4, 8, 10, 11, 12, 15]);
        let dc = Cover::from_minterms(4, &[9, 14]);
        let min = minimize_exact(&on, &dc).unwrap();
        // The don't-cares admit a 3-term minimum, e.g. -100 + 10-- + 1-1-.
        assert_eq!(min.len(), 3, "got {min}");
        for m in on.minterms() {
            assert!(min.eval(m), "minterm {m} lost");
        }
        for m in 0..16u64 {
            if min.eval(m) {
                assert!(on.eval(m) || dc.eval(m), "minterm {m} invented");
            }
        }
    }

    #[test]
    fn too_wide_rejected() {
        let on = Cover::empty(20);
        assert!(matches!(
            prime_implicants(&on, &Cover::empty(20)),
            Err(LogicError::TooWideForExact { .. })
        ));
    }

    #[test]
    fn heuristic_minimizes_or() {
        let on = cover(2, &["01", "11", "10"]);
        let min = minimize_heuristic(&on, &Cover::empty(2)).unwrap();
        assert_eq!(min.len(), 2);
        assert!(min.equivalent(&cover(2, &["1-", "-1"])));
    }

    #[test]
    fn heuristic_removes_redundant_middle_cube() {
        // ab + a'c + bc: bc is the classic redundant consensus term.
        let on = cover(3, &["11-", "0-1", "-11"]);
        let min = minimize_heuristic(&on, &Cover::empty(3)).unwrap();
        assert!(min.len() <= 2, "got {min}");
        assert!(min.equivalent(&cover(3, &["11-", "0-1"])));
    }

    #[test]
    fn heuristic_respects_width_mismatch() {
        let on = Cover::empty(3);
        let dc = Cover::empty(2);
        assert!(minimize_heuristic(&on, &dc).is_err());
    }

    fn arb_minterms(n: usize) -> impl Strategy<Value = Vec<u64>> {
        prop::collection::btree_set(0u64..(1 << n), 0..(1 << n))
            .prop_map(|s| s.into_iter().collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]
        #[test]
        fn exact_result_is_equivalent_and_no_bigger(ms in arb_minterms(4)) {
            let on = Cover::from_minterms(4, &ms);
            let min = minimize_exact(&on, &Cover::empty(4)).unwrap();
            prop_assert!(min.equivalent(&on));
            prop_assert!(min.len() <= on.len());
        }

        #[test]
        fn heuristic_result_is_equivalent(ms in arb_minterms(4)) {
            let on = Cover::from_minterms(4, &ms);
            let min = minimize_heuristic(&on, &Cover::empty(4)).unwrap();
            prop_assert!(min.equivalent(&on));
            prop_assert!(min.len() <= on.len().max(1));
        }

        #[test]
        fn heuristic_never_beats_exact_by_validity(
            on_ms in arb_minterms(4), dc_ms in arb_minterms(4),
        ) {
            // With don't-cares, both must stay within on ∪ dc and cover on.
            let dc_only: Vec<u64> = dc_ms.iter().copied()
                .filter(|m| !on_ms.contains(m)).collect();
            let on = Cover::from_minterms(4, &on_ms);
            let dc = Cover::from_minterms(4, &dc_only);
            let exact = minimize_exact(&on, &dc).unwrap();
            let heur = minimize_heuristic(&on, &dc).unwrap();
            for m in 0..16u64 {
                if on.eval(m) {
                    prop_assert!(exact.eval(m));
                    prop_assert!(heur.eval(m));
                } else if !dc.eval(m) {
                    prop_assert!(!exact.eval(m));
                    prop_assert!(!heur.eval(m));
                }
            }
            // Exact is truly minimum, so never larger than the heuristic.
            prop_assert!(exact.len() <= heur.len());
        }
    }
}
