//! The minimizer's output, cube for cube and in order, on a dozen seeded
//! tables at 8–16 inputs with and without don't-cares. `pins.txt` was
//! written by the `Vec<Lit>` cube calculus this crate had before cubes
//! were packed into words; a kernel that answers a containment question
//! differently, or a sort that stops being stable, moves a line of it.

mod gen;

use silc_logic::minimize_heuristic;

#[test]
fn minimized_covers_are_pinned() {
    let mut pinned = include_str!("pins.txt").lines();
    for shape in &gen::PINNED {
        assert_eq!(pinned.next(), Some(format!("table {shape:?}").as_str()));
        let table = gen::table(shape);
        for o in 0..table.num_outputs() {
            let (on, dc) = (table.on_cover(o).unwrap(), table.dc_cover(o).unwrap());
            let cover = minimize_heuristic(&on, &dc).unwrap().to_string();
            assert_eq!(pinned.next(), Some(cover.as_str()), "{shape:?} output {o}");
        }
    }
    assert_eq!(pinned.next(), None);
}
