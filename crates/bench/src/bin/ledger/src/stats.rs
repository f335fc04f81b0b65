//! Summaries of timing samples.

use std::time::Instant;

/// Median of `values` (mean of the middle two for an even count). Zero
/// for no samples, which callers rule out.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `pct`-th percentile by nearest rank, or `None` unless at least ten
/// samples lie beyond it: a tail read off fewer is one outlier's value.
pub fn percentile(values: &[f64], pct: f64) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * v.len() as f64).ceil() as usize;
    (rank >= 1 && v.len() - rank.min(v.len()) >= 10).then(|| v[rank - 1])
}

/// A fixed piece of work, timed: the machine's speed right now. Run at
/// the start and the end of a workload; if the two differ by more than a
/// tenth, something else had the processor and the run is marked noisy.
///
/// Four independent multiply chains, each step also reading a 2 MB table
/// at a data-dependent place: work that is bound by issue width and the
/// cache, as the compiler's is. (A single dependent chain in registers
/// keeps its pace next to a busy sibling thread and notices nothing.)
///
/// The reading is the fastest of five spins, for the reason the ops are
/// read that way (`workload::Pace`); the first spins of a process that
/// has just started also run at half speed on this box.
pub fn calibration_ms() -> f64 {
    let table: Vec<u64> = (0..1u64 << 18)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    (0..5)
        .map(|_| spin_ms(&table))
        .fold(f64::INFINITY, f64::min)
}

fn spin_ms(table: &[u64]) -> f64 {
    let start = Instant::now();
    let mut x = [1u64, 2, 3, 4];
    for i in 0..2_000_000u64 {
        for lane in &mut x {
            let at = (*lane >> 40) as usize & (table.len() - 1);
            *lane = (*lane ^ table[at] ^ i).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        }
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), Some(190.0));
        // 199 samples leave nine beyond the 95th.
        assert_eq!(percentile(&v[..199], 95.0), None);
        assert_eq!(percentile(&v[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&v[..19], 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }
}
