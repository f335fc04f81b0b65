//! The one random source of the benchmark: splitmix64, so a corpus
//! replays byte for byte from `--seed` alone on any toolchain.

#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for one purpose: `label` keeps the streams of different
    /// generators apart, so adding a draw to one never shifts another.
    pub fn new(seed: u64, label: &str) -> Rng {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in label.as_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        let mut rng = Rng(seed ^ h);
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (`hi` excluded). The modulo bias is below
    /// 2^-50 for the small ranges drawn here.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo < hi);
        lo + (self.next_u64() % (hi - lo) as u64) as i64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// True with probability `percent` in a hundred.
    pub fn chance(&mut self, percent: u64) -> bool {
        self.next_u64() % 100 < percent
    }
}
