//! Seeded randomness for the soak harness (splitmix64).
//!
//! One `--seed` must reproduce an entire soak byte-for-byte: the fleet
//! plan, every user's think-time jitter and the ingest content stream.
//! Each of those consumers draws from its own
//! *derived* stream ([`SeedRng::derived`]) so the streams are
//! independent of each other and of construction order — adding a draw
//! to one consumer can never shift the values another consumer sees.

/// A splitmix64 generator: tiny state, full 64-bit period, and good
/// enough statistics for workload shaping (this is not a crypto RNG).
#[derive(Debug, Clone)]
pub struct SeedRng {
    state: u64,
}

/// One splitmix64 output step over an explicit state word.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SeedRng {
    /// A generator seeded directly with `seed`.
    pub fn new(seed: u64) -> SeedRng {
        SeedRng { state: seed }
    }

    /// A generator for sub-stream `stream` of `seed`, as a pure
    /// function of both: `derived(s, a)` and `derived(s, b)` are
    /// decorrelated for `a != b`, and calling order cannot matter.
    pub fn derived(seed: u64, stream: u64) -> SeedRng {
        SeedRng::new(mix(seed) ^ mix(stream ^ 0xA076_1D64_78BD_642F))
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = self.state;
        let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform integer in `[0, bound)`. `bound == 0` reports `0`.
    pub fn next_range(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        // 128-bit multiply-shift: unbiased enough for workload shaping
        // without a rejection loop.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// A uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SeedRng::new(7);
        let mut b = SeedRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn derived_streams_are_order_independent_and_distinct() {
        let mut ab_a = SeedRng::derived(42, 0);
        let mut ab_b = SeedRng::derived(42, 1);
        let (a0, b0) = (ab_a.next_u64(), ab_b.next_u64());
        // Construct in the opposite order: identical values.
        let mut ba_b = SeedRng::derived(42, 1);
        let mut ba_a = SeedRng::derived(42, 0);
        assert_eq!(ba_a.next_u64(), a0);
        assert_eq!(ba_b.next_u64(), b0);
        // And the streams themselves differ.
        assert_ne!(a0, b0);
    }

    #[test]
    fn ranges_and_floats_stay_in_bounds() {
        let mut rng = SeedRng::new(3);
        for _ in 0..1000 {
            assert!(rng.next_range(10) < 10);
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
        assert_eq!(rng.next_range(0), 0);
    }
}
