//! Seeded, forkable randomness.
//!
//! All nondeterminism in a simulation — packet loss, corruption, jitter,
//! initial sequence numbers, ephemeral ports — flows from one root seed
//! through this type. `fork` derives independent streams so that adding a
//! consumer does not perturb the draws seen by existing consumers (which
//! would otherwise make experiments non-comparable across configurations).
//!
//! The generator is a self-contained xoshiro256++ seeded through SplitMix64,
//! so simulations are reproducible bit-for-bit on any platform with no
//! external dependencies.

/// A deterministic random number generator (xoshiro256++).
#[derive(Debug, Clone)]
pub struct Rng {
    state: [u64; 4],
}

fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Rng {
    /// Create from a 64-bit seed.
    pub fn from_seed(seed: u64) -> Rng {
        let mut x = seed;
        let state = [
            splitmix64(&mut x),
            splitmix64(&mut x),
            splitmix64(&mut x),
            splitmix64(&mut x),
        ];
        Rng { state }
    }

    /// The generator for case `case` of the seeded property `name`: a
    /// failing case reproduces from its name and number alone.
    pub fn for_case(name: &str, case: u64) -> Rng {
        let tag = crate::fnv1a(crate::FNV_OFFSET, name.as_bytes());
        Rng::from_seed(tag ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s2 = s2 ^ s0;
        let mut s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        s2 ^= t;
        s3 = s3.rotate_left(45);
        self.state = [s0, s1, s2, s3];
        result
    }

    /// Derive an independent stream labeled by `stream`.
    ///
    /// Uses a SplitMix64-style mix of the parent's next draw and the label,
    /// so distinct labels give uncorrelated streams.
    pub fn fork(&mut self, stream: u64) -> Rng {
        let mut x = self.next_u64() ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        Rng::from_seed(x)
    }

    /// A uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        // 53 high-quality bits into the mantissa.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw: true with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }

    /// A uniform integer in `[0, bound)`. Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty range");
        // Debiased multiply-shift (Lemire): reject draws from the short
        // final stripe so every residue is equally likely.
        loop {
            let x = self.next_u64();
            let (hi, lo) = {
                let wide = (x as u128) * (bound as u128);
                ((wide >> 64) as u64, wide as u64)
            };
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return hi;
            }
        }
    }

    /// A uniform integer in `[lo, hi)`. Panics if the range is empty.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// A raw 32-bit draw (e.g. for TCP initial sequence numbers).
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// An exponentially distributed draw with the given mean, as a float.
    ///
    /// Used for Poisson inter-arrival processes in workload generators.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        let u = self.unit().max(f64::EPSILON);
        -mean * u.ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::from_seed(42);
        let mut b = Rng::from_seed(42);
        for _ in 0..100 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::from_seed(1);
        let mut b = Rng::from_seed(2);
        let same = (0..32).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 4, "streams should be essentially uncorrelated");
    }

    #[test]
    fn forks_are_deterministic_and_independent() {
        let mut root1 = Rng::from_seed(7);
        let mut root2 = Rng::from_seed(7);
        let mut fork_a1 = root1.fork(1);
        let mut fork_a2 = root2.fork(1);
        for _ in 0..50 {
            assert_eq!(fork_a1.next_u32(), fork_a2.next_u32());
        }
        let mut root3 = Rng::from_seed(7);
        let mut fork_b = root3.fork(2);
        let mut root4 = Rng::from_seed(7);
        let mut fork_a = root4.fork(1);
        let same = (0..32).filter(|_| fork_a.next_u32() == fork_b.next_u32()).count();
        assert!(same < 4);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Rng::from_seed(9);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-0.5));
        assert!(rng.chance(1.5));
    }

    #[test]
    fn chance_frequency_roughly_matches() {
        let mut rng = Rng::from_seed(123);
        let hits = (0..10_000).filter(|_| rng.chance(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "got {hits}");
    }

    #[test]
    fn below_and_range_bounds() {
        let mut rng = Rng::from_seed(5);
        for _ in 0..1000 {
            assert!(rng.below(7) < 7);
            let v = rng.range(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn below_covers_all_residues() {
        let mut rng = Rng::from_seed(17);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[rng.below(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "some residues never drawn");
    }

    #[test]
    fn unit_in_half_open_interval() {
        let mut rng = Rng::from_seed(11);
        for _ in 0..1000 {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn exponential_mean_roughly_matches() {
        let mut rng = Rng::from_seed(77);
        let n = 20_000;
        let total: f64 = (0..n).map(|_| rng.exponential(5.0)).sum();
        let mean = total / n as f64;
        assert!((4.5..5.5).contains(&mean), "got {mean}");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn below_zero_panics() {
        Rng::from_seed(0).below(0);
    }
}
