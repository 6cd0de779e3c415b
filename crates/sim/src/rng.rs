//! Deterministic randomness for simulations.
//!
//! All stochastic behaviour (probability-based stragglers, randomized workloads)
//! draws from a [`SimRng`] seeded explicitly by the experiment. The generator is a
//! `SplitMix64`-seeded `xoshiro256**`-style permutation implemented locally so that
//! streams are stable across `rand` crate upgrades — experiment outputs recorded in
//! EXPERIMENTS.md must stay regenerable.
//!
//! `SimRng` also implements [`rand::RngCore`], so it plugs into `rand_distr`
//! distributions where those are convenient.

use rand::RngCore;

/// A small, fast, deterministic PRNG (xoshiro256** core, SplitMix64 seeding).
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Next raw 64-bit output.
    fn next_raw(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        // 53 high bits → uniform double in [0,1).
        (self.next_raw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` using Lemire's rejection method.
    ///
    /// # Panics
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below requires a positive bound");
        loop {
            let x = self.next_raw();
            let m = (x as u128).wrapping_mul(bound as u128);
            let low = m as u64;
            if low >= bound {
                return (m >> 64) as u64;
            }
            // Rejection zone: retry to keep the distribution exactly uniform.
            let threshold = bound.wrapping_neg() % bound;
            if low >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_raw() >> 32) as u32
    }
    fn next_u64(&mut self) -> u64 {
        self.next_raw()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_raw().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_raw(), b.next_raw());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_raw() == b.next_raw()).count();
        assert!(same < 2, "streams should be effectively independent");
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = SimRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_is_in_range_and_covers() {
        let mut rng = SimRng::seed_from_u64(5);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            let v = rng.next_below(8) as usize;
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    #[should_panic(expected = "positive bound")]
    fn next_below_zero_panics() {
        SimRng::seed_from_u64(0).next_below(0);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from_u64(11);
        assert!((0..100).all(|_| !rng.chance(0.0)));
        assert!((0..100).all(|_| rng.chance(1.0)));
    }

    #[test]
    fn chance_rate_is_roughly_p() {
        let mut rng = SimRng::seed_from_u64(13);
        let hits = (0..100_000).filter(|_| rng.chance(0.3)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate} too far from 0.3");
    }

    #[test]
    fn fill_bytes_handles_partial_chunks() {
        let mut rng = SimRng::seed_from_u64(1);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
