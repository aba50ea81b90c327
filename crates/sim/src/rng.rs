//! Deterministic random number generation for reproducible experiments.
//!
//! Every stochastic component of the workspace (workload generators, arrival
//! processes, contention jitter) draws from a [`SimRng`], a xoshiro256\*\*
//! generator seeded through SplitMix64. The implementation is self-contained
//! (no dependency on `rand`'s unspecified `StdRng` algorithm), so a given
//! seed produces the same experiment on every platform and toolchain — a
//! property the integration tests and EXPERIMENTS.md rely on.
//!
//! `SimRng` implements [`rand::RngCore`], so all of `rand` / `rand_distr`
//! (Zipf, Pareto, LogNormal, ...) works on top of it.

use rand::{Error, RngCore};

/// SplitMix64's state increment (the 64-bit golden ratio).
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 finalizer (Steele et al.): the generator's output for state
/// `x`, so `mix64(0)` is the published first SplitMix64 output.
///
/// This is the workspace's one stateless 64-bit hash. Hash-derived
/// decisions (RSS steering, brownout selection, retry jitter, fault
/// schedules, shard seeds, payload sizes) consume no RNG stream, so runs
/// that never take them stay bit-identical to runs of builds without
/// them.
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of shard `index` of a sharded run with base seed `seed`.
/// Each harness passes its own `salt`, so two harnesses sharding the same
/// seed never share a stream.
pub fn shard_seed(seed: u64, salt: u64, index: usize) -> u64 {
    mix64(mix64(seed ^ salt).wrapping_add(index as u64))
}

/// SplitMix64 step; used to expand a 64-bit seed into xoshiro state.
///
/// This is the seeding procedure recommended by the xoshiro authors: it
/// guarantees the expanded state is not all-zero and decorrelates nearby
/// seeds.
fn splitmix64(state: &mut u64) -> u64 {
    let out = mix64(*state);
    *state = state.wrapping_add(GOLDEN_GAMMA);
    out
}

/// A deterministic xoshiro256\*\* random number generator.
///
/// # Example
///
/// ```
/// use rbv_sim::SimRng;
/// use rand::Rng;
///
/// let mut a = SimRng::seed_from(7);
/// let mut b = SimRng::seed_from(7);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> SimRng {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derives an independent child generator from this one's stream.
    ///
    /// Used to give each request / core / component its own stream so that
    /// adding draws in one component does not perturb another (a common
    /// source of accidental nondeterminism in simulators).
    pub fn fork(&mut self) -> SimRng {
        SimRng::seed_from(self.next_u64())
    }

    /// Derives a child generator from this seed and a stream label, without
    /// consuming randomness. Two distinct labels give decorrelated streams.
    pub fn fork_labeled(&self, label: u64) -> SimRng {
        // Mix the current state with the label through SplitMix64.
        let mut sm = self.s[0] ^ self.s[2].rotate_left(17) ^ label.wrapping_mul(GOLDEN_GAMMA);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    fn next(&mut self) -> u64 {
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
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        (self.next() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        self.next()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(123);
        let mut b = SimRng::seed_from(123);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn known_xoshiro_reference_values() {
        // Reference: xoshiro256** seeded with SplitMix64 from seed 0, as in
        // the authors' C code. Pins the algorithm so refactors can't silently
        // change every experiment in the repo.
        let mut sm = 0u64;
        let s0 = splitmix64(&mut sm);
        assert_eq!(s0, 0xE220_A839_7B1D_CDAF); // published SplitMix64(0) output
        let mut rng = SimRng::seed_from(0);
        // First output of xoshiro256** is rotl(s[1] * 5, 7) * 9 on the
        // expanded state; recompute independently.
        let mut sm2 = 0u64;
        let state: Vec<u64> = (0..4).map(|_| splitmix64(&mut sm2)).collect();
        let expect = state[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        assert_eq!(rng.next_u64(), expect);
    }

    #[test]
    fn mix64_is_the_splitmix64_finalizer() {
        assert_eq!(mix64(0), 0xE220_A839_7B1D_CDAF); // published SplitMix64(0) output
        let mut sm = 7u64;
        assert_eq!(splitmix64(&mut sm), mix64(7));
        assert_eq!(splitmix64(&mut sm), mix64(7u64.wrapping_add(GOLDEN_GAMMA)));
    }

    #[test]
    fn shard_seeds_are_salted_and_indexed() {
        let a = shard_seed(42, 0x0be7_10c4, 0);
        assert_eq!(a, mix64(mix64(42 ^ 0x0be7_10c4)));
        assert_ne!(a, shard_seed(42, 0x0be7_10c4, 1));
        assert_ne!(a, shard_seed(42, 0xC105_7E12, 0));
    }

    #[test]
    fn fork_decorrelates() {
        let mut root = SimRng::seed_from(9);
        let mut c1 = root.fork();
        let mut c2 = root.fork();
        let same = (0..100).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_labeled_is_pure() {
        let root = SimRng::seed_from(9);
        let mut a = root.fork_labeled(5);
        let mut b = root.fork_labeled(5);
        let mut c = root.fork_labeled(6);
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn fill_bytes_handles_odd_lengths() {
        let mut rng = SimRng::seed_from(4);
        for len in [0usize, 1, 3, 7, 8, 9, 16, 17] {
            let mut buf = vec![0u8; len];
            rng.fill_bytes(&mut buf);
            // All-zero output of length >= 8 is astronomically unlikely.
            if len >= 8 {
                assert!(buf.iter().any(|&b| b != 0), "len {len}");
            }
        }
    }

    #[test]
    fn works_with_rand_distr() {
        let mut rng = SimRng::seed_from(11);
        let x: f64 = rng.gen_range(0.0..1.0);
        assert!((0.0..1.0).contains(&x));
        let n: u32 = rng.gen_range(1..10);
        assert!((1..10).contains(&n));
    }

    #[test]
    fn uniformity_smoke() {
        // Mean of 10k uniform draws should be near 0.5.
        let mut rng = SimRng::seed_from(99);
        let mean: f64 = (0..10_000).map(|_| rng.gen::<f64>()).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }
}
