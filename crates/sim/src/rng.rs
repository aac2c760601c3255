//! Named deterministic random streams.
//!
//! The paper fixes the workload seed so all three experiments schedule an
//! identical request sequence. We go further: every stochastic component
//! (workload generation, GA selection/crossover/mutation per resource)
//! draws from its own stream derived from `(master_seed, label)`, so adding
//! randomness in one component never shifts the draws seen by another.

use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A deterministic random stream, cheap to fork by label.
#[derive(Clone)]
pub struct RngStream {
    rng: ChaCha8Rng,
    seed: u64,
}

impl RngStream {
    /// Root stream for a master seed.
    pub fn root(seed: u64) -> Self {
        RngStream {
            rng: ChaCha8Rng::seed_from_u64(seed),
            seed,
        }
    }

    /// Derive an independent child stream named by `label`. Children with
    /// different labels (or different parents) are statistically
    /// independent; the same `(seed, label)` always yields the same stream.
    pub fn derive(&self, label: &str) -> RngStream {
        let child_seed = mix(self.seed, label);
        RngStream {
            rng: ChaCha8Rng::seed_from_u64(child_seed),
            seed: child_seed,
        }
    }

    /// The seed this stream was created from (after mixing).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether the stream has drawn at all. The keystream buffer is
    /// allocated on the first draw, so a stream that never draws (a FIFO
    /// resource's noise stream, say) costs only its inline state.
    pub fn keystream_allocated(&self) -> bool {
        self.rng.keystream_allocated()
    }
}

/// FNV-1a style mixing of a label into a seed. Stable across platforms.
fn mix(seed: u64, label: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed.rotate_left(17);
    for b in label.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    // Final avalanche (splitmix64 finaliser).
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

impl RngCore for RngStream {
    fn next_u32(&mut self) -> u32 {
        self.rng.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.rng.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.rng.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = RngStream::root(42);
        let mut b = RngStream::root(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = RngStream::root(1);
        let mut b = RngStream::root(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn derived_streams_are_independent_of_parent_consumption() {
        let root = RngStream::root(7);
        let mut child_before = root.derive("workload");
        let mut consumed = root.clone();
        for _ in 0..100 {
            consumed.next_u64();
        }
        let mut child_after = consumed.derive("workload");
        // Deriving depends only on (seed, label), not on parent draws.
        for _ in 0..16 {
            assert_eq!(child_before.next_u64(), child_after.next_u64());
        }
    }

    #[test]
    fn labels_separate_streams() {
        let root = RngStream::root(7);
        let mut a = root.derive("ga/S1");
        let mut b = root.derive("ga/S2");
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn stream_is_no_larger_than_the_one_block_layout() {
        // The one-block generator kept its 64-byte block inline (144
        // bytes per stream); the eight-block buffer lives behind a
        // pointer, so streams that never draw stay small.
        assert!(std::mem::size_of::<RngStream>() <= 144);
    }

    #[test]
    fn keystream_is_allocated_on_first_draw() {
        let mut s = RngStream::root(1).derive("noise");
        assert!(!s.keystream_allocated());
        s.next_u32();
        assert!(s.keystream_allocated());
    }

    #[test]
    fn usable_with_rand_traits() {
        let mut s = RngStream::root(3).derive("x");
        let v: f64 = s.gen_range(0.0..1.0);
        assert!((0.0..1.0).contains(&v));
        let n: usize = s.gen_range(0..10);
        assert!(n < 10);
    }
}
