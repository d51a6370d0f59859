//! Deterministic pseudo-random number generation.
//!
//! Multithreaded-workload evaluation is non-deterministic on real
//! hardware; the paper (§5.3, citing Alameldeen et al. \[1\]) introduces
//! random latency perturbations instead of averaging over runs. We do
//! the same but keep every run exactly reproducible by deriving all
//! randomness from a seeded SplitMix64 generator.

const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64's output mixing function.
fn mix(state: u64) -> u64 {
    let mut z = state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A small, fast, deterministic PRNG (SplitMix64).
///
/// # Example
///
/// ```
/// use tlr_sim::SimRng;
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SimRng { state: seed.wrapping_add(GOLDEN) }
    }

    /// Derives an independent stream for a sub-component (e.g. one
    /// per processor), so that adding a consumer does not perturb the
    /// sequences seen by others.
    pub fn fork(&mut self, tag: u64) -> SimRng {
        let mix = self.next_u64() ^ tag.wrapping_mul(0xff51_afd7_ed55_8ccd);
        SimRng::new(mix)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN);
        mix(self.state)
    }

    /// The `index`-th value (0-based) of the stream `SimRng::new(seed)`
    /// produces, computed directly without advancing a cursor.
    ///
    /// SplitMix64's state is an arithmetic progression, so any position
    /// is addressable in O(1). This is what makes the seed derivation
    /// of parallel sweeps order-independent: cell `i`'s seed is a pure
    /// function of (master seed, `i`), never of which cells ran before
    /// it or on which worker.
    pub fn nth(seed: u64, index: u64) -> u64 {
        // `new` adds one GOLDEN, each `next_u64` adds another; the
        // (index+1)-th call therefore mixes seed + (index+2)*GOLDEN.
        mix(seed.wrapping_add(GOLDEN.wrapping_mul(index.wrapping_add(2))))
    }

    /// Uniform value in `[0, bound)`. Returns 0 when `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            // Multiply-shift bounded generation (Lemire); bias is
            // negligible for the small bounds used here.
            ((self.next_u64() as u128 * bound as u128) >> 64) as u64
        }
    }

    /// Uniform value in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "invalid range {lo}..={hi}");
        lo + self.below(hi - lo + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn nth_matches_the_sequential_stream() {
        for seed in [0u64, 7, 0x5eed_cafe, u64::MAX] {
            let mut r = SimRng::new(seed);
            for i in 0..64 {
                assert_eq!(SimRng::nth(seed, i), r.next_u64(), "seed {seed:#x} index {i}");
            }
        }
    }

    #[test]
    fn forks_are_independent_of_later_use() {
        let mut root1 = SimRng::new(1);
        let fork_a1 = root1.fork(0);
        let _fork_b1 = root1.fork(1);

        let mut root2 = SimRng::new(1);
        let fork_a2 = root2.fork(0);
        assert_eq!(fork_a1, fork_a2);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SimRng::new(3);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
        }
        assert_eq!(r.below(0), 0);
    }

    #[test]
    fn range_inclusive_hits_endpoints() {
        let mut r = SimRng::new(9);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..2000 {
            let v = r.range(2, 5);
            assert!((2..=5).contains(&v));
            saw_lo |= v == 2;
            saw_hi |= v == 5;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    #[should_panic(expected = "invalid range")]
    fn range_rejects_inverted_bounds() {
        SimRng::new(0).range(5, 2);
    }

    #[test]
    fn distribution_is_roughly_uniform() {
        let mut r = SimRng::new(11);
        let mut buckets = [0u32; 8];
        for _ in 0..8000 {
            buckets[r.below(8) as usize] += 1;
        }
        for &b in &buckets {
            assert!((700..1300).contains(&b), "bucket count {b} far from uniform");
        }
    }
}
