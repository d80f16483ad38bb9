//! The benchmark's own random numbers: a SplitMix64 generator and a Zipf
//! sampler. Nothing here depends on the repository's `rand` stand-in or on
//! `exacml-workload`, so the inputs a seed produces cannot drift when those
//! crates change.

/// SplitMix64 — small, seedable, and good enough for workload generation.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    #[cfg(test)]
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// An independent generator for one named part of the world, so adding a
    /// draw to one part never shifts the values of another.
    pub fn fork(seed: u64, part: &str) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325_u64 ^ seed;
        for b in part.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        SplitMix64(h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// Zipf over ranks `0..n`: rank `k` is drawn with probability proportional
/// to `1 / (k + 1)^alpha` (the paper's Table 3 uses alpha = 0.223 over 300
/// ranks). Sampling is a binary search of the cumulative table.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(alpha);
            cumulative.push(total);
        }
        for c in &mut cumulative {
            *c /= total;
        }
        Zipf { cumulative }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.unit();
        self.cumulative.partition_point(|c| *c <= u).min(self.cumulative.len() - 1)
    }

    /// Probability of one rank (tests compare empirical counts to it).
    #[cfg(test)]
    pub fn probability(&self, rank: usize) -> f64 {
        let below = if rank == 0 { 0.0 } else { self.cumulative[rank - 1] };
        self.cumulative[rank] - below
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_forks_differ() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        assert_eq!((0..8).map(|_| a.next_u64()).collect::<Vec<_>>(), {
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        });
        assert_ne!(
            SplitMix64::fork(7, "pool").next_u64(),
            SplitMix64::fork(7, "requests").next_u64()
        );
        assert_ne!(SplitMix64::fork(7, "pool").next_u64(), SplitMix64::fork(8, "pool").next_u64());
    }

    #[test]
    fn unit_and_below_stay_in_range() {
        let mut rng = SplitMix64::new(1);
        for _ in 0..10_000 {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
            assert!(rng.below(7) < 7);
        }
    }

    #[test]
    fn zipf_matches_its_own_probabilities() {
        let zipf = Zipf::new(300, 0.223);
        let mut rng = SplitMix64::new(2012);
        let draws = 300_000;
        let mut counts = vec![0usize; 300];
        for _ in 0..draws {
            counts[zipf.sample(&mut rng)] += 1;
        }
        // Table 3's skew is mild: rank 0 is ~3.6x rank 299, never more.
        for rank in [0, 1, 10, 150, 299] {
            let expected = zipf.probability(rank) * draws as f64;
            let seen = counts[rank] as f64;
            assert!((seen - expected).abs() < 0.1 * expected, "rank {rank}: {seen} vs {expected}");
        }
        assert!(counts[0] > counts[299]);
        assert!((zipf.probability(0) / zipf.probability(299) - 300f64.powf(0.223)).abs() < 1e-9);
    }

    #[test]
    fn zipf_with_one_rank_is_constant() {
        let zipf = Zipf::new(1, 1.0);
        let mut rng = SplitMix64::new(3);
        assert!((0..100).all(|_| zipf.sample(&mut rng) == 0));
    }
}
