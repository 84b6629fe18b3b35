//! Seeded random numbers for fixtures and request streams. The rig owns its
//! generator so that neither a toolchain nor a `crates/*` change can alter
//! the inputs a seed stands for.

/// SplitMix64: tiny, full-period, and good enough for workload draws.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for `(seed, lane)`; lanes of one seed do not
    /// overlap in any run the rig can make.
    pub fn stream(seed: u64, lane: u64) -> Rng {
        let mut mix = Rng(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F));
        Rng(mix.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2^-40 for every
    /// `n` the rig uses.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential with the given mean (open-loop inter-arrival gaps).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// Zipf(s) over ranks `0..n` by inverse-CDF lookup.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_agree_and_lanes_differ() {
        let a: Vec<u64> = (0..8).map(|_| Rng::stream(7, 0).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::stream(7, 0).next_u64(), Rng::stream(7, 1).next_u64());
        assert_ne!(Rng::stream(7, 0).next_u64(), Rng::stream(8, 0).next_u64());
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let zipf = Zipf::new(1000, 1.0);
        let mut rng = Rng::new(1);
        let mut head = 0;
        for _ in 0..10_000 {
            let r = zipf.sample(&mut rng);
            assert!(r < 1000);
            if r < 10 {
                head += 1;
            }
        }
        // H(10)/H(1000) = 2.93/7.49 = 0.39 of the mass sits on the top ten.
        assert!((3500..4300).contains(&head), "head = {head}");
    }
}
