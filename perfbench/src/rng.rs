//! Seeded samplers. Every input the benchmark generates comes from here,
//! so one `--seed` reproduces the graph, the read order, the hot set,
//! the write sequence and the checked sample exactly.

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for one purpose (`tag`) of one run seed.
    pub fn stream(seed: u64, tag: &str) -> Rng {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in tag.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Rng::new(seed ^ h.rotate_left(17))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by rejection so there is no modulo bias.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        let zone = u64::MAX - u64::MAX % n;
        loop {
            let x = self.next_u64();
            if x < zone {
                return x % n;
            }
        }
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A uniformly random permutation of `0..n` (Fisher–Yates).
pub fn permutation(n: usize, rng: &mut Rng) -> Vec<u32> {
    let mut p: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        p.swap(i, j);
    }
    p
}

/// Zipf(s) over ranks `0..n`: rank `r` has weight `1 / (r + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "empty support");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_reproducible_from_the_seed() {
        let a = permutation(16_500, &mut Rng::stream(7, "reads"));
        let b = permutation(16_500, &mut Rng::stream(7, "reads"));
        assert_eq!(a, b);
        let c = permutation(16_500, &mut Rng::stream(8, "reads"));
        assert_ne!(a, c);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert!(sorted.iter().enumerate().all(|(i, &v)| v as usize == i));
    }

    #[test]
    fn zipf_is_reproducible_from_the_seed_and_skewed() {
        let z = Zipf::new(1024, 1.0);
        let draw = |seed| {
            let mut r = Rng::stream(seed, "zipf");
            (0..5000).map(|_| z.sample(&mut r)).collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
        let d = draw(3);
        assert!(d.iter().all(|&r| r < 1024));
        let top = d.iter().filter(|&&r| r == 0).count();
        let mid = d.iter().filter(|&&r| r == 99).count();
        // Rank 0 carries ~1/H(1024) ≈ 13% of the mass; rank 99 about 1%.
        assert!(top > 400 && top < 900, "rank 0 drawn {top} times");
        assert!(mid < top / 20, "rank 99 drawn {mid} times");
    }

    #[test]
    fn streams_differ_by_tag() {
        assert_ne!(Rng::stream(1, "a").next_u64(), Rng::stream(1, "b").next_u64());
    }
}
