//! The benchmark's own input generators, all driven by `--seed`.
//!
//! The program under test only ever sees generated inputs: which pool
//! query each request carries (Zipf), when each open-loop request is due
//! (Poisson), and which points the write stream inserts. Nothing here
//! depends on `rand`, so a dependency bump can never silently change a
//! workload.

/// splitmix64 stream (Steele, Lea & Flood): 64 bits of state, passes
/// BigCrush, and trivially reproducible in any language from the seed.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for an independent sub-stream: the same `(seed,
    /// stream)` pair always yields the same sequence, and streams of one
    /// seed do not overlap in practice (the stream id is mixed through
    /// the output function, not added to the counter).
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut root = Self(seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93));
        let s = root.next_u64();
        Self(s)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in the open interval (0, 1): never 0, so `ln` is safe.
    pub fn next_f64(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }
}

/// Zipf(s) over ranks `0..n` by inverse-CDF lookup. Rank `i` is drawn
/// with probability ∝ `1/(i+1)^s`; rank `i` maps to pool query `i`, so
/// every seed draws from the *same* popularity distribution and only
/// the sample differs.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n >= 1);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// `count` draws.
    pub fn draws(&self, rng: &mut SplitMix64, count: usize) -> Vec<u32> {
        (0..count).map(|_| self.sample(rng) as u32).collect()
    }
}

/// Poisson arrival offsets (seconds from the epoch start) at `rate` per
/// second, covering `[0, duration)`.
pub fn poisson_schedule(rng: &mut SplitMix64, rate: f64, duration: f64) -> Vec<f64> {
    assert!(rate > 0.0 && duration >= 0.0);
    let mut out = Vec::with_capacity((rate * duration * 1.1) as usize + 8);
    let mut t = 0.0;
    loop {
        t += -rng.next_f64().ln() / rate;
        if t >= duration {
            return out;
        }
        out.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_in_seed_and_differ_across_seeds() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::stream(7, 1);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::stream(7, 1);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = SplitMix64::stream(8, 1);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let d: Vec<u64> = {
            let mut r = SplitMix64::stream(7, 2);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn zipf_is_deterministic_skewed_and_in_range() {
        let z = Zipf::new(4000, 1.1);
        let x = z.draws(&mut SplitMix64::stream(42, 3), 20_000);
        let y = z.draws(&mut SplitMix64::stream(42, 3), 20_000);
        let w = z.draws(&mut SplitMix64::stream(43, 3), 20_000);
        assert_eq!(x, y);
        assert_ne!(x, w);
        assert!(x.iter().all(|&i| (i as usize) < 4000));
        let top = x.iter().filter(|&&i| i < 10).count();
        let tail = x.iter().filter(|&&i| i >= 3990).count();
        assert!(top > 50 * tail.max(1), "top {top} tail {tail}");
        // Rank 0 carries 1/H(4000, 1.1) ≈ 1/6.2 ≈ 16% of the mass.
        let zero = x.iter().filter(|&&i| i == 0).count() as f64 / x.len() as f64;
        assert!((0.145..0.175).contains(&zero), "p(rank 0) = {zero}");
    }

    #[test]
    fn poisson_is_deterministic_sorted_and_hits_its_rate() {
        let a = poisson_schedule(&mut SplitMix64::stream(5, 9), 1000.0, 4.0);
        let b = poisson_schedule(&mut SplitMix64::stream(5, 9), 1000.0, 4.0);
        let c = poisson_schedule(&mut SplitMix64::stream(6, 9), 1000.0, 4.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| (0.0..4.0).contains(&t)));
        // 4000 expected, σ ≈ 63.
        assert!((3700..4300).contains(&a.len()), "{} arrivals", a.len());
    }
}
