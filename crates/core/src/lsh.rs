//! p-stable LSH functions and compound hashes (paper Section 2.2–2.3).
//!
//! A single hash function is `h(o) = ⌊(a·o + b)/w⌋` (Equation 1) with `a`
//! drawn from N(0,1)^d and `b` uniform on `[0, w)`. A compound hash
//! `g(o) = (h_1(o), …, h_m(o))` (Equation 4) concatenates `m` functions; the
//! tuple is mixed into a 64-bit value that addresses a bucket.
//!
//! Radius scaling: the `(R, c)`-NN instance at radius `R` hashes the point
//! `o/R`, i.e. `h_R(o) = ⌊(a·o/R + b)/w⌋`, so the same `(w, c)` collision
//! probabilities `p1 = p_w(1)`, `p2 = p_w(c)` apply at every radius.

use crate::kernel::{self, Projection};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// A compound hash `g(o) = (h_1(o), …, h_m(o))`: `m` p-stable functions that
/// share a bucket width `w` and are evaluated together.
///
/// The projection vectors are stored row-major (`m × d`) so that evaluating
/// all `m` functions streams the point once per function with vectorized
/// inner loops.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CompoundHash {
    dim: usize,
    m: usize,
    w: f32,
    /// `m × d` row-major N(0,1) projection vectors.
    a: Vec<f32>,
    /// `m` uniform offsets in `[0, w)`.
    b: Vec<f32>,
}

impl CompoundHash {
    /// Draw a fresh compound hash from `rng`.
    pub fn generate<R: Rng>(dim: usize, m: usize, w: f32, rng: &mut R) -> Self {
        assert!(dim > 0 && m > 0 && w > 0.0);
        let mut a = Vec::with_capacity(m * dim);
        for _ in 0..m * dim {
            a.push(sample_standard_normal(rng));
        }
        let b = (0..m).map(|_| rng.gen::<f32>() * w).collect();
        Self { dim, m, w, a, b }
    }

    /// Number of constituent hash functions `m`.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Point dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Bucket width `w`.
    #[inline]
    pub fn w(&self) -> f32 {
        self.w
    }

    /// Evaluate all `m` hash values for `point` at search radius `radius`,
    /// into `out` (resized to `m`).
    pub fn eval_into(&self, point: &[f32], radius: f32, out: &mut Vec<i32>) {
        self.project(point, radius, out, None);
    }

    /// Evaluate and mix into a single 64-bit bucket key.
    pub fn hash64(&self, point: &[f32], radius: f32, scratch: &mut Vec<i32>) -> u64 {
        self.eval_into(point, radius, scratch);
        mix_hash_values(scratch)
    }

    /// Like [`CompoundHash::eval_into`] but also records, per component,
    /// the fractional position of the projection inside its bucket
    /// (`frac ∈ [0, 1)`). Multi-probe LSH (Lv et al., VLDB 2007) uses it
    /// to rank perturbations: projections near a bucket boundary are
    /// cheap to flip across it.
    pub fn eval_with_frac(
        &self,
        point: &[f32],
        radius: f32,
        out: &mut Vec<i32>,
        frac: &mut Vec<f32>,
    ) {
        frac.resize(self.m, 0.0);
        self.project(point, radius, out, Some(frac));
    }

    /// The one projection loop ([`kernel::project`]) behind every
    /// evaluation: the hash a probe sequence perturbs is the hash the
    /// index was built with.
    fn project(&self, point: &[f32], radius: f32, out: &mut Vec<i32>, frac: Option<&mut [f32]>) {
        assert_eq!(point.len(), self.dim, "point dimension mismatch");
        assert!(radius > 0.0);
        out.resize(self.m, 0);
        kernel::project(&self.projection(), point, 1.0 / radius, out, frac);
    }

    /// The `m` functions as the kernels take them.
    pub fn projection(&self) -> Projection<'_> {
        Projection {
            rows: &self.a,
            offsets: &self.b,
            w: self.w,
        }
    }

    /// Total number of f32 multiply-adds one evaluation performs (used for
    /// compute-cost calibration).
    pub fn flops(&self) -> usize {
        self.m * self.dim
    }
}

/// Mix a tuple of hash values into a 64-bit bucket key.
///
/// This plays the role of the E2LSH package's universal hashes `H1`/`H2`:
/// the full mixed value identifies the compound hash tuple, the storage
/// layer then splits it into a `u`-bit table index and fingerprint bits
/// (paper Section 5.2).
#[inline]
pub fn mix_hash_values(values: &[i32]) -> u64 {
    let mut h = 0x243f_6a88_85a3_08d3u64 ^ (values.len() as u64);
    for &v in values {
        h = crate::fxhash::splitmix64(h ^ (v as u32 as u64));
    }
    h
}

/// Truncate a 64-bit bucket key to the `v`-bit hash value used on storage
/// (the paper uses `v = 32`).
#[inline]
pub fn hash_v_bits(h64: u64, v: u32) -> u64 {
    debug_assert!((1..=64).contains(&v));
    if v == 64 {
        h64
    } else {
        h64 & ((1u64 << v) - 1)
    }
}

/// Draw one standard normal variate (Marsaglia polar method).
///
/// `rand` 0.8 without `rand_distr` has no normal sampler; the polar method
/// needs only `gen::<f32>()` and is plenty fast for index construction.
pub fn sample_standard_normal<R: Rng>(rng: &mut R) -> f32 {
    loop {
        let u = rng.gen::<f32>() * 2.0 - 1.0;
        let v = rng.gen::<f32>() * 2.0 - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// The full family of compound hashes for an E2LSH index: `L` compounds per
/// radius for `r` radii, generated deterministically from a master seed.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HashFamily {
    dim: usize,
    m: usize,
    w: f32,
    l: usize,
    radii: Vec<f32>,
    /// `[radius_idx][l]`.
    compounds: Vec<Vec<CompoundHash>>,
    seed: u64,
}

impl HashFamily {
    /// Generate the family. Each `(radius, l)` compound gets an independent
    /// deterministic sub-seed so indices are reproducible and the storage
    /// index can regenerate exactly the same functions from the superblock.
    pub fn generate(dim: usize, m: usize, w: f32, l: usize, radii: &[f32], seed: u64) -> Self {
        assert!(!radii.is_empty());
        let mut compounds = Vec::with_capacity(radii.len());
        for (ri, _) in radii.iter().enumerate() {
            let mut per_radius = Vec::with_capacity(l);
            for li in 0..l {
                let sub = crate::fxhash::splitmix64(
                    seed ^ ((ri as u64) << 32) ^ (li as u64) ^ SUBSEED_SALT,
                );
                let mut rng = ChaCha8Rng::seed_from_u64(sub);
                per_radius.push(CompoundHash::generate(dim, m, w, &mut rng));
            }
            compounds.push(per_radius);
        }
        Self {
            dim,
            m,
            w,
            l,
            radii: radii.to_vec(),
            compounds,
            seed,
        }
    }

    /// Number of radii `r`.
    #[inline]
    pub fn num_radii(&self) -> usize {
        self.radii.len()
    }

    /// Radius value for radius index `ri`.
    #[inline]
    pub fn radius(&self, ri: usize) -> f32 {
        self.radii[ri]
    }

    /// All radii.
    #[inline]
    pub fn radii(&self) -> &[f32] {
        &self.radii
    }

    /// Number of compound hashes per radius `L`.
    #[inline]
    pub fn l(&self) -> usize {
        self.l
    }

    /// Functions per compound `m`.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Point dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Master seed the family was generated from.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The compound hash for `(radius index, l)`.
    #[inline]
    pub fn compound(&self, ri: usize, li: usize) -> &CompoundHash {
        &self.compounds[ri][li]
    }

    /// Compute the 64-bit bucket keys of `point` for every `l` at radius
    /// `ri`, into `out`.
    pub fn keys_at_radius(
        &self,
        point: &[f32],
        ri: usize,
        scratch: &mut Vec<i32>,
        out: &mut Vec<u64>,
    ) {
        out.clear();
        let r = self.radii[ri];
        for li in 0..self.l {
            out.push(self.compounds[ri][li].hash64(point, r, scratch));
        }
    }
}

/// Salt mixed into per-(radius, l) sub-seeds so that families generated from
/// nearby master seeds do not share hash functions.
const SUBSEED_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(7)
    }

    #[test]
    fn eval_deterministic() {
        let mut r = rng();
        let ch = CompoundHash::generate(8, 4, 4.0, &mut r);
        let p: Vec<f32> = (0..8).map(|i| i as f32).collect();
        let mut o1 = Vec::new();
        let mut o2 = Vec::new();
        ch.eval_into(&p, 1.0, &mut o1);
        ch.eval_into(&p, 1.0, &mut o2);
        assert_eq!(o1, o2);
        assert_eq!(o1.len(), 4);
    }

    #[test]
    fn nearby_points_often_collide_far_points_rarely() {
        let mut r = rng();
        let dim = 16;
        let w = 4.0;
        let trials = 300;
        let mut near_coll = 0;
        let mut far_coll = 0;
        let mut scratch = Vec::new();
        for _ in 0..trials {
            let ch = CompoundHash::generate(dim, 1, w, &mut r);
            let p: Vec<f32> = (0..dim)
                .map(|_| sample_standard_normal(&mut r) * 3.0)
                .collect();
            // near: distance 0.5; far: distance 8.
            let mut near = p.clone();
            near[0] += 0.5;
            let mut far = p.clone();
            far[0] += 8.0;
            let hp = ch.hash64(&p, 1.0, &mut scratch);
            if ch.hash64(&near, 1.0, &mut scratch) == hp {
                near_coll += 1;
            }
            if ch.hash64(&far, 1.0, &mut scratch) == hp {
                far_coll += 1;
            }
        }
        assert!(
            near_coll > far_coll + trials / 10,
            "near {near_coll} far {far_coll}"
        );
    }

    #[test]
    fn radius_scaling_widens_buckets() {
        // At a huge radius everything collapses into few buckets.
        let mut r = rng();
        let ch = CompoundHash::generate(4, 2, 4.0, &mut r);
        let mut scratch = Vec::new();
        let a = [0.0f32, 0.0, 0.0, 0.0];
        let b = [5.0f32, -3.0, 2.0, 1.0];
        assert_ne!(
            ch.hash64(&a, 0.01, &mut scratch),
            ch.hash64(&b, 0.01, &mut scratch),
            "tiny radius must separate distant points"
        );
        assert_eq!(
            ch.hash64(&a, 1e9, &mut scratch),
            ch.hash64(&b, 1e9, &mut scratch),
            "huge radius must merge everything"
        );
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = rng();
        let n = 50_000;
        let mut sum = 0.0f64;
        let mut sum2 = 0.0f64;
        for _ in 0..n {
            let x = sample_standard_normal(&mut r) as f64;
            sum += x;
            sum2 += x * x;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn mix_sensitive_to_every_position() {
        let base = vec![1, 2, 3, 4];
        let h = mix_hash_values(&base);
        for i in 0..4 {
            let mut v = base.clone();
            v[i] += 1;
            assert_ne!(mix_hash_values(&v), h, "position {i} must matter");
        }
        // Length must matter too.
        assert_ne!(mix_hash_values(&[1, 2, 3]), mix_hash_values(&[1, 2, 3, 0]));
    }

    #[test]
    fn hash_v_bits_truncates() {
        let h = 0xdead_beef_dead_beefu64;
        assert_eq!(hash_v_bits(h, 32), 0xdead_beef);
        assert_eq!(hash_v_bits(h, 64), h);
        assert_eq!(hash_v_bits(h, 8), 0xef);
    }

    /// The contract that lets `KERNEL_REVISION` stay: on whatever kernel
    /// this host dispatches to, a family's bucket keys are the ones the
    /// portable reference computes — at the benchmark's shape and at one
    /// with an odd row count and tail dimensions.
    #[test]
    fn keys_at_radius_equal_the_portable_reference() {
        let radii = [1.0f32, 2.0, 4.0, 8.0];
        let mut r = rng();
        for (m, dim) in [(10, 128), (7, 100)] {
            let family = HashFamily::generate(dim, m, 4.0, 4, &radii, 5);
            let (mut scratch, mut keys) = (Vec::new(), Vec::new());
            let mut values = vec![0; m];
            for _ in 0..1000 {
                let p: Vec<f32> = (0..dim).map(|_| r.gen::<f32>() * 255.0).collect();
                for (ri, &radius) in radii.iter().enumerate() {
                    family.keys_at_radius(&p, ri, &mut scratch, &mut keys);
                    for (li, &key) in keys.iter().enumerate() {
                        let rows = family.compound(ri, li).projection();
                        kernel::portable::project(&rows, &p, 1.0 / radius, &mut values, None);
                        assert_eq!(key, mix_hash_values(&values), "m={m} d={dim} ri={ri}");
                    }
                }
            }
        }
    }

    /// Values computed by the auto-vectorised kernels `KERNEL_REVISION` 2
    /// was introduced with, before there was an explicit SIMD path: a
    /// kernel change that moves any of them must bump the revision.
    #[test]
    fn kernel_revision_2_golden_values() {
        let golden: [(usize, usize, [u64; 3], u32, u32); 2] = [
            (
                10,
                128,
                [
                    0xc369_85dc_11bd_b838,
                    0x1112_f38d_84ec_4f39,
                    0x29af_39e8_df9a_2f22,
                ],
                0xc385_6c3c,
                0x480b_0543,
            ),
            (
                7,
                100,
                [
                    0x9854_4182_30fa_02a6,
                    0x4f1f_d87f_39a5_76e0,
                    0xf9f9_0717_ed53_1f47,
                ],
                0xc51e_33ab,
                0x47e4_da73,
            ),
        ];
        assert_eq!(kernel::KERNEL_REVISION, 2);
        for (m, dim, first_keys, dot_bits, dist2_bits) in golden {
            let family = HashFamily::generate(dim, m, 4.0, 3, &[1.0, 2.0, 4.0], 2023);
            let p: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.37).sin() * 40.0).collect();
            let q: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.71).cos() * 25.0).collect();
            let (mut scratch, mut keys) = (Vec::new(), Vec::new());
            for (ri, want) in first_keys.into_iter().enumerate() {
                family.keys_at_radius(&p, ri, &mut scratch, &mut keys);
                assert_eq!(keys[0], want, "m={m} d={dim} ri={ri}");
            }
            assert_eq!(kernel::dot(&p, &q).to_bits(), dot_bits);
            assert_eq!(kernel::dist2(&p, &q).to_bits(), dist2_bits);
        }
    }

    #[test]
    fn family_reproducible() {
        let radii = [1.0f32, 2.0, 4.0];
        let f1 = HashFamily::generate(8, 3, 4.0, 5, &radii, 99);
        let f2 = HashFamily::generate(8, 3, 4.0, 5, &radii, 99);
        let p: Vec<f32> = (0..8).map(|i| (i as f32).cos()).collect();
        let mut s = Vec::new();
        let (mut k1, mut k2) = (Vec::new(), Vec::new());
        for ri in 0..3 {
            f1.keys_at_radius(&p, ri, &mut s, &mut k1);
            f2.keys_at_radius(&p, ri, &mut s, &mut k2);
            assert_eq!(k1, k2);
            assert_eq!(k1.len(), 5);
        }
        // Different seed gives different functions.
        let f3 = HashFamily::generate(8, 3, 4.0, 5, &radii, 100);
        f3.keys_at_radius(&p, 0, &mut s, &mut k2);
        f1.keys_at_radius(&p, 0, &mut s, &mut k1);
        assert_ne!(k1, k2);
    }
}
