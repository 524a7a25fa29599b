//! The three hot loops of E2LSH: the dot product behind every LSH
//! projection, the squared distance behind every candidate check, and the
//! row-blocked projection that evaluates a whole compound hash.
//!
//! Each loop is written twice. [`portable`] is plain Rust and *is* the
//! specification of the result, bit for bit: hash values are rounded
//! projections, so the summation order below is part of the on-storage
//! format (see [`KERNEL_REVISION`]). The `avx2` module is the same
//! arithmetic in explicit `core::arch::x86_64` intrinsics — the paper runs
//! these loops on wide SIMD, and LLVM does not get there on its own: it
//! turns the portable code into 128-bit SSE at best, and compiling the same
//! source with AVX2 enabled changes nothing measurable.
//!
//! **Dispatch.** The functions at this level pick the AVX2 kernels when
//! `is_x86_feature_detected!("avx2")` says the CPU has them and the
//! portable ones otherwise (every other x86-64 and every other
//! architecture). std caches the CPUID probe, so the choice is made once
//! per process and costs one predictable branch per call. Nothing else
//! selects a kernel: no cargo feature, environment variable or config
//! field.
//!
//! **The order both implementations keep.** For `Σ term(aᵢ, bᵢ)`:
//!
//! 1. whole 16-element chunks feed sixteen running sums, lane `l` taking
//!    elements `16c + l` in chunk order, each step one rounded multiply (or
//!    subtract-and-square) followed by one rounded add — **no FMA**;
//! 2. the lanes fold pairwise, `l += l + 8`, then `l += l + 4`,
//!    `l += l + 2`, `0 += 1`;
//! 3. the `len % 16` tail elements are summed left to right and added last.
//!
//! A projection then computes `⌊(Σ · inv_r + b) / w⌋` with one rounding per
//! operation, in that order (a true division, not a reciprocal multiply).

#![deny(unsafe_op_in_unsafe_fn)]

#[cfg(target_arch = "x86_64")]
mod avx2;
pub mod portable;

/// Revision of the arithmetic above. An index image built under one
/// summation order must not be queried under another, so anything that
/// caches built images keys them by this number.
///
/// Bump it when — and only when — a change makes [`dot`], [`dist2`] or
/// [`project`] return different bits for some input on some host: a new
/// lane count, fold pairing or tail position, fusing the multiply into the
/// add, replacing the division, or a new SIMD variant that does not
/// reproduce [`portable`] exactly. A variant that passes the bit-identity
/// tests at the bottom of this file leaves it alone, and images stay valid
/// across hosts with and without that variant.
pub const KERNEL_REVISION: u32 = 2;

/// Dot product of two equal-length vectors.
///
/// Panics in debug builds if the lengths differ.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU reports AVX2, the only requirement of `avx2::dot`.
        return unsafe { avx2::dot(a, b) };
    }
    portable::dot(a, b)
}

/// Squared Euclidean distance between two equal-length vectors.
///
/// Panics in debug builds if the lengths differ.
#[inline]
pub fn dist2(a: &[f32], b: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU reports AVX2, the only requirement of `avx2::dist2`.
        return unsafe { avx2::dist2(a, b) };
    }
    portable::dist2(a, b)
}

/// The `m` p-stable hash functions of one compound hash, borrowed:
/// `h_j(o) = ⌊(rows[j]·o · inv_r + offsets[j]) / w⌋`.
#[derive(Clone, Copy, Debug)]
pub struct Projection<'a> {
    /// `m × d` row-major projection vectors.
    pub rows: &'a [f32],
    /// `m` offsets `b_j`.
    pub offsets: &'a [f32],
    /// Bucket width `w`.
    pub w: f32,
}

impl Projection<'_> {
    /// Panics unless `rows` is `offsets.len()` rows of `point.len()`
    /// columns and every output has one element per row.
    fn check(&self, point: &[f32], out: &[i32], frac: Option<&[f32]>) {
        let m = self.offsets.len();
        assert_eq!(self.rows.len(), m * point.len(), "rows are not m × d");
        assert_eq!(out.len(), m, "one hash value per row");
        assert!(frac.is_none_or(|f| f.len() == m), "one fraction per row");
    }
}

/// Evaluate all `m` hash functions of `proj` on `point` scaled by `inv_r`
/// (one over the search radius): `out[j]` gets the hash value and, when
/// asked for, `frac[j]` the position of the projection inside its bucket
/// (`∈ [0, 1)`, what multi-probe LSH ranks perturbations by).
///
/// The AVX2 kernel shares each load of `point` across four rows; every
/// row's sum keeps the order of [`dot`].
///
/// Panics if the shapes disagree (see [`Projection`]).
#[inline]
pub fn project(
    proj: &Projection,
    point: &[f32],
    inv_r: f32,
    out: &mut [i32],
    frac: Option<&mut [f32]>,
) {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU reports AVX2, the only requirement of
        // `avx2::project`.
        return unsafe { avx2::project(proj, point, inv_r, out, frac) };
    }
    portable::project(proj, point, inv_r, out, frac)
}

/// The term of [`dot`].
#[inline(always)]
fn product(x: f32, y: f32) -> f32 {
    x * y
}

/// The term of [`dist2`].
#[inline(always)]
fn squared_difference(x: f32, y: f32) -> f32 {
    let d = x - y;
    d * d
}

/// `Σ term(aᵢ, bᵢ)` over the tail of a vector, left to right (step 3).
#[inline(always)]
fn tail_sum(a: &[f32], b: &[f32], term: impl Fn(f32, f32) -> f32) -> f32 {
    a.iter().zip(b).map(|(&x, &y)| term(x, y)).sum()
}

/// The scalar end of a projection: hash value and in-bucket fraction of
/// the raw dot product `sum` under hash function `(b, w)`.
#[inline(always)]
fn quantize(sum: f32, inv_r: f32, b: f32, w: f32) -> (i32, f32) {
    let scaled = (sum * inv_r + b) / w;
    let h = floor(scaled);
    (h as i32, scaled - h)
}

/// `f32::floor`, bit for bit (the tests compare them), without the call
/// into libm that baseline x86-64 — no SSE4.1 `roundss` — compiles it to.
#[inline(always)]
fn floor(x: f32) -> f32 {
    // From 2²³ up every f32 is an integer; NaN fails the comparison too.
    if x.abs() < 8_388_608.0 {
        let toward_zero = x as i32 as f32;
        let down = if toward_zero > x {
            toward_zero - 1.0
        } else {
            toward_zero
        };
        // ⌊x⌋ has the sign of x, including ⌊-0.0⌋ = -0.0.
        down.copysign(x)
    } else {
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    type Pair = fn(&[f32], &[f32]) -> f32;
    type Project = fn(&Projection, &[f32], f32, &mut [i32], Option<&mut [f32]>);

    /// One implementation of the three loops.
    struct Kernel {
        name: &'static str,
        dot: Pair,
        dist2: Pair,
        project: Project,
    }

    /// Every kernel this host can run besides the portable reference; says
    /// so on stderr for the ones it cannot.
    fn host_kernels() -> Vec<Kernel> {
        let mut kernels = vec![Kernel {
            name: "dispatched",
            dot,
            dist2,
            project,
        }];
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            kernels.push(Kernel {
                name: "avx2",
                // SAFETY: AVX2 was detected just above.
                dot: |a, b| unsafe { avx2::dot(a, b) },
                // SAFETY: AVX2 was detected just above.
                dist2: |a, b| unsafe { avx2::dist2(a, b) },
                // SAFETY: AVX2 was detected just above.
                project: |p, x, r, o, f| unsafe { avx2::project(p, x, r, o, f) },
            });
        } else {
            eprintln!("skipping the avx2 kernels: this CPU does not report AVX2");
        }
        #[cfg(not(target_arch = "x86_64"))]
        eprintln!("skipping the avx2 kernels: not an x86-64 host");
        kernels
    }

    /// `NaN == NaN` here: Rust does not pin NaN payloads, every other value
    /// must match bit for bit.
    fn same_bits(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// Values spread over the whole exponent range: subnormals, ordinary
    /// magnitudes, up to ±1e30 (whose products overflow), exact zeros.
    fn wild(rng: &mut ChaCha8Rng) -> f32 {
        let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
        let mantissa = rng.gen::<f32>() + 0.5;
        sign * match rng.gen_range(0..8u32) {
            0 => 0.0,
            1 => mantissa * 1e-42,
            2 => mantissa * 1e-20,
            3 => mantissa * 1e15,
            4 => mantissa * 1e30,
            _ => mantissa * 4.0,
        }
    }

    #[test]
    fn floor_is_f32_floor() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let edges = [
            0.0f32,
            -0.0,
            0.5,
            -0.5,
            1.0,
            -1.0,
            8_388_607.5,
            -8_388_607.5,
            8_388_608.0,
            -8_388_609.0,
            2_147_483_648.0,
            -2_147_483_904.0,
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
            -1e-45,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        let random = (0..200_000).map(|_| f32::from_bits(rng.gen::<u32>()));
        for x in edges.into_iter().chain(random) {
            assert!(same_bits(floor(x), x.floor()), "floor({x:e})");
        }
    }

    #[test]
    fn dot_and_dist2_equal_the_portable_reference_bit_for_bit() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for kernel in host_kernels() {
            for n in 0..=300usize {
                for round in 0..6 {
                    let gen = |rng: &mut ChaCha8Rng| -> Vec<f32> {
                        if round < 3 {
                            (0..n).map(|_| rng.gen::<f32>() * 8.0 - 4.0).collect()
                        } else {
                            (0..n).map(|_| wild(rng)).collect()
                        }
                    };
                    let (a, b) = (gen(&mut rng), gen(&mut rng));
                    let (got, want) = ((kernel.dot)(&a, &b), portable::dot(&a, &b));
                    assert!(
                        same_bits(got, want),
                        "{} dot, n={n}: {got:e} vs {want:e}",
                        kernel.name
                    );
                    let (got, want) = ((kernel.dist2)(&a, &b), portable::dist2(&a, &b));
                    assert!(
                        same_bits(got, want),
                        "{} dist2, n={n}: {got:e} vs {want:e}",
                        kernel.name
                    );
                }
            }
        }
    }

    #[test]
    fn project_equals_the_portable_reference_bit_for_bit() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        for kernel in host_kernels() {
            for dim in (1..=300usize).step_by(7).chain([16, 32, 100, 128]) {
                for m in 1..=11usize {
                    let wild_round = (dim + m) % 3 == 0;
                    let mut gen = |len: usize| -> Vec<f32> {
                        if wild_round {
                            (0..len).map(|_| wild(&mut rng)).collect()
                        } else {
                            (0..len).map(|_| rng.gen::<f32>() * 8.0 - 4.0).collect()
                        }
                    };
                    let (rows, point) = (gen(m * dim), gen(dim));
                    let offsets: Vec<f32> = gen(m).iter().map(|x| x.abs()).collect();
                    let proj = Projection {
                        rows: &rows,
                        offsets: &offsets,
                        w: 4.0,
                    };
                    let inv_r = 1.0 / (1.0 + (m % 4) as f32);
                    let (mut h, mut f) = (vec![0; m], vec![0.0; m]);
                    let (mut h_ref, mut f_ref) = (vec![0; m], vec![0.0; m]);
                    portable::project(&proj, &point, inv_r, &mut h_ref, Some(&mut f_ref));
                    (kernel.project)(&proj, &point, inv_r, &mut h, Some(&mut f));
                    assert_eq!(h, h_ref, "{} project, m={m} d={dim}", kernel.name);
                    for (got, want) in f.iter().zip(&f_ref) {
                        assert!(
                            same_bits(*got, *want),
                            "{} project frac, m={m} d={dim}: {got:e} vs {want:e}",
                            kernel.name
                        );
                    }
                    // Without the fraction output the hash values are the same.
                    h.fill(-1);
                    (kernel.project)(&proj, &point, inv_r, &mut h, None);
                    assert_eq!(h, h_ref, "{} project, m={m} d={dim}", kernel.name);
                }
            }
        }
    }

    #[test]
    fn project_is_one_dot_per_row() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let (m, dim) = (10, 128);
        let rows: Vec<f32> = (0..m * dim).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect();
        let point: Vec<f32> = (0..dim).map(|_| rng.gen::<f32>() * 200.0).collect();
        let offsets: Vec<f32> = (0..m).map(|_| rng.gen::<f32>() * 4.0).collect();
        let proj = Projection {
            rows: &rows,
            offsets: &offsets,
            w: 4.0,
        };
        let (mut h, mut f) = (vec![0; m], vec![0.0; m]);
        portable::project(&proj, &point, 0.5, &mut h, Some(&mut f));
        for j in 0..m {
            let sum = portable::dot(&rows[j * dim..(j + 1) * dim], &point);
            let scaled = (sum * 0.5 + offsets[j]) / 4.0;
            assert_eq!(h[j], scaled.floor() as i32);
            assert_eq!(f[j], scaled - scaled.floor());
        }
    }

    #[test]
    #[should_panic(expected = "rows are not m × d")]
    fn project_rejects_a_short_row_matrix() {
        let proj = Projection {
            rows: &[0.0; 7],
            offsets: &[0.0; 2],
            w: 1.0,
        };
        project(&proj, &[0.0; 4], 1.0, &mut [0; 2], None);
    }
}
