//! Euclidean distance kernels.
//!
//! The paper accelerates distance checking with AVX-512; here the kernels
//! are written as chunked loops over sixteen independent lanes that LLVM
//! auto-vectorizes for the target CPU. The experiment harness calibrates the *actual* cost of these
//! kernels at startup so the virtual-time engine charges real numbers.

/// Independent accumulator lanes of the kernels below. A single 4-lane
/// accumulator is one dependent add chain (every step waits out the
/// previous add's latency); sixteen lanes are four 128-bit or two 256-bit
/// chains the CPU overlaps, with no `-ffast-math`-style reassociation
/// needed for LLVM to emit wide SIMD.
const LANES: usize = 16;

/// Revision of the summation order of [`dot`] / [`dist2`]. Hash values
/// are rounded projections, so an index image built under one order must
/// not be queried under another: bump this whenever the order changes
/// (anything that caches built images keys them by it).
pub const KERNEL_REVISION: u32 = 2;

/// `Σ term(aᵢ, bᵢ)`: [`LANES`] running sums over whole chunks, folded
/// pairwise, plus a scalar tail.
#[inline(always)]
fn lane_sum(a: &[f32], b: &[f32], term: impl Fn(f32, f32) -> f32) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    let (a, b) = (a[..n].chunks_exact(LANES), b[..n].chunks_exact(LANES));
    let tail: f32 = a
        .remainder()
        .iter()
        .zip(b.remainder())
        .map(|(&x, &y)| term(x, y))
        .sum();
    let mut acc = [0.0f32; LANES];
    for (ca, cb) in a.zip(b) {
        for lane in 0..LANES {
            acc[lane] += term(ca[lane], cb[lane]);
        }
    }
    let mut width = LANES;
    while width > 1 {
        width /= 2;
        for lane in 0..width {
            acc[lane] += acc[lane + width];
        }
    }
    acc[0] + tail
}

/// Squared Euclidean distance between two equal-length vectors.
///
/// Panics in debug builds if the lengths differ.
#[inline]
pub fn dist2(a: &[f32], b: &[f32]) -> f32 {
    lane_sum(a, b, |x, y| {
        let d = x - y;
        d * d
    })
}

/// Euclidean distance.
#[inline]
pub fn dist(a: &[f32], b: &[f32]) -> f32 {
    dist2(a, b).sqrt()
}

/// Dot product of two equal-length vectors (used by the LSH projection).
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    lane_sum(a, b, |x, y| x * y)
}

/// Squared norm `‖a‖²`.
#[inline]
pub fn norm2(a: &[f32]) -> f32 {
    dot(a, a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist2_basic() {
        assert_eq!(dist2(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(dist(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
    }

    #[test]
    fn dist2_zero() {
        let v = vec![1.5f32; 37];
        assert_eq!(dist2(&v, &v), 0.0);
    }

    #[test]
    fn dist2_matches_naive_for_odd_lengths() {
        for n in [1usize, 2, 3, 5, 7, 16, 17, 33, 100, 129] {
            let a: Vec<f32> = (0..n).map(|i| (i as f32).sin()).collect();
            let b: Vec<f32> = (0..n).map(|i| (i as f32 * 0.7).cos()).collect();
            let naive: f32 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
            let fast = dist2(&a, &b);
            assert!(
                (naive - fast).abs() <= 1e-4 * (1.0 + naive.abs()),
                "n={n}: naive {naive} fast {fast}"
            );
        }
    }

    #[test]
    fn dot_matches_naive() {
        for n in [1usize, 4, 5, 31, 64, 100] {
            let a: Vec<f32> = (0..n).map(|i| 0.1 * i as f32).collect();
            let b: Vec<f32> = (0..n).map(|i| 1.0 - 0.01 * i as f32).collect();
            let naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert!((dot(&a, &b) - naive).abs() <= 1e-3 * (1.0 + naive.abs()));
        }
    }

    #[test]
    fn kernels_match_f64_reference_for_every_length_to_129() {
        for n in 1usize..=129 {
            let a: Vec<f32> = (0..n).map(|i| (i as f32 * 1.3).sin() * 3.0).collect();
            let b: Vec<f32> = (0..n).map(|i| (i as f32 * 0.7).cos() - 0.5).collect();
            let pairs = || {
                a.iter()
                    .zip(&b)
                    .map(|(&x, &y)| (f64::from(x), f64::from(y)))
            };
            let dot64: f64 = pairs().map(|(x, y)| x * y).sum();
            let dist64: f64 = pairs().map(|(x, y)| (x - y) * (x - y)).sum();
            // f32 accumulation over n terms: relative to the magnitude
            // summed, not to a result that cancellation may shrink.
            let mag: f64 = pairs().map(|(x, y)| (x * y).abs()).sum();
            assert!(
                (f64::from(dot(&a, &b)) - dot64).abs() <= 1e-6 * (1.0 + mag),
                "n={n}: dot {} vs {dot64}",
                dot(&a, &b)
            );
            assert!(
                (f64::from(dist2(&a, &b)) - dist64).abs() <= 1e-6 * (1.0 + dist64),
                "n={n}: dist2 {} vs {dist64}",
                dist2(&a, &b)
            );
        }
    }

    #[test]
    fn norm2_is_dot_self() {
        let a: Vec<f32> = (0..50).map(|i| i as f32 * 0.3).collect();
        assert_eq!(norm2(&a), dot(&a, &a));
    }

    #[test]
    fn triangle_inequality() {
        let a = vec![0.0f32; 8];
        let b: Vec<f32> = (0..8).map(|i| i as f32).collect();
        let c: Vec<f32> = (0..8).map(|i| (i as f32) * -0.5).collect();
        assert!(dist(&a, &c) <= dist(&a, &b) + dist(&b, &c) + 1e-5);
    }
}
