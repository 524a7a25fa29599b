//! Euclidean distance functions.
//!
//! The paper accelerates distance checking with AVX-512. Here [`dist2`] and
//! [`dot`] are the kernels of [`crate::kernel`]: explicit AVX2 where the CPU
//! has it, a portable 16-lane loop elsewhere, the same bits either way.

pub use crate::kernel::{dist2, dot};

/// Euclidean distance.
#[inline]
pub fn dist(a: &[f32], b: &[f32]) -> f32 {
    dist2(a, b).sqrt()
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
