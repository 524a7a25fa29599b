//! The kernels in explicit AVX2: sixteen lanes are two 8-lane registers,
//! multiply and add stay separate instructions (no FMA), the fold pairs
//! lanes exactly as [`portable`](super::portable) does, and tail elements
//! and the quantize step run the very same scalar code — so every result
//! equals the reference bit for bit.
//!
//! Every function here requires AVX2 (`#[target_feature]`): callers outside
//! this module must have seen `is_x86_feature_detected!("avx2")`. Memory is
//! only ever read through [`load16`], whose bounds come from its argument
//! type.

use super::{product, quantize, squared_difference, tail_sum, Projection};
use core::arch::x86_64::*;

/// Rows of a compound hash evaluated per pass over the point: four rows
/// are eight accumulators plus the two point registers and two temporaries,
/// which still fits the sixteen `ymm` registers.
const ROW_BLOCK: usize = 4;

/// Sixteen running sums: `lo` is lanes 0..8, `hi` lanes 8..16.
#[derive(Clone, Copy)]
struct Lanes {
    lo: __m256,
    hi: __m256,
}

#[inline]
#[target_feature(enable = "avx2")]
fn load16(chunk: &[f32; 16]) -> Lanes {
    // SAFETY: `chunk` is sixteen contiguous, initialised f32s, so the two
    // unaligned 8-lane loads at elements 0 and 8 stay inside it.
    unsafe {
        Lanes {
            lo: _mm256_loadu_ps(chunk.as_ptr()),
            hi: _mm256_loadu_ps(chunk.as_ptr().add(8)),
        }
    }
}

/// Step 2 of the order: `l += l + 8`, `l += l + 4`, `l += l + 2`, `0 += 1`.
#[inline]
#[target_feature(enable = "avx2")]
fn fold(acc: Lanes) -> f32 {
    let s8 = _mm256_add_ps(acc.lo, acc.hi);
    let s4 = _mm_add_ps(_mm256_castps256_ps128(s8), _mm256_extractf128_ps::<1>(s8));
    let s2 = _mm_add_ps(s4, _mm_movehl_ps(s4, s4));
    let s1 = _mm_add_ss(s2, _mm_shuffle_ps::<1>(s2, s2));
    _mm_cvtss_f32(s1)
}

/// `Σ term(rows[r][i], point[i])` for each of the `R` rows of `rows`
/// (`R × point.len()`, row-major), loading each chunk of `point` once.
/// `term` is `(a − p)²` when `DIST`, else `a · p`.
#[inline]
#[target_feature(enable = "avx2")]
fn row_sums<const R: usize, const DIST: bool>(rows: &[f32], point: &[f32]) -> [f32; R] {
    let dim = point.len();
    assert_eq!(rows.len(), R * dim);
    let (point_chunks, point_tail) = point.as_chunks::<16>();
    let mut chunks = [&[][..]; R];
    let mut tails = [&[][..]; R];
    for r in 0..R {
        (chunks[r], tails[r]) = rows[r * dim..(r + 1) * dim].as_chunks::<16>();
        // Same length by construction; saying so lets the loop below index
        // without bounds checks.
        chunks[r] = &chunks[r][..point_chunks.len()];
    }
    let zero = _mm256_setzero_ps();
    let mut acc = [Lanes { lo: zero, hi: zero }; R];
    for (c, p) in point_chunks.iter().enumerate() {
        let p = load16(p);
        for r in 0..R {
            let a = load16(&chunks[r][c]);
            let (lo, hi) = if DIST {
                let (lo, hi) = (_mm256_sub_ps(a.lo, p.lo), _mm256_sub_ps(a.hi, p.hi));
                (_mm256_mul_ps(lo, lo), _mm256_mul_ps(hi, hi))
            } else {
                (_mm256_mul_ps(a.lo, p.lo), _mm256_mul_ps(a.hi, p.hi))
            };
            acc[r] = Lanes {
                lo: _mm256_add_ps(acc[r].lo, lo),
                hi: _mm256_add_ps(acc[r].hi, hi),
            };
        }
    }
    let mut sums = [0.0; R];
    for r in 0..R {
        let tail = if DIST {
            tail_sum(tails[r], point_tail, squared_difference)
        } else {
            tail_sum(tails[r], point_tail, product)
        };
        sums[r] = fold(acc[r]) + tail;
    }
    sums
}

/// [`dot`](super::dot) on AVX2.
#[target_feature(enable = "avx2")]
pub(super) fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    row_sums::<1, false>(&a[..n], &b[..n])[0]
}

/// [`dist2`](super::dist2) on AVX2.
#[target_feature(enable = "avx2")]
pub(super) fn dist2(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    row_sums::<1, true>(&a[..n], &b[..n])[0]
}

/// Hash functions `first .. first + R` of `proj`.
#[inline]
#[target_feature(enable = "avx2")]
fn project_rows<const R: usize>(
    proj: &Projection,
    first: usize,
    point: &[f32],
    inv_r: f32,
    out: &mut [i32],
    frac: &mut Option<&mut [f32]>,
) {
    let dim = point.len();
    let sums = row_sums::<R, false>(&proj.rows[first * dim..(first + R) * dim], point);
    for (j, sum) in (first..).zip(sums) {
        let (h, f) = quantize(sum, inv_r, proj.offsets[j], proj.w);
        out[j] = h;
        if let Some(frac) = frac {
            frac[j] = f;
        }
    }
}

/// [`project`](super::project) on AVX2, [`ROW_BLOCK`] rows per pass.
#[target_feature(enable = "avx2")]
pub(super) fn project(
    proj: &Projection,
    point: &[f32],
    inv_r: f32,
    out: &mut [i32],
    mut frac: Option<&mut [f32]>,
) {
    proj.check(point, out, frac.as_deref());
    let m = out.len();
    let mut j = 0;
    while j + ROW_BLOCK <= m {
        project_rows::<ROW_BLOCK>(proj, j, point, inv_r, out, &mut frac);
        j += ROW_BLOCK;
    }
    if j + 2 <= m {
        project_rows::<2>(proj, j, point, inv_r, out, &mut frac);
        j += 2;
    }
    if j < m {
        project_rows::<1>(proj, j, point, inv_r, out, &mut frac);
    }
}
