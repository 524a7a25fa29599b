//! The reference kernels: plain Rust, the path every non-AVX2 and non-x86
//! host runs, and the definition of what any other kernel must return.

use super::{product, quantize, squared_difference, tail_sum, Projection};

/// Independent accumulator lanes (step 1 of the order in [`super`]): one
/// 4-lane accumulator is a single dependent add chain, sixteen lanes are
/// four 128-bit chains the CPU overlaps.
const LANES: usize = 16;

/// Steps 1 and 2 down to four lanes, and the tail sum. The sixteen lanes
/// are held as four groups of four adjacent lanes — one 128-bit register
/// each.
#[inline(always)]
fn four_lane_sums(a: &[f32], b: &[f32], term: impl Fn(f32, f32) -> f32) -> ([f32; 4], f32) {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    let (chunks_a, tail_a) = a[..n].as_chunks::<LANES>();
    let (chunks_b, tail_b) = b[..n].as_chunks::<LANES>();
    let mut acc = [[0.0f32; 4]; 4];
    for (ca, cb) in chunks_a.iter().zip(chunks_b) {
        for (g, group) in acc.iter_mut().enumerate() {
            for (l, lane) in group.iter_mut().enumerate() {
                *lane += term(ca[4 * g + l], cb[4 * g + l]);
            }
        }
    }
    let add = |x: [f32; 4], y: [f32; 4]| -> [f32; 4] { std::array::from_fn(|l| x[l] + y[l]) };
    let [g0, g1, g2, g3] = acc;
    // l += l + 8, then l += l + 4.
    let lanes = add(add(g0, g2), add(g1, g3));
    (lanes, tail_sum(tail_a, tail_b, term))
}

/// The last two folds, `l += l + 2` and `0 += 1`.
///
/// Outlined on purpose. Inlined, this scalar tree is where LLVM's SLP
/// vectorizer starts from, and it then splits the whole loop above into
/// eight 2-lane chains fed by 64-bit `movsd` loads; behind a call the
/// partial sums stay one 128-bit value and the loop runs on full-width
/// `movups`/`mulps`/`addps` (1.8× faster on a 128-d dot).
#[inline(never)]
fn fold4(s: &[f32; 4]) -> f32 {
    (s[0] + s[2]) + (s[1] + s[3])
}

#[inline(always)]
fn lane_sum(a: &[f32], b: &[f32], term: impl Fn(f32, f32) -> f32) -> f32 {
    let (lanes, tail) = four_lane_sums(a, b, term);
    fold4(&lanes) + tail
}

/// Reference [`dot`](super::dot).
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    lane_sum(a, b, product)
}

/// Reference [`dist2`](super::dist2).
#[inline]
pub fn dist2(a: &[f32], b: &[f32]) -> f32 {
    lane_sum(a, b, squared_difference)
}

/// Reference [`project`](super::project): one [`dot`] per row.
pub fn project(
    proj: &Projection,
    point: &[f32],
    inv_r: f32,
    out: &mut [i32],
    mut frac: Option<&mut [f32]>,
) {
    proj.check(point, out, frac.as_deref());
    let dim = point.len();
    for (j, &b) in proj.offsets.iter().enumerate() {
        let row = &proj.rows[j * dim..(j + 1) * dim];
        let (h, f) = quantize(dot(row, point), inv_r, b, proj.w);
        out[j] = h;
        if let Some(frac) = frac.as_deref_mut() {
            frac[j] = f;
        }
    }
}
