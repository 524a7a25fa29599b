//! CPU cost model and calibration for the virtual-time executor.
//!
//! The paper's asynchronous query-time model (Equation 7) charges the CPU
//! for hash evaluation, distance checking and per-I/O submission overhead.
//! When the engine runs in virtual time against a simulated device, these
//! compute segments are charged from a [`CostModel`] whose per-flop rates
//! are *calibrated by timing the real kernels of this crate's dependencies
//! on the current machine* — so the modeled `T_compute` tracks the code
//! that actually runs, not a guess.

use e2lsh_core::distance::dist2;
use e2lsh_core::lsh::HashFamily;
use std::hint::black_box;
use std::time::Instant;

/// Per-operation CPU costs in seconds.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Seconds per multiply-add of the hash projection kernel.
    pub hash_flop: f64,
    /// Fixed overhead per compound-hash evaluation.
    pub hash_fixed: f64,
    /// Seconds per dimension of the distance kernel.
    pub dist_flop: f64,
    /// Fixed overhead per distance evaluation.
    pub dist_fixed: f64,
    /// Seconds per bucket entry scanned (decode + fingerprint check).
    pub entry_scan: f64,
    /// Fixed overhead per bucket block parsed.
    pub block_fixed: f64,
}

impl CostModel {
    /// Fixed, machine-independent costs for reproducible tests: 0.5 ns per
    /// flop, small fixed overheads.
    pub fn deterministic() -> Self {
        Self {
            hash_flop: 0.5e-9,
            hash_fixed: 20e-9,
            dist_flop: 0.5e-9,
            dist_fixed: 20e-9,
            entry_scan: 1.5e-9,
            block_fixed: 30e-9,
        }
    }

    /// A zero-cost model for wall-clock execution (real work is timed by
    /// the wall clock; nothing must be charged twice).
    pub fn zero() -> Self {
        Self {
            hash_flop: 0.0,
            hash_fixed: 0.0,
            dist_flop: 0.0,
            dist_fixed: 0.0,
            entry_scan: 0.0,
            block_fixed: 0.0,
        }
    }

    /// Measure the real kernels on this machine (takes ~50 ms): a whole
    /// compound-hash evaluation at the paper's shape (`m` = 10 projections
    /// of 128 dimensions through `kernel::project`, quantized and mixed)
    /// and a 128-d distance check.
    pub fn calibrate() -> Self {
        let (m, dim) = (10usize, 128usize);
        let a: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.37).sin()).collect();
        let b: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.71).cos()).collect();
        let family = HashFamily::generate(dim, m, 4.0, 1, &[1.0], 0);
        let compound = family.compound(0, 0);
        let mut scratch = Vec::new();

        // Seconds per call of `f`, after a warm-up.
        let time = |iters: u32, f: &mut dyn FnMut()| -> f64 {
            (0..iters / 10).for_each(|_| f());
            let t0 = Instant::now();
            (0..iters).for_each(|_| f());
            t0.elapsed().as_secs_f64() / f64::from(iters)
        };
        let hash = time(100_000, &mut || {
            black_box(compound.hash64(black_box(&a), 1.0, &mut scratch));
        });
        let dist = time(200_000, &mut || {
            black_box(dist2(black_box(&a), black_box(&b)));
        });
        Self {
            // The whole evaluation was timed: nothing fixed is left over.
            hash_flop: hash / (m * dim) as f64,
            hash_fixed: 0.0,
            dist_flop: dist / dim as f64,
            dist_fixed: 20e-9,
            entry_scan: 1.5e-9,
            block_fixed: 30e-9,
        }
    }

    /// Cost of evaluating one compound hash (`m` projections of `d` dims).
    #[inline]
    pub fn hash_cost(&self, m: usize, dim: usize) -> f64 {
        self.hash_fixed + self.hash_flop * (m * dim) as f64
    }

    /// Cost of one distance check.
    #[inline]
    pub fn dist_cost(&self, dim: usize) -> f64 {
        self.dist_fixed + self.dist_flop * dim as f64
    }

    /// Cost of parsing a bucket block with `entries` entries.
    #[inline]
    pub fn block_cost(&self, entries: usize) -> f64 {
        self.block_fixed + self.entry_scan * entries as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_is_plausible() {
        let m = CostModel::calibrate();
        // A multiply-add on any post-2000 CPU: between 0.01 ns (wide SIMD)
        // and 50 ns (pathological).
        assert!(m.hash_flop > 1e-12 && m.hash_flop < 5e-8, "{}", m.hash_flop);
        assert!(m.dist_flop > 1e-12 && m.dist_flop < 5e-8, "{}", m.dist_flop);
    }

    #[test]
    fn costs_scale() {
        let m = CostModel::deterministic();
        assert!(m.hash_cost(16, 128) > m.hash_cost(8, 128));
        assert!(m.dist_cost(960) > m.dist_cost(128));
        assert!(m.block_cost(99) > m.block_cost(1));
        // Deterministic model: exact expectations.
        assert_eq!(m.hash_cost(10, 100), 20e-9 + 0.5e-9 * 1000.0);
    }

    #[test]
    fn zero_model_charges_nothing() {
        let m = CostModel::zero();
        assert_eq!(m.hash_cost(16, 512), 0.0);
        assert_eq!(m.dist_cost(512), 0.0);
        assert_eq!(m.block_cost(99), 0.0);
    }
}
