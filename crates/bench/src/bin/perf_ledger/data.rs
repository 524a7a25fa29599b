//! The fixed dataset every workload runs on, and the seeded request
//! streams drawn over it.

use crate::rng::{SplitMix64, Zipf};
use crate::spec::{Workload, K, N_GROUND_TRUTH, N_INDEXED, N_INSERT_POOL, N_QUERY_POOL};
use ann_datasets::ground_truth::GroundTruth;
use ann_datasets::suite::{self, DatasetId};
use e2lsh_core::dataset::Dataset;

/// Sub-stream ids of `--seed` (one per purpose, so adding a stream never
/// shifts another).
pub mod stream {
    pub const WARMUP: u64 = 1;
    pub const CLOSED: u64 = 2;
    pub const OPEN_PICKS: u64 = 3;
    pub const OPEN_READ_ARRIVALS: u64 = 4;
    pub const OPEN_WRITE_ARRIVALS: u64 = 5;
    pub const GATE: u64 = 6;
    pub const TRACED: u64 = 7;
    pub const LADDER: u64 = 8;
    pub const MICRO: u64 = 9;
}

/// The rows and query pool (identical for every seed: the data is the
/// system's state, the seed chooses the traffic).
pub struct Inputs {
    /// The `N_INDEXED` rows indexed at build time.
    pub data: Dataset,
    /// Rows `N_INDEXED..`, inserted by `mixed_churn`.
    pub insert_pool: Dataset,
    /// Held-out queries.
    pub queries: Dataset,
}

impl Inputs {
    pub fn load() -> Self {
        let named = suite::load_sized(DatasetId::Sift, N_INDEXED + N_INSERT_POOL, N_QUERY_POOL);
        let data = named.data.prefix(N_INDEXED);
        let mut insert_pool = Dataset::with_capacity(named.data.dim(), N_INSERT_POOL);
        for i in N_INDEXED..named.data.len() {
            insert_pool.push(named.data.point(i));
        }
        Self {
            data,
            insert_pool,
            queries: named.queries,
        }
    }

    /// Brute-force top-`K` of the first `N_GROUND_TRUTH` pool queries
    /// over the build-time rows.
    pub fn ground_truth(&self) -> GroundTruth {
        GroundTruth::compute(&self.data, &self.queries.prefix(N_GROUND_TRUTH), K)
    }
}

/// The Zipf pick stream of one phase of one workload.
pub fn picks(w: &Workload, seed: u64, stream: u64, count: usize) -> Vec<u32> {
    Zipf::new(N_QUERY_POOL, w.zipf_s).draws(&mut SplitMix64::stream(seed, stream), count)
}
