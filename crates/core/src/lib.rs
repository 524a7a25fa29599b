//! # e2lsh-core
//!
//! Core primitives for E2LSH (Euclidean locality-sensitive hashing) as
//! introduced by Datar, Immorlica, Indyk and Mirrokni (SCG 2004) and used by
//! the EDBT 2023 paper *"Implementing and Evaluating E2LSH on Storage"*.
//!
//! The crate provides:
//!
//! * [`math`] — special functions (erf, normal CDF, incomplete gamma,
//!   chi-square CDF) needed for collision probabilities and baseline methods;
//! * [`kernel`] — the three hot loops (dot product, squared distance,
//!   compound-hash projection), each as a portable reference and an explicit
//!   AVX2 version picked at run time (the paper uses AVX-512 kernels); the
//!   crate's only `unsafe`;
//! * [`distance`] — Euclidean distance functions over those kernels;
//! * [`dataset`] — a flat, cache-friendly container for `n` points of
//!   dimension `d`;
//! * [`lsh`] — p-stable hash functions `h(o) = ⌊(a·o + b)/w⌋`, compound
//!   hashes `g(o) = (h_1(o), …, h_m(o))`, and the 64/32-bit mixing used to
//!   address hash buckets;
//! * [`params`] — derivation of the E2LSH parameters `(m, L, S)` from
//!   Equation 5 of the paper, collision probability `p_w(s)`, and the radius
//!   schedule `R = 1, c, c², …`;
//! * [`index`] — an in-memory E2LSH index (the paper's "in-memory E2LSH"
//!   baseline and the reference implementation the storage engine mirrors);
//! * [`search`] — the `(R, c)`-NN radius-escalation driver that turns the
//!   index into a top-k `c`-ANNS structure, with detailed per-query
//!   statistics used by the paper's I/O-cost analysis (Section 4.3).
//!
//! ## Quick example
//!
//! ```
//! use e2lsh_core::dataset::Dataset;
//! use e2lsh_core::params::E2lshParams;
//! use e2lsh_core::index::MemIndex;
//! use e2lsh_core::search::{SearchOptions, knn_search};
//!
//! // A tiny random dataset.
//! let mut pts = Vec::new();
//! let mut state = 1u64;
//! for _ in 0..500 {
//!     let mut p = Vec::new();
//!     for _ in 0..16 {
//!         state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
//!         p.push(((state >> 33) as f32 / (1u64 << 31) as f32) * 10.0);
//!     }
//!     pts.push(p);
//! }
//! let ds = Dataset::from_rows(&pts);
//! let params = E2lshParams::derive(ds.len(), 2.0, 4.0, 1.0, ds.max_abs_coord(), ds.dim());
//! let index = MemIndex::build(&ds, &params, 42);
//! let q = ds.point(0).to_vec();
//! let (results, _stats) = knn_search(&index, &ds, &q, 1, &SearchOptions::default());
//! assert_eq!(results[0].0, 0); // the point itself is its own nearest neighbor
//! ```

// `unsafe` lives in `kernel` alone, every block under a `// SAFETY:` line
// (clippy enforces it).
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod dataset;
pub mod distance;
pub mod fxhash;
pub mod index;
#[allow(unsafe_code)]
pub mod kernel;
pub mod lsh;
pub mod math;
pub mod params;
pub mod search;

pub use dataset::Dataset;
pub use index::MemIndex;
pub use params::E2lshParams;
pub use search::{knn_search, Neighbor, SearchOptions, SearchStats, TopK};
