//! # e2lsh-bench
//!
//! Shared harness for the experiment binaries that regenerate every table
//! and figure of the E2LSHoS paper (see `DESIGN.md` §4 for the map from
//! experiment to binary).
//!
//! * [`prep`] — load a named dataset, derive the per-dataset E2LSH
//!   parameters the harness uses, compute ground truth;
//! * [`sweep`] — accuracy sweeps: each method exposes one knob (E2LSH: the
//!   candidate budget `S`; SRS: the examination budget `T'`; QALSH: the
//!   approximation ratio `c`), and the sweep walks the knob to produce
//!   (overall ratio, query time) curves and to hit a target ratio;
//! * [`report`] — uniform stdout tables plus JSON-lines records under
//!   `results/` for archival.
//!
//! The repo's serving benchmark is the `perf_ledger` bin
//! (`BENCHMARK.json`, `src/bin/perf_ledger/README.md`); it carries its
//! own harness and uses only [`prep::e2lsh_params`] from this library.

pub mod prep;
pub mod report;
pub mod sweep;
