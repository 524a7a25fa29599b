//! # e2lsh-storage
//!
//! E2LSH-on-Storage (E2LSHoS): the external-memory adaptation of E2LSH
//! from *"Implementing and Evaluating E2LSH on Storage"* (EDBT 2023).
//!
//! The hash index — both hash tables and buckets — lives on storage; only
//! small metadata (parameters, hash-function coefficients, an occupancy
//! bit per table slot) stays in DRAM. Queries are processed with
//! asynchronous I/O and interleaved per-query state machines so the
//! storage device sees a deep queue and delivers its saturated random-read
//! IOPS.
//!
//! Modules:
//!
//! * [`layout`] — the on-disk format: 512-byte chained bucket blocks,
//!   5-byte object-info entries (ID + fingerprint), hash-table regions;
//! * [`build`] — index construction and the superblock;
//! * [`index`] — opening an index; DRAM-resident metadata;
//! * [`device`] — the asynchronous device abstraction, the discrete-event
//!   simulated devices calibrated to the paper's Table 2, and a real
//!   file-backed device;
//! * [`engine`] — the CPU cost model (calibrated against the real
//!   kernels) used by virtual-time runs;
//! * [`query`] — the asynchronous query engine;
//! * [`update`] — online insert/delete without rebuilding (paper Sec. 7).

#![deny(unsafe_code)]

pub mod build;
pub mod device;
pub mod engine;
pub mod index;
pub mod layout;
pub mod query;
pub mod update;

#[doc(hidden)]
pub mod testutil;

pub use build::{build_index, BuildConfig, BuildReport};
pub use device::cached::{BlockCache, CachedDevice};
pub use device::{Device, DeviceStats, Interface};
pub use engine::CostModel;
pub use index::StorageIndex;
pub use query::{
    run_queries, BatchReport, EngineClock, EngineConfig, QueryDriver, QueryOutcome, QueryState,
};
pub use update::{is_id_exhausted, IdSpaceExhausted, MaintenanceReport, Updater, WriteTrace};
