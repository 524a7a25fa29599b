//! # e2lshos
//!
//! Facade crate for the E2LSH-on-Storage workspace — a reproduction of
//! *"Implementing and Evaluating E2LSH on Storage"* (EDBT 2023).
//!
//! Re-exports the public API of the member crates:
//!
//! * [`core`] ([`e2lsh_core`]) — LSH primitives, parameter derivation and
//!   the in-memory E2LSH index;
//! * [`storage`] ([`e2lsh_storage`]) — the flash-resident E2LSHoS index
//!   with asynchronous I/O, simulated and real device backends, and the
//!   DRAM block cache;
//! * [`service`] ([`e2lsh_service`]) — the sharded, replicated,
//!   multi-threaded query-serving layer, exposed as a **long-lived
//!   session**: `ShardedService::start` returns a `Session` whose
//!   cloneable `Client` handles submit queries and writes
//!   non-blocking through per-request tickets (`QueryTicket` /
//!   `WriteTicket`), with incremental `ServiceReport` snapshots and a
//!   draining shutdown; replica groups with private reactors and
//!   caches over shared per-shard indexes (replica-aware cache warming
//!   on replica start/unfence), load-aware replica routing
//!   (power-of-two-choices) with fencing and failover, top-k merging,
//!   open/closed-loop load generation (including backoff-honoring
//!   closed-loop clients), latency percentiles, the online write path
//!   (mixed read–write serving with per-key cache invalidation epochs,
//!   session-minted insert ids), per-class bounded admission queues
//!   with typed `Overload` shedding and `retry_after` hints, and a
//!   batch query API with hot-query dedup;
//! * [`baselines`] ([`ann_baselines`]) — SRS and QALSH with their R-tree
//!   and B+-tree substrates;
//! * [`datasets`] ([`ann_datasets`]) — the synthetic evaluation suite,
//!   ground truth and accuracy metrics;
//! * [`analysis`] ([`e2lsh_analysis`]) — the paper's query-time cost
//!   models and storage requirement solvers.
//!
//! See `examples/quickstart.rs` for an end-to-end tour,
//! `examples/serve.rs` for the serving layer, and `DESIGN.md` for the
//! map from experiment binaries to the paper's figures and tables.

pub use ann_baselines as baselines;
pub use ann_datasets as datasets;
pub use e2lsh_analysis as analysis;
pub use e2lsh_core as core;
pub use e2lsh_service as service;
pub use e2lsh_storage as storage;

/// Convenience prelude with the most common types.
pub mod prelude {
    pub use ann_datasets::suite::DatasetId;
    pub use e2lsh_core::{knn_search, Dataset, E2lshParams, MemIndex, SearchOptions};
    pub use e2lsh_service::{
        mixed_ops, AdmissionBudget, AdmissionControl, Client, DeviceSpec, Load, Op, OpStatus,
        Overload, QueryResult, QueryTicket, ServiceConfig, Session, ShardBuildConfig, ShardSet,
        ShardUpdater, ShardedService, Topology, WriteOp, WriteResult, WriteTicket,
    };
    pub use e2lsh_storage::build::{build_index, BuildConfig};
    pub use e2lsh_storage::device::cached::{BlockCache, CachedDevice};
    pub use e2lsh_storage::device::file::FileDevice;
    pub use e2lsh_storage::device::sim::{Backing, DeviceProfile, SimStorage};
    pub use e2lsh_storage::device::Interface;
    pub use e2lsh_storage::index::StorageIndex;
    pub use e2lsh_storage::query::{run_queries, EngineConfig};
}
