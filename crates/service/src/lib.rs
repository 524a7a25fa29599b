//! # e2lsh-service
//!
//! A sharded, multi-threaded query-serving layer over the E2LSHoS index
//! — the production-shaped tier the EDBT 2023 paper stops short of.
//! The paper shows one asynchronous engine saturating one device's
//! random-read IOPS; this crate scales that engine out:
//!
//! * [`shard`] — partition the dataset into `N` contiguous shards, each
//!   with its own on-storage index (and its own device), global↔local id
//!   mapping by offset;
//! * [`topology`] — back each shard with **R replicas** that share the
//!   shard's index and rows but own private reactors, block caches
//!   and admission queues (read scaling + failover); replica health
//!   (fencing) lives here;
//! * [`router`] — pick one replica per shard per query by
//!   power-of-two-choices over live queue depth, plus the
//!   fencing/failover protocol that re-dispatches a dead replica's
//!   outstanding queries to a sibling;
//! * [`session`] — the **session**, the service's only executor:
//!   [`ShardedService::start`](service::ShardedService::start) brings
//!   reactors, writers and collector up once and returns a
//!   long-lived [`session::Session`]; cloneable
//!   [`session::Client`] handles submit queries and writes
//!   **non-blocking**, each resolving through a per-request ticket
//!   ([`session::QueryTicket`] /
//!   [`session::WriteTicket`]) that carries the op's
//!   status — including the typed `Overload` with its `retry_after`
//!   hint when shed; [`Session::metrics`](session::Session::metrics)
//!   reports incrementally and
//!   [`Session::shutdown`](session::Session::shutdown) drains and
//!   joins;
//! * [`service`] — [`service::ServiceConfig`], the
//!   [`service::ServiceReport`] snapshot shape and
//!   [`service::ShardedService`], which owns the topology and starts
//!   sessions; every query fans out to all shards (one replica each)
//!   and the per-shard top-k results are merged by distance;
//! * [`reactor`] — the **completion-driven engine**: one event loop
//!   on one thread per replica owns the replica's device handle and
//!   admission queue, multiplexes up to
//!   [`ServiceConfig::inflight_per_replica`](service::ServiceConfig::inflight_per_replica)
//!   interleaved [`QueryState`](e2lsh_storage::query::QueryState)
//!   slots over the device's native queue depth and runs their CPU
//!   work (hashing, distance evaluation) itself — in-flight queries
//!   are slots, not blocked threads (the paper's §6.5 async-over-sync
//!   result at service scale); includes panic containment: a crashing
//!   reactor fences its replica instead of stranding its tickets;
//! * [`shared_sim`] — a simulated device array shared by a shard's
//!   replicas, so replica scaling contends for one array's IOPS (the
//!   paper's Figure 16 regime) instead of duplicating hardware;
//! * [`update`] — the online write path: one
//!   [`update::ShardUpdater`] per shard applies inserts
//!   and deletes through the storage crate's updater *while the shard
//!   serves queries*, invalidating exactly the rewritten blocks in the
//!   shard cache (per-key epochs) and publishing new occupancy-filter
//!   bits into the live index;
//! * [`admission`] — bounded queues with explicit load shedding: one
//!   [`AdmissionBudget`] per service caps the depth and queued bytes of
//!   every replica's read queue and every shard's write queue (each
//!   with its own gate); queries beyond it are rejected at dispatch with the typed
//!   [`Overload`] error, writes either shed the same way
//!   ([`session::Client::write`] — safe now that insert ids are minted
//!   at admission) or backpressure the submitter
//!   ([`session::Client::write_blocking`]), and the service reports
//!   goodput, shed rate and peak queue depth — offered load past
//!   capacity degrades into countable rejections or bounded stalls,
//!   not unbounded queues;
//! * [`loadgen`] — closed-loop (fixed in-flight window) and open-loop
//!   (Poisson arrivals) [`Load`] disciplines,
//!   Zipf-skewed query streams, seeded mixed read–write op streams
//!   ([`loadgen::mixed_ops`]), and [`loadgen::drive`] — the one pump
//!   that replays such a stream through a live session and hands back
//!   the resolved tickets ([`loadgen::Driven`]);
//! * [`metrics`] — latency percentiles (p50/p95/p99), summaries, and
//!   rejected-request accounting ([`metrics::OpStatus`]; percentiles
//!   cover accepted ops, shed ops are counted separately), plus the
//!   bounded log-bucketed [`metrics::LatencyHistogram`] that backs
//!   long-lived session metrics (fixed memory, mergeable, and
//!   *subtractable* so interval slicing stays exact);
//! * [`trace`] — per-request trace spans: stage-timestamped records
//!   (admitted → routed → per-shard device windows → merged →
//!   resolved) published to a lock-free sampled ring
//!   ([`ServiceConfig::trace_sample`](service::ServiceConfig)) and a
//!   slow-query log with full breakdowns;
//! * [`export`] — the metrics registry + JSON exporter: a stable,
//!   versioned schema ([`export::report_json`]) — what the net tier's
//!   `Metrics` frame carries;
//! * [`net`] — the network serving tier:
//!   length-prefixed binary frames over `std::net` TCP, a
//!   [`net::NetServer`] mapping pipelined in-flight frames 1:1 onto
//!   session tickets (per-connection reader + completion pump,
//!   responses out of order by correlation id), per-**tenant**
//!   admission budgets keyed by the frame header's tenant id, and a
//!   [`net::NetClient`] mirroring the in-process `Client` surface
//!   over a socket.
//!
//! Batches of queries go through
//! [`Session::query_batch`](session::Session::query_batch):
//! byte-identical hot queries are deduplicated before the engine, each
//! unique query is submitted as its own ticket at one shared arrival
//! instant (one probe per unique query per shard), and the
//! representative's [`QueryResult`] is handed to every duplicate —
//! there is no batch report.
//!
//! DRAM caching comes from the storage crate's
//! [`CachedDevice`](e2lsh_storage::device::cached::CachedDevice): each
//! replica of a shard owns a private LRU
//! [`BlockCache`](e2lsh_storage::device::cached::BlockCache), so hot
//! buckets under skewed traffic are served from memory and the cache
//! hit rate shows up in every [`service::ServiceReport`].

#![deny(unsafe_code)]

pub mod admission;
pub mod export;
pub mod loadgen;
pub mod metrics;
pub mod net;
pub mod reactor;
pub mod router;
pub mod service;
pub mod session;
pub mod shard;
pub mod shared_sim;
pub mod topology;
pub mod trace;
pub mod update;

pub use admission::{AdmissionBudget, GateHandle, GateStats, GatedReceiver, GatedSender, Overload};
pub use export::{report_json, MetricsRegistry, SCHEMA_VERSION};
pub use loadgen::{
    drive, mixed_ops, mixed_ops_resuming, poisson_arrivals, skewed_queries, zipf_indices, Driven,
    Load, MixedWorkload, Op,
};
pub use metrics::{imbalance, percentile, LatencyHistogram, LatencySummary, OpStatus};
pub use net::{NetClient, NetCounters, NetQueryReply, NetServer, NetServerConfig, NetWriteReply};
pub use service::{
    dedup_batch, BatchDedup, DeviceSpec, ServiceConfig, ServiceReport, ShardedService,
};
pub use session::{
    Client, QueryResult, QueryTicket, Session, WriteOp, WriteResult, WriteTicket,
    CLIENT_THROTTLE_SHARD,
};
pub use shard::{Shard, ShardBuildConfig, ShardPlan, ShardSet};
pub use shared_sim::{SharedSimArray, SharedSimHandle};
pub use topology::{Replica, Topology};
pub use trace::{NetStage, ShardSpan, SpanKind, TraceRing, TraceSpan};
pub use update::ShardUpdater;
